"""Transactional store over a typed object graph.

All server-side changes go through `Store.apply`: one `Store.apply` call
is one commit, and a batch may list its mutations in any order.  `apply`
sorts the batch by kind, stably, in the order of the `_COMMIT_ORDER`
table — object creates, link creates, updates, link deletes, object
deletes — and stages it in that order into the next version of the data
(`SystemData.derive`): each mutation is checked against that version,
which holds everything the batch applied before it, then applied there
through `SystemData.apply`.  The commit validates what the batch touched
and only then swaps the next version in.  Validating only the touched
elements (the logged ones, cascaded link deletes included) costs O(batch)
and checks everything the batch could have broken: every committed version
was validated and the data changes only through commit, an object's class
never changes, and an endpoint vanishes only through a `DeleteObject` in
the batch, whose cascade is logged and so touched too.  The next version
has containers of its own but shares every state dict and per-vertex link
set that the batch did not replace, so a held version never changes and a
commit makes no deep copy.  The version a commit replaces loses its
memoised walks (`SystemData.walks`), so only the live version keeps any.
The change log is the commit clock: a nonempty commit logs every mutation
at one timestamp, the log's `max_ts + 1`, so equal timestamps mean "same
transaction" and order of timestamps is commit order.

Object ids are never reused, even after deletion: the change log keeps
every object's tombstone.  Deleting an object cascades to its links, and
the cascaded link deletions are logged too (clients must hear about them
to drop the links).
"""

from __future__ import annotations

from .changelog import ActionType, ChangeLog
from .errors import (
    AlreadyDeletedError,
    CommitError,
    DuplicateIdError,
    DuplicateLinkError,
    SchemaMismatchError,
    UnknownIdError,
)
from .model import (
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    Mutation,
    Schema,
    SystemData,
    UpdateState,
    validate_schema,
    validate_token,
)

# The commit order: kind -> (rank, logged action).  `Store.apply` stages
# a batch sorted by rank, stably, so list order holds within a kind.
_COMMIT_ORDER: dict[type, tuple[int, ActionType]] = {
    CreateObject: (0, ActionType.CREATE),
    CreateLink: (1, ActionType.CREATE),
    UpdateState: (2, ActionType.UPDATE),
    DeleteLink: (3, ActionType.DELETE),
    DeleteObject: (4, ActionType.DELETE),
}


class Transaction:
    """One batch staged into the next version of the data, which commit
    swaps in; `Store.apply` makes one per call."""

    def __init__(self, store: Store):
        self._store = store
        self._next = store.data.derive()
        self._log: list[tuple[str | Link, ActionType]] = []
        self._deleted: set[str | Link] = set()

    # -- staging ------------------------------------------------------------

    def stage_mutation(self, mutation: Mutation) -> None:
        """Check a mutation against the next version, then apply it there
        and log it.  Mutations arrive in commit order, so every id or link
        one names must already be in the next version."""
        if isinstance(mutation, CreateObject):
            self._check_create(mutation)
        elif isinstance(mutation, UpdateState):
            self._require_object(mutation.object_id)
        elif isinstance(mutation, DeleteObject):
            self._check_delete(mutation.object_id)
        elif isinstance(mutation, CreateLink):
            self._check_create_link(mutation.link)
        elif isinstance(mutation, DeleteLink):
            self._check_delete(mutation.link)
        else:  # pragma: no cover - exhaustive over the Mutation union
            raise TypeError(f"not a mutation: {mutation!r}")
        # The log must name the links a delete cascaded away, or replicas
        # would keep them dangling.
        for link in self._next.apply(mutation):
            self._log.append((link, ActionType.DELETE))
        element = (
            mutation.link if isinstance(mutation, (CreateLink, DeleteLink)) else mutation.object_id
        )
        self._log.append((element, _COMMIT_ORDER[type(mutation)][1]))

    def _require_object(self, object_id: str) -> str:
        """The class of an object in the next version."""
        cls = self._next.objects.get(object_id)
        if cls is None:
            if self._store.log.is_deleted(object_id):
                raise AlreadyDeletedError(f"object {object_id} was deleted")
            raise UnknownIdError(f"unknown object {object_id}")
        return cls

    def _check_create(self, mutation: CreateObject) -> None:
        oid = validate_token(mutation.object_id, "object id")
        validate_token(mutation.class_name, "class name")
        if mutation.class_name not in self._store.schema.classes:
            raise SchemaMismatchError(f"unknown class {mutation.class_name!r}")
        if oid in self._next.objects:
            raise DuplicateIdError(f"object id {oid} already in use")
        if self._store.log.is_deleted(oid):
            raise DuplicateIdError(f"object id {oid} was used before; ids are never reused")

    def _check_delete(self, element: str | Link) -> None:
        """An object or link to delete must be in the next version, and not
        have been deleted earlier in the batch."""
        is_link = isinstance(element, Link)
        if element in self._deleted:
            what = "link" if is_link else "object"
            raise AlreadyDeletedError(f"{what} {element} deleted twice in one transaction")
        if not is_link:
            self._require_object(element)
        elif element not in self._next.links:
            raise UnknownIdError(f"unknown link {element}")
        self._deleted.add(element)

    def _check_create_link(self, link: Link) -> None:
        assoc = self._store.schema.assocs.get(link.assoc)
        if assoc is None:
            raise SchemaMismatchError(f"unknown association {link.assoc!r}")
        if link in self._next.links:
            raise DuplicateLinkError(f"link {link} already exists")
        src_cls = self._require_object(link.src)
        dst_cls = self._require_object(link.dst)
        if src_cls != assoc.class_a or dst_cls != assoc.class_b:
            raise SchemaMismatchError(
                f"link {link}: classes {src_cls}-{dst_cls} "
                f"do not fit {assoc.class_a}-{assoc.class_b}"
            )

    # -- commit -------------------------------------------------------------

    def commit(self) -> int | None:
        """Validate what the batch touched and swap the next version in;
        returns the commit's timestamp, or None when nothing was staged
        (empty commits leave no trace)."""
        if not self._log:
            return None
        store = self._store
        violations = validate_schema(
            store.schema, self._next, (element for element, _ in self._log)
        )
        if violations:
            raise CommitError("; ".join(violations))
        ts = store.log.max_ts + 1
        # a superseded version may still be held; it keeps no walk results
        store.data.walks.clear()
        store.data = self._next
        for element, action in self._log:
            store.log.record(element, action, ts)
        return ts


class Store:
    """The server: schema, current system data, and the change log, whose
    latest timestamp is the commit counter."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.data = SystemData()
        self.log = ChangeLog()

    @property
    def counter(self) -> int:
        """The timestamp of the last commit; 0 before the first."""
        return self.log.max_ts

    def apply(self, mutations: list[Mutation]) -> int | None:
        """Check and commit a batch as one transaction; returns its timestamp,
        or None for an empty batch.  A rejected batch changes nothing."""
        tx = Transaction(self)
        for m in sorted(mutations, key=lambda m: _COMMIT_ORDER[type(m)][0]):
            tx.stage_mutation(m)
        return tx.commit()

    def snapshot(self) -> SystemData:
        """The current data.  Commits replace the whole SystemData object
        and never edit what versions share, so a held snapshot, its index
        included, never changes."""
        return self.data


__all__ = ["Store", "Transaction"]
