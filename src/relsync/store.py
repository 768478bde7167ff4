"""Transactional store over a typed object graph.

All server-side changes go through `Store.apply`: one `Store.apply` call
is one commit, and a batch may list its mutations in any order.  `apply`
sorts the batch by kind, stably, in the order of the `_COMMIT_ORDER`
table — object creates, link creates, updates, link deletes, object
deletes — and stages it in that order straight into the live data: each
mutation is checked against the data, which holds everything the batch
applied before it, then applied there through `SystemData.apply`.  The
commit validates what the batch touched and only then makes it the next
version.  Validating only the touched elements (the logged ones,
cascaded link deletes included) costs O(batch) and checks everything the
batch could have broken: every committed version was validated and the
data changes only through commit, an object's class never changes, and
an endpoint vanishes only through a `DeleteObject` in the batch, whose
cascade is logged and so touched too.

A transaction journals what undoing its batch needs: the log of each
staged mutation's element and action, which commit also records, and the
state that each update and object delete replaced.  A rejected batch is
undone in place from that journal, newest first, and the walk memo
(`SystemData.walks`) gets back a shallow copy taken before the batch,
which is the memo as it was (see `memo.py`).  A commit moves the
containers, index and memo included, to a fresh `SystemData`, which
becomes `Store.data`, and leaves the version it replaced holding only a
link to it and the journal (`SystemData.supersede`).  So a commit copies
no container: it costs O(batch), whatever the size of the store.  A held
version is rebuilt from the live data and the journals only when
something reads it.
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
from .memo import WalkMemo
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


def _check_keys(state: tuple[tuple[str, object], ...]) -> None:
    for key, _ in state:
        validate_token(key, "attribute name")


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
    """One batch staged into the live data, with the journal that undoes
    it; `Store.apply` makes one per call.  `commit` makes the staged data
    the next version, and `rollback` undoes a rejected batch in place."""

    def __init__(self, store: Store):
        self._store = store
        self._data = store.data
        self._walks = WalkMemo(self._data.walks)  # the memo before the batch
        self._log: list[tuple[str | Link, ActionType]] = []
        # the state each update replaced, the (class, state) each object
        # delete removed, in staging order
        self._prior: list = []
        self._deleted: set[str | Link] = set()

    # -- staging ------------------------------------------------------------

    def stage_mutation(self, mutation: Mutation) -> None:
        """Check a mutation against the live data, then apply it there and
        journal it.  Mutations arrive in commit order, so every id or link
        one names must already be in the data.  A state's keys must be
        tokens, as a key no text form can carry back would leave the data
        unrenderable."""
        data = self._data
        if isinstance(mutation, CreateObject):
            self._check_create(mutation)
            _check_keys(mutation.state)
        elif isinstance(mutation, UpdateState):
            self._require_object(mutation.object_id)
            _check_keys(mutation.state)
            self._prior.append(data.states[mutation.object_id])
        elif isinstance(mutation, DeleteObject):
            cls = self._check_delete(mutation.object_id)
            self._prior.append((cls, data.states[mutation.object_id]))
        elif isinstance(mutation, CreateLink):
            self._check_create_link(mutation.link)
        elif isinstance(mutation, DeleteLink):
            self._check_delete(mutation.link)
        else:  # pragma: no cover - exhaustive over the Mutation union
            raise TypeError(f"not a mutation: {mutation!r}")
        # The log must name the links a delete cascaded away, or replicas
        # would keep them dangling.
        for link in data.apply(mutation):
            self._log.append((link, ActionType.DELETE))
        element = (
            mutation.link if isinstance(mutation, (CreateLink, DeleteLink)) else mutation.object_id
        )
        self._log.append((element, _COMMIT_ORDER[type(mutation)][1]))

    def _require_object(self, object_id: str) -> str:
        """The class of an object in the data."""
        cls = self._data.objects.get(object_id)
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
        if oid in self._data.objects:
            raise DuplicateIdError(f"object id {oid} already in use")
        if self._store.log.is_deleted(oid):
            raise DuplicateIdError(f"object id {oid} was used before; ids are never reused")

    def _check_delete(self, element: str | Link) -> str | None:
        """An object or link to delete must be in the data, and not have
        been deleted earlier in the batch; returns an object's class."""
        is_link = isinstance(element, Link)
        if element in self._deleted:
            what = "link" if is_link else "object"
            raise AlreadyDeletedError(f"{what} {element} deleted twice in one transaction")
        cls = None
        if not is_link:
            cls = self._require_object(element)
        elif element not in self._data.links:
            raise UnknownIdError(f"unknown link {element}")
        self._deleted.add(element)
        return cls

    def _check_create_link(self, link: Link) -> None:
        assoc = self._store.schema.assocs.get(link.assoc)
        if assoc is None:
            raise SchemaMismatchError(f"unknown association {link.assoc!r}")
        if link in self._data.links:
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
        """Validate what the batch touched and make the staged data the next
        version; returns the commit's timestamp, or None when nothing was
        staged (empty commits leave no trace).  A violation raises before
        anything is swapped, for `rollback` to undo."""
        if not self._log:
            return None
        store, data = self._store, self._data
        violations = validate_schema(store.schema, data, (element for element, _ in self._log))
        if violations:
            raise CommitError("; ".join(violations))
        ts = store.log.max_ts + 1
        store.data = data.supersede(self._log, self._prior)
        for element, action in self._log:
            store.log.record(element, action, ts)
        return ts

    def rollback(self) -> None:
        """Undo the staged batch in place and put the walk memo back as it
        was before it."""
        data = self._data
        data.walks = WalkMemo()  # no walk need be kept exact through the undo
        data.undo(self._log, self._prior)
        data.walks = self._walks


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
        if len(set(map(type, mutations))) > 1:  # one kind is in commit order already
            mutations = sorted(mutations, key=lambda m: _COMMIT_ORDER[type(m)][0])
        try:
            for m in mutations:
                tx.stage_mutation(m)
            return tx.commit()
        except BaseException:
            tx.rollback()
            raise


__all__ = ["Store", "Transaction"]
