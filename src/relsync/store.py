"""Single-writer transactional store over a typed object graph.

All server-side changes go through transactions.  A transaction stages
mutations (checked leniently, in any order), then `commit` applies them
through `SystemData.apply`, kind by kind in the order of the
`_COMMIT_ORDER` table — object creates, link creates, updates, link
deletes, object deletes — to the next version of the data, validates what
the batch touched, and only then swaps it in.  Validating only the touched
elements (the logged ones, cascaded link deletes included) costs O(batch)
and checks everything the batch could have broken: every committed version
was validated and the data changes only through commit, an object's class
never changes, and an endpoint vanishes only through a `DeleteObject` in
the batch, whose cascade is logged and so touched too.  The next version
(`SystemData.derive`) has containers of its own but shares every state
dict and per-vertex link set that the commit did not replace, so a held
version never changes and a commit makes no deep copy.  Every mutation in one
commit is logged at the same logical timestamp; the counter advances once
per nonempty commit, so equal timestamps mean "same transaction" and order
of timestamps is commit order.

Object ids are never reused, even after deletion.  Deleting an object
cascades to its links, and the cascaded link deletions are logged too
(clients must hear about them to drop the links).
"""

from __future__ import annotations

from .changelog import ActionType, ChangeLog
from .errors import (
    AlreadyDeletedError,
    CommitError,
    DuplicateIdError,
    DuplicateLinkError,
    SchemaMismatchError,
    TransactionError,
    UnknownIdError,
)
from .model import (
    AssociationDef,
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    Mutation,
    Schema,
    State,
    SystemData,
    UpdateState,
    validate_schema,
    validate_token,
)

# The commit order: kind -> (rank, logged action).  Commit applies staged
# mutations sorted by rank, stably, so staging order holds within a kind.
_COMMIT_ORDER: dict[type, tuple[int, ActionType]] = {
    CreateObject: (0, ActionType.CREATE),
    CreateLink: (1, ActionType.CREATE),
    UpdateState: (2, ActionType.UPDATE),
    DeleteLink: (3, ActionType.DELETE),
    DeleteObject: (4, ActionType.DELETE),
}


def _check_link_fits(link: Link, assoc: AssociationDef, src_cls: str, dst_cls: str) -> None:
    """Reject a link whose endpoint classes do not fit its association."""
    if src_cls != assoc.class_a or dst_cls != assoc.class_b:
        raise SchemaMismatchError(
            f"link {link}: classes {src_cls}-{dst_cls} "
            f"do not fit {assoc.class_a}-{assoc.class_b}"
        )


class Transaction:
    def __init__(self, store: Store):
        self._store = store
        self._staged: list[Mutation] = []
        self._created_ids: dict[str, str] = {}  # id -> class
        self._created_links: set[Link] = set()
        self._deferred_links: list[Link] = []  # forward refs, checked at commit
        self._deleted_ids: set[str] = set()
        self._deleted_links: set[Link] = set()
        self._done = False

    # -- staging ------------------------------------------------------------

    def stage_mutation(self, mutation: Mutation) -> None:
        """Check a mutation against live data plus what this transaction has
        staged so far, then queue it.  A link may be staged before the
        creates of its endpoints (the forward reference resolves at commit);
        update and delete must name ids that are live or already staged."""
        if self._done:
            raise TransactionError("transaction already finished")
        if isinstance(mutation, CreateObject):
            self._check_create(mutation)
        elif isinstance(mutation, UpdateState):
            self._require_object(mutation.object_id)
        elif isinstance(mutation, DeleteObject):
            self._check_delete_object(mutation.object_id)
        elif isinstance(mutation, CreateLink):
            self._check_create_link(mutation.link)
        elif isinstance(mutation, DeleteLink):
            self._check_delete_link(mutation.link)
        else:  # pragma: no cover - exhaustive over the Mutation union
            raise TypeError(f"not a mutation: {mutation!r}")
        self._staged.append(mutation)

    def _resolve_class(self, object_id: str) -> str | None:
        cls = self._store.data.objects.get(object_id)
        if cls is None:
            cls = self._created_ids.get(object_id)
        return cls

    def _require_object(self, object_id: str) -> str:
        cls = self._resolve_class(object_id)
        if cls is None:
            if self._store.was_deleted(object_id) or object_id in self._deleted_ids:
                raise AlreadyDeletedError(f"object {object_id} was deleted")
            raise UnknownIdError(f"unknown object {object_id}")
        return cls

    def _check_create(self, mutation: CreateObject) -> None:
        oid = validate_token(mutation.object_id, "object id")
        validate_token(mutation.class_name, "class name")
        if mutation.class_name not in self._store.schema.classes:
            raise SchemaMismatchError(f"unknown class {mutation.class_name!r}")
        if oid in self._store.data.objects or oid in self._created_ids:
            raise DuplicateIdError(f"object id {oid} already in use")
        if oid in self._store._ever_ids:
            raise DuplicateIdError(f"object id {oid} was used before; ids are never reused")
        self._created_ids[oid] = mutation.class_name

    def _check_delete_object(self, object_id: str) -> None:
        self._require_object(object_id)
        if object_id in self._deleted_ids:
            raise AlreadyDeletedError(f"object {object_id} deleted twice in one transaction")
        self._deleted_ids.add(object_id)

    def _check_create_link(self, link: Link) -> None:
        assoc = self._store.schema.assocs.get(link.assoc)
        if assoc is None:
            raise SchemaMismatchError(f"unknown association {link.assoc!r}")
        if link in self._store.data.links or link in self._created_links:
            raise DuplicateLinkError(f"link {link} already exists")
        src_cls = self._resolve_class(link.src)
        dst_cls = self._resolve_class(link.dst)
        if src_cls is None or dst_cls is None:
            # Tolerate a forward reference to an object whose create is
            # staged later in this transaction; the link is re-checked at
            # commit.  Tombstoned ids can never come back, so fail those now.
            for oid, cls in ((link.src, src_cls), (link.dst, dst_cls)):
                if cls is None and (
                    self._store.was_deleted(oid) or oid in self._deleted_ids
                ):
                    raise AlreadyDeletedError(f"object {oid} was deleted")
            self._deferred_links.append(link)
            self._created_links.add(link)
            return
        _check_link_fits(link, assoc, src_cls, dst_cls)
        self._created_links.add(link)

    def _check_delete_link(self, link: Link) -> None:
        if link in self._deleted_links:
            raise AlreadyDeletedError(f"link {link} deleted twice in one transaction")
        if link not in self._store.data.links and link not in self._created_links:
            raise UnknownIdError(f"unknown link {link}")
        self._deleted_links.add(link)

    # -- commit -------------------------------------------------------------

    def commit(self) -> int | None:
        """Apply the staged batch; returns its timestamp, or None when the
        transaction staged nothing (empty commits leave no trace)."""
        if self._done:
            raise TransactionError("transaction already finished")
        self._done = True
        store = self._store
        store._open_tx = None
        if not self._staged:
            return None

        for link in self._deferred_links:
            src_cls = self._resolve_class(link.src)
            dst_cls = self._resolve_class(link.dst)
            if src_cls is None or dst_cls is None:
                missing = link.src if src_cls is None else link.dst
                raise UnknownIdError(f"link {link} references unknown object {missing}")
            _check_link_fits(link, store.schema.assocs[link.assoc], src_cls, dst_cls)

        scratch = store.data.derive()
        ts = store._counter + 1
        log_entries: list[tuple[str | Link, ActionType]] = []

        for m in sorted(self._staged, key=lambda m: _COMMIT_ORDER[type(m)][0]):
            # The log must name the links a delete cascaded away, or
            # replicas would keep them dangling.
            for link in scratch.apply(m):
                log_entries.append((link, ActionType.DELETE))
            element = m.link if isinstance(m, (CreateLink, DeleteLink)) else m.object_id
            log_entries.append((element, _COMMIT_ORDER[type(m)][1]))

        report = validate_schema(
            store.schema, scratch, touched=(element for element, _ in log_entries)
        )
        if not report.ok:
            raise CommitError("; ".join(report.violations))

        store._counter = ts
        store.data = scratch
        store._ever_ids.update(self._created_ids)
        for element, action in log_entries:
            store.log.record(element, action, ts)
        return ts

    def abort(self) -> None:
        if not self._done:
            self._done = True
            self._store._open_tx = None

    # -- staging conveniences -----------------------------------------------

    def create(self, object_id: str, class_name: str, state: State | None = None) -> None:
        self.stage_mutation(CreateObject.make(object_id, class_name, state))

    def update(self, object_id: str, state: State) -> None:
        self.stage_mutation(UpdateState.make(object_id, state))

    def delete(self, object_id: str) -> None:
        self.stage_mutation(DeleteObject(object_id))

    def link(self, src: str, assoc: str, dst: str) -> None:
        self.stage_mutation(CreateLink(Link(src, dst, assoc)))

    def unlink(self, src: str, assoc: str, dst: str) -> None:
        self.stage_mutation(DeleteLink(Link(src, dst, assoc)))


class Store:
    """The server: schema, current system data, change log, commit counter."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.data = SystemData()
        self.log = ChangeLog()
        self._counter = 0
        self._ever_ids: set[str] = set()
        self._open_tx: Transaction | None = None

    @property
    def counter(self) -> int:
        return self._counter

    def begin_transaction(self) -> Transaction:
        if self._open_tx is not None:
            raise TransactionError("a transaction is already open (single writer)")
        tx = Transaction(self)
        self._open_tx = tx
        return tx

    def apply(self, mutations: list[Mutation]) -> int | None:
        tx = self.begin_transaction()
        try:
            for m in mutations:
                tx.stage_mutation(m)
        except Exception:
            tx.abort()
            raise
        return tx.commit()

    def snapshot(self) -> SystemData:
        """The current data.  Commits replace the whole SystemData object
        and never edit what versions share, so a held snapshot, its index
        included, never changes."""
        return self.data

    def was_deleted(self, object_id: str) -> bool:
        return self.log.is_deleted(object_id) and object_id not in self.data.objects


__all__ = ["Store", "Transaction"]
