"""Client-side replica: applies deltas, pushes local changes, sweeps garbage.

The replica holds a plain SystemData plus the sync cursor and the relevance
expressions (shipped to the client so it can evaluate relevance locally).
Delta application is deliberately tolerant — the timestamp algorithm may
over-deliver, re-deliver, or announce deletions of things this client never
had — and is ordered so no step observes a dangling reference: object
creates, link creates, updates, link deletes, object deletes, then the GC
sweep drops whatever is no longer on any locally-relevant path.  It keeps
the root and the walks' element set (`paths.PathSet.elements`), every
object and link on some path in one set, which a memoised walk carries,
so a sweep that reads the memo builds nothing from the path tuples.  The
walk reads a state only to test a filter root, so the sweep skips it
when the replica has changed nothing since the last sweep but states of
classes no filter root names.
A sweep that does walk reads each expression's walk from the data's memo
(`SystemData.walks`), and regrows only the starts a change since reached
(see `memo.py`).
Every change goes through `SystemData.apply`, which keeps the data's link
index current for the sweep's path evaluation.  Links and updates are
applied in text and id order, so the divergence warnings come in a stable
order.  A push is applied locally only once the server has taken it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .delta import DeltaSet, render_state
from .errors import (
    AlreadyDeletedError,
    DuplicateIdError,
    DuplicateLinkError,
    IdReuseError,
    OfflinePushError,
    UnknownIdError,
)
from .expr import PathExpr
from .model import (
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Mutation,
    Schema,
    SystemData,
    UpdateState,
    link_text_order,
)
from .paths import relevant_paths
from .sync import SyncCursor


@dataclass
class Replica:
    name: str
    root: str
    exprs: list[PathExpr]
    schema: Schema
    data: SystemData = field(default_factory=SystemData)
    cursor: SyncCursor = None  # type: ignore[assignment]
    divergence_warnings: list[str] = field(default_factory=list)
    # the data object as the last sweep left it; None once a change may have
    # moved its paths (anything but an update no filter root reads)
    _swept: SystemData | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.cursor is None:
            self.cursor = SyncCursor(user=self.root)

    def warn(self, message: str) -> None:
        self.divergence_warnings.append(f"{self.name}: {message}")

    # -- delta application ----------------------------------------------------

    def apply_delta(self, delta: DeltaSet) -> None:
        data = self.data
        for oid, cls in sorted(delta.crt_objects):
            existing = data.objects.get(oid)
            if existing is not None and existing != cls:
                raise IdReuseError(
                    f"create of {oid} as {cls} conflicts with existing class {existing}"
                )
            self._mutate(CreateObject.make(oid, cls, delta.states.get(oid)))
        for link in sorted(delta.crt_links, key=link_text_order):
            if link in data.links:
                continue  # re-delivered
            if link.src in data.objects and link.dst in data.objects:
                self._mutate(CreateLink(link))
            else:
                # Can happen when the server over-delivers a link whose
                # endpoint this client is not entitled to; holding the link
                # back keeps the replica free of dangling references.
                self.warn(f"dropped link {link}: endpoint missing")
        for oid in sorted(delta.upd_objects):
            if oid in data.objects:
                self._mutate(UpdateState.make(oid, delta.states.get(oid, {})))
            else:
                # The update wire format carries no class, so the unknown
                # target cannot be materialized as a create; skip it.  Any
                # object this starves of state is off-path locally and the
                # sweep removes it anyway.
                self.warn(f"skipped update of unknown object {oid}")
        for link in delta.del_links:
            if link in data.links:  # deletions are broadcast
                self._mutate(DeleteLink(link))
        for oid in delta.del_objects:
            if oid not in data.objects:
                continue  # deletions are broadcast; unknown ids are expected
            self._mutate(DeleteObject(oid))
        self.cursor.ts_ls = delta.ts_cs

    def gc_sweep(self) -> set[str]:
        """Drop everything not on a locally-relevant path (the root object
        always stays).  Returns the removed object ids.  One pass reaches a
        fixed point: removal only ever shrinks the path sets further.  So
        while the data is the object the last sweep left, and the replica
        has applied nothing to it since but updates to objects of classes
        no filter root names, a sweep would remove nothing and is skipped:
        roles, links and instance roots ignore states."""
        data = self.data
        if self._swept is data:
            return set()
        # Object ids and links never compare equal, so one set holds both.
        on_path = relevant_paths(self.schema, data, self.exprs, user=self.root).elements
        removed = data.objects.keys() - on_path
        removed.discard(self.root)
        # Every link of a removed object is off-path too, so the objects'
        # cascades find nothing left to remove.
        for link in data.links - on_path:
            data.apply(DeleteLink(link))
        for oid in removed:
            data.apply(DeleteObject(oid))
        self._swept = data
        return removed

    # -- local changes ----------------------------------------------------------

    def push_local_change(self, mutation: Mutation, server) -> int | None:
        """Forward a local mutation as one server transaction, and apply it
        locally once the server has taken it.

        The mutation must first make sense against the replica's view.  A
        push that fails that check or that the server rejects never touches
        the replica, so a failed push leaves no trace."""
        if server is None:
            raise OfflinePushError(f"{self.name} is offline; push not queued")
        self._check_local(mutation)
        ts = server.apply([mutation])
        self._mutate(mutation)
        return ts

    def _check_local(self, mutation: Mutation) -> None:
        """Check a mutation against the replica's view."""
        data = self.data
        if isinstance(mutation, CreateObject):
            if mutation.object_id in data.objects:
                raise DuplicateIdError(f"object {mutation.object_id} already exists")
        elif isinstance(mutation, UpdateState):
            if mutation.object_id not in data.objects:
                raise UnknownIdError(f"unknown object {mutation.object_id}")
        elif isinstance(mutation, DeleteObject):
            if mutation.object_id not in data.objects:
                raise AlreadyDeletedError(f"object {mutation.object_id} not present")
        elif isinstance(mutation, CreateLink):
            link = mutation.link
            if link.src not in data.objects or link.dst not in data.objects:
                raise UnknownIdError(f"link {link}: endpoint not replicated")
            if link in data.links:
                raise DuplicateLinkError(f"link {link} exists")
        elif isinstance(mutation, DeleteLink):
            if mutation.link not in data.links:
                raise UnknownIdError(f"link {mutation.link} not replicated")

    def _mutate(self, mutation: Mutation) -> None:
        if not isinstance(mutation, UpdateState) or self._filtered(mutation.object_id):
            self._swept = None  # the paths may have changed since the last sweep
        self.data.apply(mutation)

    def _filtered(self, oid: str) -> bool:
        """Whether a filter root tests the object's state: the one place
        the sweep's walk reads a state."""
        cls = self.data.objects.get(oid)
        return any(
            expr.root.reads_state and expr.root.class_name == cls
            for expr in self.exprs
        )

    # -- rendering ---------------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for oid in sorted(self.data.objects):
            cls = self.data.objects[oid]
            lines.append(f"obj {oid} {cls} {render_state(self.data.states.get(oid, {}))}")
        for link in sorted(self.data.links, key=link_text_order):
            lines.append(f"link {link}")
        return "".join(line + "\n" for line in lines)


__all__ = ["Replica"]
