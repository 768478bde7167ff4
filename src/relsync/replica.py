"""Client-side replica: applies deltas, pushes local changes, sweeps garbage.

The replica holds a plain SystemData plus the sync cursor and the relevance
expressions (shipped to the client so it can evaluate relevance locally).
Delta application is deliberately tolerant — the timestamp algorithm may
over-deliver, re-deliver, or announce deletions of things this client never
had — and is ordered so no step observes a dangling reference: object
creates, link creates, updates, link deletes, object deletes, then the GC
sweep drops whatever is no longer on any locally-relevant path.  It keeps
the root and the walks' elements (`paths.PathSet.counts`), every object
and link on some path.  It reads each expression's walk from the data's
memo (`SystemData.walks`), regrown in place from the links a change since
touched (see `memo.py`), and looks only at what can have left every
slice: what the replica created since the last sweep, and what each
walk's regrowth took off its slice (`PathSet.zeroed`).  So a sweep after
a change that moved no path finds its walks as they were and looks at
nothing.
Every change goes through `SystemData.apply`, which keeps the data's link
index current for the sweep's path evaluation.  Links and updates are
applied in text and id order, so the divergence warnings come in a stable
order.  A push is applied locally only once the server has taken it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import attrgetter

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
    Link,
    Mutation,
    Schema,
    SystemData,
    UpdateState,
    link_text_order,
)
from .paths import relevant_paths
from .sync import SyncCursor

_COUNTS, _SERIAL = attrgetter("counts"), attrgetter("serial")


@dataclass
class Replica:
    name: str
    root: str
    exprs: list[PathExpr]
    schema: Schema
    data: SystemData = field(default_factory=SystemData)
    cursor: SyncCursor = None  # type: ignore[assignment]
    divergence_warnings: list[str] = field(default_factory=list)
    # the objects and links `_mutate` created since the last sweep
    _created: list = field(default_factory=list, init=False, repr=False, compare=False)
    # each walk the last sweep read, with its serial then
    _walked: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cursor is None:
            self.cursor = SyncCursor(user=self.root)

    def warn(self, message: str) -> None:
        # Most warnings repeat one already given (a replica is told of the
        # same unheld objects sync after sync), so each text is held once.
        self.divergence_warnings.append(sys.intern(f"{self.name}: {message}"))

    # -- delta application ----------------------------------------------------

    def apply_delta(self, delta: DeltaSet) -> None:
        data = self.data
        for oid, cls in sorted(delta.crt_objects):
            existing = data.objects.get(oid)
            if existing is not None and existing != cls:
                raise IdReuseError(
                    f"create of {oid} as {cls} conflicts with existing class {existing}"
                )
            self._mutate(CreateObject(oid, cls, delta.states.get(oid, ())))
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
                self._mutate(UpdateState(oid, delta.states.get(oid, ())))
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
        fixed point: removal only ever shrinks the path sets further.

        The last sweep left every held element but the root on some walk's
        slice.  So an element off every slice now was created since, or
        left a walk's slice in a regrowth since, which lists it among the
        elements its counts took to zero (`PathSet.zeroed`).  Those are
        the candidates; after a first walk, or when a walk was regrown
        more than once since (its serial tells), every held element is."""
        data = self.data
        paths = relevant_paths(self.schema, data, self.exprs, user=self.root)
        walks = paths.parts or (paths,)
        candidates = set(self._created)
        walked = self._walked
        if len(walked) == len(walks):
            for walk, (was, serial) in zip(walks, walked):
                if walk is not was or walk.serial > serial + 1:
                    candidates = None
                    break
                if walk.serial > serial:
                    candidates.update(walk.zeroed)
        else:
            candidates = None
        links, objects = data.links, data.objects
        if candidates is None:
            # Object ids and links never compare equal, so one set holds both.
            candidates = objects.keys() | links
        slices = list(map(_COUNTS, walks))
        removed = set()
        # Every link of a removed object is off-path too, so the objects'
        # cascades find nothing left to remove.
        for element in candidates:
            for on_path in slices:
                if element in on_path:
                    break
            else:
                if type(element) is Link:
                    if element in links:
                        data.apply(DeleteLink(element))
                elif element in objects:
                    removed.add(element)
        removed.discard(self.root)
        for oid in removed:
            data.apply(DeleteObject(oid))
        self._created = []
        self._walked = list(zip(walks, map(_SERIAL, walks)))
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
        kind = type(mutation)
        if kind is CreateObject:
            self._created.append(mutation.object_id)  # a candidate of the next sweep
        elif kind is CreateLink:
            self._created.append(mutation.link)
        self.data.apply(mutation)

    # -- rendering ---------------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for oid in sorted(self.data.objects):
            cls = self.data.objects[oid]
            lines.append(f"obj {oid} {cls} {render_state(self.data.states.get(oid, ()))}")
        for link in sorted(self.data.links, key=link_text_order):
            lines.append(f"link {link}")
        return "".join(line + "\n" for line in lines)


__all__ = ["Replica"]
