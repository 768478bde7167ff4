"""Timestamp-based sync: the production algorithm.

Instead of snapshot diffs, this asks the change log what changed since the
client's last-sync timestamp and keeps what lies on the client's current
relevant paths (each the tuple of its walk, v0, e0, v1, …, vn): elements
created since then go to the create sets, and objects updated since then,
unless created, to the update set.  Because a new link can splice an old
subgraph into relevance, on a path that holds a new link everything from
the first such link on goes to the create sets regardless of age.

The slice is each walk's element counts, memoised with its prefix tree
(`paths.PathSet`), so a sync whose walks are memoised builds nothing from
the path tuples, nor unites its walks' slices: it tests each change
since its cursor against each walk's counts.  The elements from a new
link on are every node under a node that the link leads into, which the
walk's read map finds from the link's ends (`PathSet.below`).  So a sync
that finds its walks memoised costs what changed since its cursor, not
the size of its slice.

Per action the log walks its k changes while k is at most the size of the
walks' slices; past that (a new or long-offline client) each slice element
is probed.
Deletions are broadcast to every client regardless of relevance; the
receiving side ignores deletes it never knew about.  ts_cs advances the
cursor to the newest action timestamp among everything delivered, which is
what makes an immediate re-sync empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .changelog import ActionType, ChangeLog
from .delta import DeltaSet
from .expr import PathExpr
from .model import Link, Schema, SystemData
from .paths import relevant_paths


_COUNTS = attrgetter("counts")


@dataclass
class SyncCursor:
    user: str  # the client's root identity object
    # timestamp of last sync: `Replica.apply_delta` sets it to the ts_cs
    # of whatever delta arrives, so a late delta moves it back
    ts_ls: int = 0


def timestamp_sync(
    cursor: SyncCursor,
    data: SystemData,
    log: ChangeLog,
    exprs: list[PathExpr],
    schema: Schema,
) -> DeltaSet:
    ts_ls = cursor.ts_ls
    paths = relevant_paths(schema, data, exprs, user=cursor.user)
    walks = paths.parts or (paths,)
    slices = list(map(_COUNTS, walks))
    size = sum(map(len, slices))

    def changed(action: ActionType) -> set[str | Link]:
        newer = log.since(action, ts_ls, limit=size)
        if newer is None:  # more changes than slice elements: probe those
            newer = [e for on_path in slices for e in on_path if (log.ts(e, action) or 0) > ts_ls]
        found = slices[0].keys() & newer
        for on_path in slices[1:]:
            found |= on_path.keys() & newer
        return found

    created = changed(ActionType.CREATE)
    crt_links: set[Link] = {e for e in created if isinstance(e, Link)}
    crt_ids: set[str] = created - crt_links

    if crt_links:
        # A new edge may have attached an old subgraph the client never saw:
        # from a path's first new edge on, everything goes out as creates.
        new_links = frozenset(crt_links)
        for walk, on_path in zip(walks, slices):
            if not on_path.keys().isdisjoint(new_links):
                ids, links = walk.below(new_links)
                crt_ids |= ids
                crt_links |= links

    upd_ids = changed(ActionType.UPDATE) - crt_ids
    del_objects, del_links = log.deletions_since(ts_ls)

    delta = DeltaSet(ts_cs=ts_ls)
    delta.crt_objects = {(oid, data.objects[oid]) for oid in crt_ids}
    delta.upd_objects = upd_ids
    delta.del_objects = del_objects
    delta.crt_links = crt_links
    delta.del_links = del_links
    delta.states = {oid: dict(data.states[oid]) for oid in crt_ids | upd_ids}

    ts_cs = ts_ls
    delivered: list[str | Link] = [
        *crt_ids, *upd_ids, *crt_links, *del_objects, *del_links,
    ]
    for element in delivered:
        for ts in log.actions(element).values():
            ts_cs = max(ts_cs, ts)
    delta.ts_cs = ts_cs
    return delta


__all__ = [
    "SyncCursor",
    "timestamp_sync",
]
