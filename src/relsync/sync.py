"""Timestamp-based sync: the production algorithm.

Instead of snapshot diffs, this walks the client's current relevant paths
and uses the change log to decide what the client is missing.  A path is
the tuple of its walk, v0, e0, v1, …, vn, and each one is walked once, in
that order, against the client's last-sync timestamp:

  * an element created since then goes to the create sets,
  * an object updated since then goes to the update set,
  * and — because a new link can splice an old subgraph into relevance —
    the first newly-created edge turns on a sweep: that edge and every
    element after it go to the create sets regardless of age.

A path with nothing created or updated since then contributes nothing.
Deletions are broadcast from the log to every client regardless of
relevance; the receiving side is expected to ignore deletes it never knew
about.  The returned ts_cs advances the cursor to the newest action
timestamp among everything delivered, which is what makes an immediate
re-sync empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .changelog import ActionType, ChangeLog
from .delta import DeltaSet
from .expr import PathExpr
from .model import Link, Schema, SystemData
from .paths import relevant_paths


@dataclass
class SyncCursor:
    user: str  # the client's root identity object
    ts_ls: int = 0  # timestamp of last sync; only ever advances


def timestamp_sync(
    cursor: SyncCursor,
    data: SystemData,
    log: ChangeLog,
    exprs: list[PathExpr],
    schema: Schema,
) -> DeltaSet:
    ts_ls = cursor.ts_ls
    paths = relevant_paths(schema, data, exprs, user=cursor.user)

    crt_ids: set[str] = set()
    upd_ids: set[str] = set()
    crt_links: set[Link] = set()

    for p in paths:
        # A newly created edge may have attached a pre-existing subgraph the
        # client has never seen; from that edge onward everything goes out
        # as creates, whatever its age.
        swept = False
        for element in p:
            is_link = isinstance(element, Link)
            created = log.ts(element, ActionType.CREATE)
            is_new = created is not None and created > ts_ls
            if is_new and is_link:
                swept = True
            if is_new or swept:
                (crt_links if is_link else crt_ids).add(element)
            elif not is_link:
                # An object in the create sets is never sent as an update.
                updated = log.ts(element, ActionType.UPDATE)
                if updated is not None and updated > ts_ls:
                    upd_ids.add(element)

    upd_ids -= crt_ids
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
