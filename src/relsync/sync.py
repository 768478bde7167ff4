"""Timestamp-based sync: the production algorithm.

Instead of snapshot diffs, this walks the client's current relevant paths
and uses the change log to decide what the client is missing.  A path with
any action newer than the client's last-sync timestamp contributes:

  * its elements created since then (to the create sets),
  * its objects updated since then (to the update set),
  * and — because a new link can splice an old subgraph into relevance —
    everything from the first newly-created edge onward, swept into the
    create sets regardless of element age.

Deletions are broadcast from the log to every client regardless of
relevance; the receiving side is expected to ignore deletes it never knew
about.  The returned ts_cs advances the cursor to the newest action
timestamp among everything delivered, which is what makes an immediate
re-sync empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .changelog import ActionType, ChangeLog
from .delta import DeltaSet
from .expr import PathExpr
from .model import Link, Schema, SystemData
from .paths import DEFAULT_MAX_PATHS, Path, relevant_paths


@dataclass
class SyncCursor:
    user: str  # the client's root identity object
    ts_ls: int = 0  # timestamp of last sync; only ever advances


# The actions a live element can have seen since its last delete.
_LIVE_ACTIONS = (ActionType.CREATE, ActionType.UPDATE)


def has_modification(p: Path, ts_ls: int, log: ChangeLog) -> bool:
    """True iff any element of the path was created or updated strictly
    after ts_ls.

    Deletes are not probed: a path runs over live data only, and a live
    element's delete entry, if it has one, is no newer than its latest
    create (a link re-created after its delete has none at all)."""
    for element in p.flattened():
        for action in _LIVE_ACTIONS:
            ts = log.ts(element, action)
            if ts is not None and ts > ts_ls:
                return True
    return False


def index_of_first_created_element(p: Path, ts: int, log: ChangeLog) -> int | float:
    """Smallest flattened index of an edge created after ts; infinity when
    there is none (so a comparison `index >= result` matches nothing)."""
    for index, element in enumerate(p.flattened()):
        if not isinstance(element, Link):
            continue
        created = log.ts(element, ActionType.CREATE)
        if created is not None and created > ts:
            return index
    return math.inf


def timestamp_sync(
    cursor: SyncCursor,
    data: SystemData,
    log: ChangeLog,
    exprs: list[PathExpr],
    schema: Schema,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> DeltaSet:
    ts_ls = cursor.ts_ls
    paths = relevant_paths(
        schema, data, exprs, {"user": cursor.user}, max_paths=max_paths
    )

    crt_ids: set[str] = set()
    upd_ids: set[str] = set()
    crt_links: set[Link] = set()

    for p in paths:
        if not has_modification(p, ts_ls, log):
            continue
        flattened = p.flattened()
        for element in flattened:
            created = log.ts(element, ActionType.CREATE)
            if created is not None and created > ts_ls:
                if isinstance(element, Link):
                    crt_links.add(element)
                else:
                    crt_ids.add(element)
            if not isinstance(element, Link):
                updated = log.ts(element, ActionType.UPDATE)
                if updated is not None and updated > ts_ls:
                    upd_ids.add(element)
        # A newly created edge may have attached a pre-existing subgraph the
        # client has never seen; everything from that edge onward goes out
        # as creates, whatever its age.
        i_l = index_of_first_created_element(p, ts_ls, log)
        for index, element in enumerate(flattened):
            if index < i_l:
                continue
            if isinstance(element, Link):
                crt_links.add(element)
            else:
                crt_ids.add(element)

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
    "has_modification",
    "index_of_first_created_element",
    "timestamp_sync",
]
