"""Snapshot-diff sync: the reference algorithm.

Computes a client's delta by diffing the relevant slice of the data the
client was last given against the relevant slice of the data now —
created = newly relevant, deleted = no longer relevant, updated = relevant
in both with a different state.  Conceptually exact but expensive (it
evaluates the client's whole slice on every sync and keeps the last one
per client), so it serves as the ground truth the timestamp-based
algorithm is tested against, and as the `--mode oracle` engine of the
simulator.

One assumption to be aware of: the diff brings a client from exactly the
previously delivered slice to the current one.  A client that pushed its
own changes between syncs has strayed from that slice, and if the server
meanwhile reverts a pushed value back to what the last slice held, the
diff sees no difference and never re-delivers it.  The timestamp
algorithm covers that case (the revert is newer than the client's cursor);
here it is simply outside the algorithm's contract.
"""

from __future__ import annotations

from .delta import DeltaSet
from .expr import PathExpr
from .model import Schema, State, SystemData
from .paths import select_relevant


def get_set_crt(s_prev: set, s_now: set) -> set:
    return {i for i in s_now if i not in s_prev}


def get_set_del(s_prev: set, s_now: set) -> set:
    return {i for i in s_prev if i not in s_now}


def get_set_upd(
    s_prev: set,
    s_now: set,
    state_prev: dict[str, State],
    state_now: dict[str, State],
) -> set:
    return {
        i
        for i in s_now
        if i in s_prev and state_prev.get(i) != state_now.get(i)
    }


def _diff_slices(rel_prev: SystemData, rel_now: SystemData, ts_now: int) -> DeltaSet:
    """The delta that turns the slice `rel_prev` into the slice `rel_now`."""
    objs_prev = set(rel_prev.objects)
    objs_now = set(rel_now.objects)
    crt_ids = get_set_crt(objs_prev, objs_now)
    upd_ids = get_set_upd(objs_prev, objs_now, rel_prev.states, rel_now.states)

    delta = DeltaSet(ts_cs=ts_now)
    delta.crt_objects = {(oid, rel_now.objects[oid]) for oid in crt_ids}
    delta.upd_objects = upd_ids
    delta.del_objects = get_set_del(objs_prev, objs_now)
    delta.crt_links = get_set_crt(rel_prev.links, rel_now.links)
    delta.del_links = get_set_del(rel_prev.links, rel_now.links)
    delta.states = {oid: dict(rel_now.states[oid]) for oid in crt_ids | upd_ids}
    return delta


def oracle_sync(
    root: str,
    data_now: SystemData,
    data_prev: SystemData,
    exprs: list[PathExpr],
    schema: Schema,
    ts_now: int,
) -> DeltaSet:
    """Diff the relevant slices of two full snapshots into a DeltaSet."""
    rel_prev = select_relevant(schema, data_prev, exprs, user=root)
    rel_now = select_relevant(schema, data_now, exprs, user=root)
    return _diff_slices(rel_prev, rel_now, ts_now)


class SnapshotOracle:
    """Per-client slice store driving the snapshot diff.

    Only each client's last slice is kept, since the next sync diffs
    against it alone; a client keeps its root and expressions, so that
    slice is what the previous snapshot would select again.  A client's
    first sync diffs against the empty slice, which turns the initial full
    download into an ordinary run of the same algorithm."""

    def __init__(self, schema: Schema):
        self.schema = schema
        # client -> the relevant slice delivered at that client's last sync
        self.last: dict[str, SystemData] = {}

    def sync(
        self,
        client: str,
        root: str,
        data_now: SystemData,
        ts_now: int,
        exprs: list[PathExpr],
    ) -> DeltaSet:
        rel_now = select_relevant(self.schema, data_now, exprs, user=root)
        delta = _diff_slices(self.last.get(client, SystemData()), rel_now, ts_now)
        self.last[client] = rel_now
        return delta


__all__ = [
    "SnapshotOracle",
    "get_set_crt",
    "get_set_del",
    "get_set_upd",
    "oracle_sync",
]
