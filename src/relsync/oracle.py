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
from .model import Schema, SystemData
from .paths import select_relevant


def _diff_slices(rel_prev: SystemData, rel_now: SystemData, ts_now: int) -> DeltaSet:
    """The delta that turns the slice `rel_prev` into the slice `rel_now`:
    set differences of their objects and links, plus the objects in both
    whose state changed."""
    objs_prev = rel_prev.objects.keys()
    objs_now = rel_now.objects.keys()
    crt_ids = objs_now - objs_prev
    state_prev, state_now = rel_prev.states, rel_now.states
    upd_ids = {oid for oid in objs_now & objs_prev if state_prev.get(oid) != state_now.get(oid)}

    delta = DeltaSet(ts_cs=ts_now)
    delta.crt_objects = {(oid, rel_now.objects[oid]) for oid in crt_ids}
    delta.upd_objects = upd_ids
    delta.del_objects = objs_prev - objs_now
    delta.crt_links = rel_now.links - rel_prev.links
    delta.del_links = rel_prev.links - rel_now.links
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


__all__ = ["SnapshotOracle", "oracle_sync"]
