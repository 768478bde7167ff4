"""Span-and-count wrappers around relsync's layers, for the traced run.

The tracer patches public functions where they are looked up (a name
imported into several modules is patched in each), times every call as a
span, and keeps the spans' aggregates in memory: calls, total time, and
self time (the span minus the time of spans opened inside it).  Hot,
cheap functions are only counted.  `uninstall` restores the originals, so
untraced code runs the unmodified functions.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import relsync.delta as rs_delta
import relsync.oracle as rs_oracle
import relsync.paths as rs_paths
import relsync.replica as rs_replica
import relsync.runner as rs_runner
import relsync.store as rs_store
import relsync.sync as rs_sync
from relsync.changelog import ChangeLog
from relsync.model import SystemData
from relsync.replica import Replica
from relsync.store import Transaction

DELTA_KINDS = (
    ("crt_obj", "crt_objects"),
    ("upd_obj", "upd_objects"),
    ("del_obj", "del_objects"),
    ("crt_link", "crt_links"),
    ("del_link", "del_links"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._open: list[list] = []  # open spans: [name, child_s]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def parent(self) -> str | None:
        return self._open[-1][0] if self._open else None

    # -- what each layer records besides its span ------------------------------

    def _after_relevant_paths(self, paths) -> None:
        if self.parent() == "sync.timestamp_sync":
            self.counts["sync.paths"] += len(paths)

    def _after_timestamp_sync(self, delta) -> None:
        for kind, attr in DELTA_KINDS:
            self.counts[f"sync.sent_{kind}"] += len(getattr(delta, attr))

    def _after_render(self, text: str) -> None:
        self.counts["delta.bytes"] += len(text)

    def _after_gc(self, removed) -> None:
        self.counts["replica.gc_removed"] += len(removed)

    def _apply_delta(self, fn):
        spanned = self._span("replica.apply_delta", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(replica, delta):
            held = replica.data
            counts["replica.unheld_deletes"] += sum(
                1 for oid in delta.del_objects if oid not in held.objects
            ) + sum(1 for link in delta.del_links if link not in held.links)
            before = len(replica.divergence_warnings)
            spanned(replica, delta)
            counts["replica.warnings"] += len(replica.divergence_warnings) - before

        return wrapper

    # -- install / uninstall ------------------------------------------------------

    def _patch(self, owners: tuple, attr: str, wrapper) -> None:
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        span, count = self._span, self._count
        patches = [
            ((rs_paths.TypedGraph,), "__init__",
             span("paths.graph_build", rs_paths.TypedGraph.__init__)),
            ((rs_paths,), "evaluate", span("paths.evaluate", rs_paths.evaluate)),
            ((rs_paths, rs_sync, rs_replica), "relevant_paths",
             span("paths.relevant_paths", rs_paths.relevant_paths, self._after_relevant_paths)),
            ((ChangeLog,), "actions", span("changelog.actions", ChangeLog.actions)),
            ((ChangeLog,), "ts", count("changelog.ts", ChangeLog.ts)),
            ((ChangeLog,), "deletions_since",
             span("changelog.deletions_since", ChangeLog.deletions_since)),
            ((Transaction,), "commit", span("store.commit", Transaction.commit)),
            ((Transaction,), "stage_mutation",
             span("store.stage", Transaction.stage_mutation)),
            ((rs_store,), "validate_schema",
             span("model.validate_schema", rs_store.validate_schema)),
            ((SystemData,), "copy", span("model.copy", SystemData.copy)),
            ((rs_sync, rs_runner), "timestamp_sync",
             span("sync.timestamp_sync", rs_sync.timestamp_sync, self._after_timestamp_sync)),
            ((rs_oracle,), "oracle_sync", span("oracle.sync", rs_oracle.oracle_sync)),
            ((rs_delta, rs_runner), "render_delta",
             span("delta.render", rs_delta.render_delta, self._after_render)),
            ((Replica,), "apply_delta", self._apply_delta(Replica.apply_delta)),
            ((Replica,), "gc_sweep", span("replica.gc_sweep", Replica.gc_sweep, self._after_gc)),
            ((rs_runner,), "compare_replica",
             span("runner.compare_replica", rs_runner.compare_replica)),
            ((rs_runner,), "run_scenario", span("runner.run_scenario", rs_runner.run_scenario)),
        ]
        for owners, attr, wrapper in patches:
            self._patch(owners, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-layer metrics --------------------------------------------------------

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        calls, total, own = self.spans.get(name, (0, 0.0, 0.0))
        return 1e3 * (own if self_time else total) / calls if calls else 0.0

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0,))[0]

    def per_layer(self, log_entries: float, log_tombstones: float, overhead: float) -> dict:
        """Every per-layer metric as name -> (value, unit).  Times are mean
        ms per call; counts are per sync (or per sweep, render, apply)."""
        counts = self.counts
        syncs = self.calls("sync.timestamp_sync")
        applies = self.calls("replica.apply_delta")

        def per(value, base):
            return value / base if base else 0.0

        metrics = {
            "paths.graph_build_ms": (self.mean_ms("paths.graph_build"), "ms"),
            "paths.evaluate_ms": (self.mean_ms("paths.evaluate"), "ms"),
            "paths.paths_per_sync": (per(counts["sync.paths"], syncs), "paths/sync"),
            "changelog.actions_ms": (self.mean_ms("changelog.actions"), "ms"),
            "changelog.actions_calls": (
                per(self.calls("changelog.actions"), syncs), "calls/sync"),
            "changelog.ts_calls": (per(counts["changelog.ts"], syncs), "calls/sync"),
            "changelog.deletions_since_ms": (self.mean_ms("changelog.deletions_since"), "ms"),
            "changelog.entries": (log_entries, "count"),
            "changelog.tombstones": (log_tombstones, "count"),
            "store.commit_ms": (self.mean_ms("store.commit", self_time=True), "ms"),
            "store.stage_ms": (self.mean_ms("store.stage"), "ms"),
            "model.validate_schema_ms": (self.mean_ms("model.validate_schema"), "ms"),
            "model.copy_ms": (self.mean_ms("model.copy"), "ms"),
            "sync.timestamp_sync_ms": (
                self.mean_ms("sync.timestamp_sync", self_time=True), "ms"),
        }
        for kind, _ in DELTA_KINDS:
            metrics[f"sync.sent_{kind}"] = (per(counts[f"sync.sent_{kind}"], syncs), "elements/sync")
        metrics.update({
            "sync.overdelivery_ratio": (
                per(counts["sync.ts_elements"], counts["sync.oracle_elements"]), "ratio"),
            "sync.unheld_deletes": (per(counts["replica.unheld_deletes"], applies), "deletes/sync"),
            "oracle.sync_ms": (self.mean_ms("oracle.sync"), "ms"),
            "delta.render_ms": (self.mean_ms("delta.render"), "ms"),
            "delta.bytes": (per(counts["delta.bytes"], self.calls("delta.render")), "B"),
            "replica.apply_delta_ms": (self.mean_ms("replica.apply_delta"), "ms"),
            "replica.gc_sweep_ms": (self.mean_ms("replica.gc_sweep"), "ms"),
            "replica.gc_removed": (
                per(counts["replica.gc_removed"], self.calls("replica.gc_sweep")), "objects/sweep"),
            "replica.warnings": (per(counts["replica.warnings"], applies), "warnings/apply"),
            "runner.compare_replica_ms": (self.mean_ms("runner.compare_replica"), "ms"),
            "runner.run_scenario_ms": (self.mean_ms("runner.run_scenario"), "ms"),
            "trace.overhead": (overhead, "ratio"),
        })
        return metrics
