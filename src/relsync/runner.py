"""Deterministic scenario execution: server + replicas + assertions.

The runner owns one store and one replica per declared client and walks the
scenario's steps in order.  Sync steps run the engine selected by `mode`:
`timestamp` uses the log-based algorithm, `oracle` the snapshot-diff one,
and `both` applies the timestamp delta while also computing the oracle
delta as a shadow and checking, after apply + GC, that the replica equals
the relevant slice of the server data exactly.  Assertion steps append
DivergenceReports instead of raising; step-level execution errors abort
with the step index attached.  In `both` mode a convergence assertion
reuses the diff its client's last sync made, unless a transaction or a
push has run since: nothing else changes the store or that replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .delta import DeltaSet, render_delta, render_state
from .errors import RelsyncError, ScenarioRuntimeError
from .model import SystemData, link_text_order
from .oracle import SnapshotOracle
from .paths import select_relevant
from .replica import Replica
from .scenario import (
    AssertConvergedStep,
    AssertDeltaStep,
    PushStep,
    Scenario,
    SyncStep,
    TxStep,
)
from .store import Store
from .sync import timestamp_sync

MODES = ("timestamp", "oracle", "both")


@dataclass
class DivergenceReport:
    step_index: int
    client: str
    missing: list[str] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)
    state_mismatches: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"step {self.step_index} client {self.client}: "
            f"{len(self.missing)} missing, {len(self.extra)} extra, "
            f"{len(self.state_mismatches)} state mismatches"
        ]
        lines.extend(f"  missing {item}" for item in self.missing)
        lines.extend(f"  extra {item}" for item in self.extra)
        lines.extend(f"  state {item}" for item in self.state_mismatches)
        return "".join(line + "\n" for line in lines)


# (missing, extra, state mismatches), each a sorted list of element texts
Diff = tuple[list[str], list[str], list[str]]


# Called after every sync step: (ctx, step_index, client, applied delta,
# shadow oracle delta or None).  Lets tests observe both algorithms mid-run.
SyncHook = Callable[["RunContext", int, str, DeltaSet, DeltaSet | None], None]


@dataclass
class RunContext:
    scenario: Scenario
    mode: str
    store: Store
    oracle: SnapshotOracle
    replicas: dict[str, Replica]
    reports: list[DivergenceReport] = field(default_factory=list)
    dump_dir: Path | None = None
    on_sync: SyncHook | None = None
    # both mode: client -> the diff its last sync made.  A transaction or a
    # push clears it; a sync changes only its own client's replica.
    diffs: dict[str, Diff] = field(default_factory=dict)


def compare_replica(
    ctx: RunContext, client: str, rel: SystemData | None = None
) -> Diff:
    """Diff a replica against the relevant slice of current server data;
    `rel` is that slice when the caller has already selected it."""
    if rel is None:
        decl = ctx.scenario.clients[client]
        rel = select_relevant(
            ctx.scenario.schema, ctx.store.data, decl.exprs, user=decl.root
        )
    local = ctx.replicas[client].data
    missing = [f"obj {oid}" for oid in sorted(set(rel.objects) - set(local.objects))]
    extra = [f"obj {oid}" for oid in sorted(set(local.objects) - set(rel.objects))]
    missing += [f"link {l}" for l in sorted(rel.links - local.links, key=link_text_order)]
    extra += [f"link {l}" for l in sorted(local.links - rel.links, key=link_text_order)]
    mismatches = []
    for oid in sorted(set(rel.objects) & set(local.objects)):
        if rel.objects[oid] != local.objects[oid]:
            mismatches.append(
                f"{oid} class {local.objects[oid]} != {rel.objects[oid]}"
            )
        elif rel.states.get(oid) != local.states.get(oid):
            mismatches.append(
                f"{oid} {render_state(local.states.get(oid, {}))} "
                f"!= {render_state(rel.states.get(oid, {}))}"
            )
    return missing, extra, mismatches


def _report(ctx: RunContext, index: int, client: str, diff: Diff) -> None:
    """Report the replica's differences from its slice, if it has any."""
    missing, extra, mismatches = diff
    if missing or extra or mismatches:
        ctx.reports.append(DivergenceReport(index, client, missing, extra, mismatches))


def _dump(ctx: RunContext, name: str, delta: DeltaSet) -> None:
    if ctx.dump_dir is not None:
        ctx.dump_dir.mkdir(parents=True, exist_ok=True)
        (ctx.dump_dir / name).write_text(render_delta(delta), encoding="utf-8")


def _do_sync(
    ctx: RunContext,
    index: int,
    client: str,
    use_oracle: bool,
    expected: DeltaSet | None = None,
) -> None:
    replica = ctx.replicas[client]
    decl = ctx.scenario.clients[client]
    store = ctx.store
    shadow: DeltaSet | None = None
    if use_oracle or ctx.mode == "oracle":
        applied = ctx.oracle.sync(
            client, decl.root, store.data, store.counter, decl.exprs
        )
    else:
        applied = timestamp_sync(
            replica.cursor, store.data, store.log, decl.exprs, ctx.scenario.schema
        )
        if ctx.mode == "both":
            shadow = ctx.oracle.sync(
                client, decl.root, store.data, store.counter, decl.exprs
            )
    _dump(ctx, f"{index:03d}_{client}.delta", applied)
    if shadow is not None:
        _dump(ctx, f"{index:03d}_{client}_oracle.delta", shadow)

    if expected is not None:
        want = render_delta(expected).splitlines()
        got = render_delta(applied).splitlines()
        if want != got:
            ctx.reports.append(
                DivergenceReport(
                    step_index=index,
                    client=client,
                    missing=[line for line in want if line not in got],
                    extra=[line for line in got if line not in want],
                )
            )

    replica.apply_delta(applied)
    replica.gc_sweep()

    if ctx.mode == "both":
        # The oracle just selected this client's slice of the same data.
        diff = ctx.diffs[client] = compare_replica(ctx, client, ctx.oracle.last[client])
        _report(ctx, index, client, diff)
    if ctx.on_sync is not None:
        ctx.on_sync(ctx, index, client, applied, shadow)


def run_scenario(
    scenario: Scenario,
    mode: str = "both",
    dump_dir: str | Path | None = None,
    on_sync: SyncHook | None = None,
) -> list[DivergenceReport]:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    ctx = RunContext(
        scenario=scenario,
        mode=mode,
        store=Store(scenario.schema),
        oracle=SnapshotOracle(scenario.schema),
        replicas={
            name: Replica(
                name=name, root=decl.root, exprs=decl.exprs, schema=scenario.schema
            )
            for name, decl in scenario.clients.items()
        },
        dump_dir=Path(dump_dir) if dump_dir is not None else None,
        on_sync=on_sync,
    )
    for index, step in enumerate(scenario.steps):
        try:
            if isinstance(step, TxStep):
                ctx.diffs.clear()
                ctx.store.apply(step.mutations)
            elif isinstance(step, SyncStep):
                _do_sync(ctx, index, step.client, step.use_oracle)
            elif isinstance(step, AssertDeltaStep):
                _do_sync(ctx, index, step.client, use_oracle=False, expected=step.expected)
            elif isinstance(step, PushStep):
                ctx.diffs.clear()
                ctx.replicas[step.client].push_local_change(step.mutation, ctx.store)
            elif isinstance(step, AssertConvergedStep):
                diff = ctx.diffs.get(step.client)
                if diff is None:
                    diff = compare_replica(ctx, step.client)
                _report(ctx, index, step.client, diff)
            else:  # pragma: no cover - exhaustive over Step union
                raise TypeError(f"unknown step {step!r}")
        except RelsyncError as exc:
            raise ScenarioRuntimeError(str(exc), step_index=index) from exc
    return ctx.reports


__all__ = [
    "DivergenceReport",
    "MODES",
    "RunContext",
    "compare_replica",
    "run_scenario",
]
