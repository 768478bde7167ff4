"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Run `pytest -v tests/test_acceptance.py`.  Each test exercises a single
end-to-end property of the engine — relevance selection, the two sync
algorithms, the replica, the change log — against an independent oracle
or a frozen golden, and asserts its own wall-clock budget.  Seeds are
arbitrary but frozen: reruns see the exact same instances.
"""

from __future__ import annotations

import random
import time

from brute_force import (
    apply_plainly,
    as_pairs,
    brute_force_paths,
    is_sub_path,
    is_subdata,
    random_data,
    random_expr,
    random_instance,
    random_schema,
)
from conftest import F1_LINKS, F1_OBJECTS
from relsync.cli import main
from relsync.delta import render_delta
from relsync.fuzz import FuzzBounds, _Generator
from relsync.model import SystemData
from relsync.paths import TypedGraph, evaluate, select_relevant
from relsync.runner import run_scenario
from relsync.scenario import PushStep, TxStep, load_scenario
from relsync.store import Store
from relsync.sync import timestamp_sync

CORPUS_SEED = 424242  # scenario corpus shared by the corpus-wide guarantees
SUBSET_SEED = 990817
ENUM_SEED = 550814
LOG_SEED = 1009
CORPUS_SIZE = 200



def _corpus(count: int, seed: int) -> list:
    """Deterministic scenario corpus, built the same way `fuzz` builds its
    iterations: one RNG threaded through consecutive generators."""
    rng = random.Random(seed)
    return [_Generator(rng, FuzzBounds()).build() for _ in range(count)]


def _budget(t0: float, limit: float, label: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{label} took {elapsed:.2f}s, budget {limit:.0f}s"


def test_criterion_1_fixture_relevance_matches_brute_force(
    schema, f1_data, fixture_exprs
):
    """The social fixture selects exactly its eight objects and eight links,
    and an independent path enumerator agrees."""
    t0 = time.perf_counter()

    rel = select_relevant(schema, f1_data, fixture_exprs, user="I1")
    assert rel.objects == F1_OBJECTS
    assert rel.links == F1_LINKS

    brute_objects: set[str] = set()
    brute_links: set = set()
    for expr in fixture_exprs:
        for vertices, edges in brute_force_paths(schema, f1_data, expr, "I1"):
            brute_objects.update(vertices)
            brute_links.update(edges)
    assert brute_objects == set(F1_OBJECTS)
    assert brute_links == F1_LINKS

    _budget(t0, 1.0, "fixture relevance")


def test_criterion_2_relevant_slice_is_always_subdata():
    """1000 random instances of up to 30 objects: the selected slice is
    sub-data of the full data (induced links, carried states, no strays)."""
    t0 = time.perf_counter()
    rng = random.Random(SUBSET_SEED)
    for trial in range(1000):
        schema = random_schema(rng)
        data = random_data(rng, schema, max_objects=30)
        exprs = []
        user = None
        for _ in range(rng.randint(1, 2)):
            expr, bound = random_expr(rng, schema, data)
            exprs.append(expr)
            user = user or bound
        rel = select_relevant(schema, data, exprs, user=user)
        assert is_subdata(rel, data), f"trial {trial} broke the subset law"
    _budget(t0, 30.0, "subset law")


def test_criterion_3_path_evaluator_matches_enumerator():
    """500 random graphs of up to 8 vertices: the depth-first evaluator returns
    exactly the enumerator's path set — prefix-free, dead ends retained."""
    t0 = time.perf_counter()
    rng = random.Random(ENUM_SEED)
    for trial in range(500):
        schema, data, expr, user = random_instance(rng, max_objects=8)
        g = TypedGraph(data, schema)
        got = evaluate(expr, g, user=user)
        want = brute_force_paths(schema, data, expr, user)
        assert as_pairs(got) == want, f"trial {trial} diverged on {expr}"
        assert not any(
            is_sub_path(p, q, g, proper=True) for p in got for q in got
        ), f"trial {trial} returned a non-prefix-free path set"
    _budget(t0, 60.0, "evaluator equivalence")


def test_criterion_4_oracle_delta_reconstructs_relevant_slice():
    """200 generated scenarios in oracle mode: replaying each delta onto the
    previous relevant snapshot rebuilds the current relevant slice exactly,
    at every sync point."""
    t0 = time.perf_counter()
    checks = 0
    for scenario in _corpus(CORPUS_SIZE, CORPUS_SEED):
        shadows: dict[str, SystemData] = {}

        def hook(ctx, index, client, applied, shadow):
            nonlocal checks
            rebuilt = apply_plainly(shadows.get(client, SystemData()), applied)
            decl = ctx.scenario.clients[client]
            want = select_relevant(
                ctx.scenario.schema, ctx.store.data, decl.exprs, user=decl.root
            )
            assert rebuilt.objects == want.objects
            assert rebuilt.links == want.links
            assert rebuilt.states == want.states
            shadows[client] = rebuilt
            checks += 1

        # Replica-level convergence is deliberately not asserted here: a
        # client that pushed between syncs holds values a snapshot diff
        # cannot know to re-deliver if the server reverts them to exactly
        # the snapshot value.  Full replica convergence is gated on the
        # production algorithm (criteria 5 and 8), which re-delivers by
        # recency and has no such blind spot.
        run_scenario(scenario, mode="oracle", on_sync=hook)
    assert checks > 0
    _budget(t0, 60.0, "oracle reconstruction")


def test_criterion_5_fuzz_cli_converges_in_both_modes(capsys):
    """`relsync fuzz --seed 42 --iterations 200` cross-checks both algorithms
    on every scenario — contact deletions, links into pre-existing subgraphs —
    and reports zero divergences."""
    t0 = time.perf_counter()
    assert main(["fuzz", "--seed", "42", "--iterations", "200"]) == 0
    out = capsys.readouterr().out
    assert "seed 42 iterations 200 failures 0" in out
    _budget(t0, 120.0, "fuzz convergence")


def test_criterion_6_resync_without_commits_is_empty():
    """In every corpus scenario, an immediate second sync with no intervening
    commits delivers nothing and leaves the cursor where it was."""
    t0 = time.perf_counter()
    checks = 0
    for scenario in _corpus(CORPUS_SIZE, CORPUS_SEED):

        def hook(ctx, index, client, applied, shadow):
            nonlocal checks
            replica = ctx.replicas[client]
            decl = ctx.scenario.clients[client]
            again = timestamp_sync(
                replica.cursor,
                ctx.store.data,
                ctx.store.log,
                decl.exprs,
                ctx.scenario.schema,
            )
            assert again.is_empty(), f"resync at step {index} was not empty"
            assert again.ts_cs == replica.cursor.ts_ls
            checks += 1

        reports = run_scenario(scenario, mode="timestamp", on_sync=hook)
        assert reports == []
    assert checks > 0
    _budget(t0, 120.0, "idempotent resync")


def test_criterion_7_deletions_broadcast_to_unaffected_clients():
    """Deleting an object client A never saw still puts the id in A's
    del set; the replica ignores it without error.  The delivered delta
    matches its golden text exactly."""
    scenario = load_scenario("scenarios/deletion_broadcast.scn")
    captured = []

    def hook(ctx, index, client, applied, shadow):
        captured.append((applied, "E9" in ctx.replicas[client].data.objects))

    reports = run_scenario(scenario, mode="both", on_sync=hook)
    assert reports == []

    broadcasts = [d for d, _ in captured if "E9" in d.del_objects]
    assert len(broadcasts) == 1
    assert render_delta(broadcasts[0]) == "ts_cs 3\ndel-obj E9\n"
    assert not any(held for _, held in captured), "E9 must never reach the replica"


def test_criterion_8_timestamp_algorithm_never_underdelivers():
    """Across the corpus, every change the snapshot diff reports is inside
    the timestamp algorithm's delta: creates and updates are supersets, and
    every true deletion is broadcast.  (Over-delivery is allowed; omission
    is not.)"""
    t0 = time.perf_counter()
    checks = 0
    for scenario in _corpus(CORPUS_SIZE, CORPUS_SEED):

        def hook(ctx, index, client, applied, shadow):
            nonlocal checks
            assert shadow is not None
            applied_crt_ids = {oid for oid, _ in applied.crt_objects}
            assert shadow.crt_objects <= applied.crt_objects
            assert shadow.crt_links <= applied.crt_links
            assert shadow.upd_objects <= applied.upd_objects | applied_crt_ids
            # The diff also "deletes" objects that merely drifted out of
            # relevance; only true deletions are the broadcast's obligation.
            live = ctx.store.data
            assert {
                oid for oid in shadow.del_objects if oid not in live.objects
            } <= applied.del_objects
            assert {
                link for link in shadow.del_links if link not in live.links
            } <= applied.del_links
            for oid in {o for o, _ in shadow.crt_objects} | shadow.upd_objects:
                assert oid in applied.states, f"no state carried for {oid}"
            checks += 1

        reports = run_scenario(scenario, mode="both", on_sync=hook)
        assert reports == []
    assert checks > 0
    _budget(t0, 120.0, "over-delivery bound")


def test_criterion_9_change_log_timestamps_respect_commit_order():
    """100 random commit sequences: all log entries written by one commit
    share its timestamp, no other entry ever bears it, and successive
    commits get strictly increasing timestamps."""
    t0 = time.perf_counter()
    commits = 0
    for scenario in _corpus(100, LOG_SEED):
        store = Store(scenario.schema)
        prev_lines: set[str] = set()
        last_ts = 0
        for step in scenario.steps:
            if isinstance(step, TxStep):
                batch = list(step.mutations)
            elif isinstance(step, PushStep):
                batch = [step.mutation]
            else:
                continue
            ts = store.apply(batch)
            assert ts is not None
            assert ts > last_ts, "commit order must give strictly larger stamps"
            last_ts = ts
            lines = set(store.log.dump().splitlines())
            fresh = lines - prev_lines
            assert fresh, "a nonempty commit must write log entries"
            stamped = {line for line in lines if int(line.split(" ", 1)[0]) == ts}
            assert fresh == stamped, "a timestamp must belong to exactly one commit"
            prev_lines = lines
            commits += 1
    assert commits > 0
    _budget(t0, 60.0, "timestamp laws")
