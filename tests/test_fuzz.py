"""Fuzzer: deterministic generation, bound respect, failure dumps."""

from __future__ import annotations

import relsync.fuzz as fuzz_module
import relsync.paths as paths_module
from relsync.errors import RelsyncError
from relsync.expr import parse_expression
from relsync.fuzz import FuzzBounds, fuzz, social_schema
from relsync.memo import WalkMemo
from relsync.model import CreateObject
from relsync.runner import DivergenceReport, run_scenario
from relsync.scenario import PushStep, TxStep, parse_scenario, render_scenario
from relsync.store import Store


def test_social_schema_shape():
    schema = social_schema()
    assert schema.classes == {"Identity", "Contact", "Event", "Participation"}
    assert set(schema.assocs) == {"Ownership", "Reference", "Attendance", "Enrollment"}
    assert schema.assocs["Reference"].role_b == "contactIdentity"


def test_fuzz_is_deterministic_per_seed():
    a = fuzz(seed=7, iterations=15)
    b = fuzz(seed=7, iterations=15)
    assert a.render() == b.render()


def test_generated_scenarios_are_distinct_across_seeds():
    import random

    s1 = fuzz_module._Generator(random.Random(1), FuzzBounds()).build()
    s2 = fuzz_module._Generator(random.Random(2), FuzzBounds()).build()
    assert render_scenario(s1) != render_scenario(s2)


def test_generated_scenario_replays_bit_identically():
    import random

    scenario = fuzz_module._Generator(random.Random(1234), FuzzBounds()).build()
    rendered = render_scenario(scenario)
    reparsed = parse_scenario(rendered)
    assert render_scenario(reparsed) == rendered
    assert run_scenario(reparsed, mode="both") == []


def test_bounds_cap_created_objects_and_clients():
    import random

    bounds = FuzzBounds(max_objects=8)
    for seed in range(5):
        scenario = fuzz_module._Generator(random.Random(seed), bounds).build()
        creates = sum(
            isinstance(m, CreateObject)
            for step in scenario.steps
            if isinstance(step, TxStep)
            for m in step.mutations
        )
        assert creates <= bounds.max_objects
        assert len(scenario.clients) <= fuzz_module.MAX_CLIENTS


def test_generator_model_mirrors_the_committed_store():
    # Every generated mutation is valid only while the generator's model
    # equals what the store holds after the same commits.
    import random

    for seed in range(30):
        generator = fuzz_module._Generator(random.Random(seed), FuzzBounds())
        scenario = generator.build()
        store = Store(scenario.schema)
        for step in scenario.steps:
            if isinstance(step, TxStep):
                store.apply(step.mutations)
            elif isinstance(step, PushStep):
                store.apply([step.mutation])
        assert store.data == generator.model


def test_short_fuzz_run_is_clean():
    assert fuzz(seed=42, iterations=25).ok


def test_success_leaves_no_dumps(tmp_path):
    fuzz(seed=42, iterations=3, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_failure_is_dumped_as_replayable_scenario(tmp_path, monkeypatch):
    real = run_scenario
    calls = {"n": 0}

    def flaky(scenario, mode="both", **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            return [DivergenceReport(step_index=3, client="A", missing=["obj X"])]
        return real(scenario, mode=mode, **kwargs)

    monkeypatch.setattr(fuzz_module, "run_scenario", flaky)
    summary = fuzz(seed=5, iterations=3, out_dir=tmp_path)
    assert not summary.ok
    assert len(summary.failures) == 1
    failure = summary.failures[0]
    assert failure.iteration == 1
    assert "divergence" in failure.reason
    dump = tmp_path / "fail_0001.scn"
    assert str(dump) == failure.dump_path
    text = dump.read_text()
    assert text.startswith("# seed 5 iteration 1\n")
    # the dump replays: it parses and runs (for real this time)
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    assert real(parse_scenario(body), mode="both") == []
    assert "iteration 1" in summary.render()


def test_generated_scenarios_share_one_schema():
    import random

    rng = random.Random(3)
    first, second = (fuzz_module._Generator(rng, FuzzBounds()).build() for _ in range(2))
    assert first.schema is second.schema
    assert first.schema.classes == social_schema().classes


def test_a_stale_memoised_element_set_fails_the_run(monkeypatch):
    # memoise every walk with element counts that also hold a vertex on
    # none of its paths, as if kept from before a delete; the paths stay
    # exact, the syncs and sweeps deliver and keep the same, and the
    # check's fresh walks are untouched
    evaluate = paths_module.evaluate

    def with_a_ghost(expr, g, *, user=None):
        paths = evaluate(expr, g, user=user)
        paths.counts = {**paths.counts, "ghost": 1}
        return paths

    monkeypatch.setattr(paths_module, "evaluate", with_a_ghost)
    summary = fuzz(seed=42, iterations=5)
    assert summary.failures
    reason = summary.failures[0].reason
    assert "stale memoised walks: step " in reason
    assert " store: {user}." in reason


def test_a_stale_memoised_walk_fails_the_run(monkeypatch):
    # keep every walk whatever a mutation touched; member sets stay exact
    forget = WalkMemo.forget

    def keep_walks(self, *args):
        kept = dict(self)
        forget(self, *args)
        self.update(kept)

    monkeypatch.setattr(WalkMemo, "forget", keep_walks)
    summary = fuzz(seed=42, iterations=5)
    assert summary.failures
    reason = summary.failures[0].reason
    assert "stale memoised walks: step " in reason
    assert " store: {user}." in reason


def test_stale_walks_found_before_an_engine_error_are_the_reason(monkeypatch):
    # memoise every walk with element counts stripped of its start
    # vertices: a sweep then drops the client's own objects, and a later
    # step raises on one of them, after the check found the stale walks
    evaluate = paths_module.evaluate

    def stripped(expr, g, *, user=None):
        paths = evaluate(expr, g, user=user)
        paths.counts = {e: n for e, n in paths.counts.items() if e not in paths.roots}
        return paths

    raised = []
    run = fuzz_module.run_scenario

    def recording(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        except RelsyncError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(paths_module, "evaluate", stripped)
    monkeypatch.setattr(fuzz_module, "run_scenario", recording)
    summary = fuzz(seed=42, iterations=1)
    assert raised  # the scenario ended in an engine error
    assert "stale memoised walks: step " in summary.failures[0].reason


def test_a_stale_part_of_a_walk_of_several_starts_fails_the_run(monkeypatch):
    # every client also reads a feed of every event, a walk of several
    # starts once there are several events
    feed = parse_expression("Event.Participation.Identity")
    build = fuzz_module._Generator.build

    def with_a_feed(self):
        scenario = build(self)
        for decl in scenario.clients.values():
            decl.exprs.append(feed)
        return scenario

    monkeypatch.setattr(fuzz_module._Generator, "build", with_a_feed)
    assert fuzz(seed=42, iterations=5).failures == []

    # memoise each such walk with a read map that also lists one start's
    # node under a vertex no node reads; the paths, counts and tree, all
    # that the syncs and sweeps read, stay exact, so only the check of the
    # read map sees it
    evaluate = paths_module.evaluate

    def with_a_ghost_part(expr, g, *, user=None):
        paths = evaluate(expr, g, user=user)
        roots = paths.roots if expr == feed else {}
        if len(roots) > 1:
            paths.reads = {**paths.reads, "ghost": roots[min(roots)]}
        return paths

    monkeypatch.setattr(paths_module, "evaluate", with_a_ghost_part)
    summary = fuzz(seed=42, iterations=5)
    assert summary.failures
    reason = summary.failures[0].reason
    assert "stale memoised walks: step " in reason
    assert "Event.Participation.Identity user=None" in reason
