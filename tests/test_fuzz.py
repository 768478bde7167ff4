"""Fuzzer: deterministic generation, bound respect, failure dumps."""

from __future__ import annotations

import relsync.fuzz as fuzz_module
from relsync.fuzz import FuzzBounds, fuzz, social_schema
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
