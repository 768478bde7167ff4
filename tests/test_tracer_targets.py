"""The benchmark tracer's patch targets.

`bench/tracer.py` wraps relsync functions by the names they are looked up
under.  A rename or a bypass in relsync would otherwise surface only in a
traced bench run; these checks make it fail in the unit suite.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from relsync.paths import relevant_paths
from relsync.runner import run_scenario
from relsync.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("tracer")


def test_every_target_is_patched_and_restored(tracer):
    t = tracer.Tracer()
    # install looks up every target, so a missing name raises here
    t.install()
    try:
        # the tracer's own record of what it replaced
        saved = list(t._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        t.uninstall()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_path_spans_stay_on_the_sync_path(tracer):
    scenario = load_scenario(ROOT / "scenarios" / "social_event.scn")
    with tracer.Tracer() as t:
        assert run_scenario(scenario, mode="both") == []
    for span in (
        "paths.graph_build",
        "paths.evaluate",
        "paths.relevant_paths",
        "sync.timestamp_sync",
        "replica.gc_sweep",
    ):
        assert t.calls(span) > 0, span
    assert t.counts["sync.paths"] > 0
    # the paths of each timestamp sync, which in `both` mode is every sync
    # with a shadow, counted by an untraced replay: the store does not
    # change between a sync and its hook
    walked = []

    def count_paths(ctx, index, client, applied, shadow):
        if shadow is not None:
            decl = ctx.scenario.clients[client]
            paths = relevant_paths(ctx.scenario.schema, ctx.store.data, decl.exprs, user=decl.root)
            walked.append(len(frozenset(paths)))

    assert run_scenario(scenario, mode="both", on_sync=count_paths) == []
    assert t.counts["sync.paths"] == sum(walked)
