"""Behaviour fingerprint: one digest over everything a run shows.

A refactor of the engine must leave every delta, replica and report the
same, byte for byte.  This test runs 300 generated scenarios in all three
modes and hashes what they produce: each sync's applied and shadow deltas
and the replica's dump right after it, every divergence report, and the
final change-log dump.  The digest is pinned; a change that moves it
changes behaviour and must say so.  Everything hashed is rendered in a
canonical order, so the digest does not depend on the hash seed; a second
test recomputes it in a child interpreter under another `PYTHONHASHSEED`.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from relsync.delta import render_delta
from relsync.fuzz import FuzzBounds, _Generator
from relsync.runner import MODES, run_scenario

FINGERPRINT_SEED = 20260
SCENARIOS = 300
PINNED = "5273f6beceaeca7fed31ad8a7a9578d0201b4e5c4b2149c7651a257b4e855701"


def fingerprint() -> str:
    rng = random.Random(FINGERPRINT_SEED)
    scenarios = [_Generator(rng, FuzzBounds()).build() for _ in range(SCENARIOS)]
    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")

    for number, scenario in enumerate(scenarios):
        for mode in MODES:
            feed(f"scenario {number} mode {mode}")
            stores = []

            def hook(ctx, index, client, applied, shadow):
                feed(f"sync {index} {client}")
                feed(render_delta(applied))
                feed("-" if shadow is None else render_delta(shadow))
                feed(ctx.replicas[client].dump())
                stores[:] = [ctx.store]

            for report in run_scenario(scenario, mode=mode, on_sync=hook):
                feed(report.render())
            feed(stores[0].log.dump() if stores else "-")
    return digest.hexdigest()


def test_behaviour_matches_the_pinned_fingerprint():
    assert fingerprint() == PINNED


def test_fingerprint_does_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    # a seed other than this process's, if it has a fixed one
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([str(src), str(here)])
    )
    out = subprocess.run(
        [sys.executable, "-c", "from test_fingerprint import fingerprint; print(fingerprint())"],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert out.stdout.strip() == PINNED
