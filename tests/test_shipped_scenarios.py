"""Shipped scenarios, byte for byte: `relsync run --dump-deltas` in every mode.

Each (scenario, mode) run is hashed: its exit code, its stdout, and every
delta file it dumps, by name.  The digests are pinned.  A change that moves
one changes what a shipped scenario shows and must say so; a change meant to
be behaviour-neutral moves none.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from relsync.cli import main
from relsync.runner import MODES

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# The filter-root witnesses pin today's divergence (exit 1 in timestamp and
# both modes); a change that closes that hole re-pins their entries.
PINNED = {
    ("delete_contact", "timestamp"):
        "1519fd69708533176ccfe8b1168687700ba1d913ee64f3a5921b792b682e4822",
    ("delete_contact", "oracle"):
        "99f7501f91672edeee25b1c3306c5a0bf1b5dc59227ca2e599b0403758f8b032",
    ("delete_contact", "both"):
        "3945c64d0331f8eef1d512bd949fc62983e9b65e439e9bbabf61419e5fc869ec",
    ("deletion_broadcast", "timestamp"):
        "4dc97ec85c574c09f6455ac246dbbec9251eeaa0513fc7a120c4a4fd44f5f3bf",
    ("deletion_broadcast", "oracle"):
        "ef8d2787b0a1099408fb621d2a3df2aa86513b6c8929dbb0b0c94dd570157781",
    ("deletion_broadcast", "both"):
        "ce5963de6b4b71f7cb5010c908f00e58ab82dc359776c2a27f27403ed5179ca1",
    ("filter_root_entering", "timestamp"):
        "8f4c5296391c97a1c862439fd84757c7062e042ada21c34318438554b7d08ae7",
    ("filter_root_entering", "oracle"):
        "c3c41d261d1ee3e2da22deccc68aa5c713b0a3a03471366b389a7e3605d00dc5",
    ("filter_root_entering", "both"):
        "af0b5510f20d2160a412f8d017f427a4e81fb02ccb856a2f70ea5f17d9bc605e",
    ("filter_root_leaving", "timestamp"):
        "588fd8c9c3a298ecd3fde765dfccc4a84055229e7a3068f5c353e716bbbde977",
    ("filter_root_leaving", "oracle"):
        "e1b1a2e05b34d95f337d21a2e15630429f8b5377513ea690cab08154bcb726cc",
    ("filter_root_leaving", "both"):
        "190bdf4037614ad3b8f215c457925867a02bc7af59c8fef8d4adf1c91e45b067",
    ("social_event", "timestamp"):
        "4b1a8d8fb19dfb8c2dc0f6a63753fa110ee0e747c09d09c91a561c87546be4c4",
    ("social_event", "oracle"):
        "e4f9e053e8afd81e3a8ebeaa2eabf6a85f7382f7fc8672fce3ea937212b830ba",
    ("social_event", "both"):
        "a0fa389d2a8e4ae60cc5535741c6debd95a9b3b98ac34f6eeec37b14e2c7edad",
}


def run_digest(scenario: Path, mode: str, out_dir: Path, capsys) -> str:
    code = main(["run", str(scenario), "--mode", mode, "--dump-deltas", str(out_dir)])
    digest = hashlib.sha256(f"exit {code}\0{capsys.readouterr().out}".encode())
    for path in sorted(out_dir.iterdir()) if out_dir.exists() else []:
        digest.update(f"\0{path.name}\0".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_every_shipped_scenario_is_pinned_in_every_mode():
    runs = {(path.stem, mode) for path in SCENARIO_DIR.glob("*.scn") for mode in MODES}
    assert runs == set(PINNED)


@pytest.mark.parametrize("name, mode", sorted(PINNED), ids="-".join)
def test_shipped_run_matches_its_pin(name, mode, tmp_path, capsys):
    scenario = SCENARIO_DIR / f"{name}.scn"
    assert run_digest(scenario, mode, tmp_path / "deltas", capsys) == PINNED[name, mode]
