"""Command-line interface: exit codes and output shapes."""

from __future__ import annotations

import pytest

from relsync.cli import main, render_path
from relsync.model import Link

DIVERGING = """\
class Identity
client A root=I1 expr="{user}"

tx
  create I1 Identity {name="ana"}
end
assert-delta A
  ts_cs 1
  crt-obj I1 Identity {name="wrong"}
end
"""


class TestRun:
    def test_converging_scenario_exits_zero(self, capsys):
        assert main(["run", "scenarios/social_event.scn"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("converged:")
        assert "mode both" in out

    @pytest.mark.parametrize("mode", ["timestamp", "oracle", "both"])
    def test_mode_flag(self, mode, capsys):
        assert main(["run", "scenarios/delete_contact.scn", "--mode", mode]) == 0
        assert f"mode {mode}" in capsys.readouterr().out

    def test_divergence_exits_one_and_prints_reports(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(DIVERGING)
        assert main(["run", str(scn)]) == 1
        out = capsys.readouterr().out
        assert "divergence: 1 reports" in out
        assert "missing" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "scenarios/nope.scn"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_parse_error_exits_two(self, tmp_path, capsys):
        scn = tmp_path / "broken.scn"
        scn.write_text("class Identity\nfrobnicate\n")
        assert main(["run", str(scn)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "line 2" in err

    def test_dump_deltas_flag_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "deltas"
        assert main(
            ["run", "scenarios/social_event.scn", "--dump-deltas", str(out_dir)]
        ) == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["003_A.delta", "003_A_oracle.delta"]


class TestFuzz:
    def test_clean_run(self, capsys):
        assert main(["fuzz", "--seed", "7", "--iterations", "5"]) == 0
        assert capsys.readouterr().out == "seed 7 iterations 5 failures 0\n"

    def test_max_objects_flag(self, capsys):
        assert main(
            ["fuzz", "--seed", "3", "--iterations", "3", "--max-objects", "10"]
        ) == 0

    def test_seed_is_required(self):
        with pytest.raises(SystemExit) as info:
            main(["fuzz", "--iterations", "5"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--iterations", "-3"],
            ["--iterations", "0"],
            ["--iterations", "2", "--max-objects", "-4"],
            ["--iterations", "2", "--max-objects", "0"],
        ],
    )
    def test_counts_must_be_positive(self, flags, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fuzz", "--seed", "1", *flags])
        assert info.value.code == 2
        assert "must be positive" in capsys.readouterr().err


class TestEvalPaths:
    def test_fixture_contact_path(self, capsys):
        assert main(
            [
                "eval-paths",
                "scenarios/social_event.scn",
                "--user",
                "I1",
                "--expr",
                "{user}.Contact.contactIdentity",
            ]
        ) == 0
        assert capsys.readouterr().out == "I1 -Ownership- C1 -Reference- I2\n"

    def test_event_paths_are_sorted(self, capsys):
        assert main(
            [
                "eval-paths",
                "scenarios/social_event.scn",
                "--user",
                "I1",
                "--expr",
                "{user}.Participation.Event.Participation.Identity",
            ]
        ) == 0
        assert capsys.readouterr().out == (
            "I1 -Attendance- P1 -Enrollment- E1 -Enrollment- P2 -Attendance- I2\n"
            "I1 -Attendance- P1 -Enrollment- E1 -Enrollment- P3 -Attendance- I3\n"
        )

    def test_class_root_needs_no_user(self, capsys):
        # a walk with no segment: each start is a path alone
        assert main(["eval-paths", "scenarios/social_event.scn", "--expr", "Event"]) == 0
        assert capsys.readouterr().out == "E1\n"

    def test_user_root_without_a_user_exits_two(self, capsys):
        assert main(["eval-paths", "scenarios/social_event.scn", "--expr", "{user}.Contact"]) == 2
        err = capsys.readouterr().err
        assert "expression uses 'user' but no binding was given" in err

    def test_dead_end_with_a_segment_left(self, capsys):
        # I2 owns no contact: the start is a path that nothing extends
        assert main(
            ["eval-paths", "scenarios/social_event.scn", "--user", "I2", "--expr", "{user}.Contact"]
        ) == 0
        assert capsys.readouterr().out == "I2\n"

    def test_bad_expression_exits_two(self, capsys):
        assert main(
            ["eval-paths", "scenarios/social_event.scn", "--user", "I1", "--expr", "{"]
        ) == 2
        assert "error:" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_render_path_shape():
    p = ("I1", Link("I1", "C1", "Ownership"), "C1")
    assert render_path(p) == "I1 -Ownership- C1"
    assert render_path(("I1",)) == "I1"
