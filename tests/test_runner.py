"""Scenario runner: engine selection, convergence checks, delta goldens."""

from __future__ import annotations

import pytest

from relsync import runner
from relsync.delta import DeltaSet
from relsync.errors import ScenarioRuntimeError
from relsync.runner import DivergenceReport, run_scenario
from relsync.scenario import load_scenario, parse_scenario

CONTACT_SCENARIO = """\
class Identity
class Contact
assoc Ownership Identity:owner -- Contact:Contact
assoc Reference Contact:reference -- Identity:contactIdentity
client A root=I1 expr="{user}.Contact.contactIdentity"

tx
  create I1 Identity {name="ana"}
  create I2 Identity {name="bo"}
  create C1 Contact {}
  link I1 Ownership C1
  link C1 Reference I2
end
sync A
assert-converged A
tx
  delete C1
end
sync A
assert-converged A
"""


class TestModes:
    @pytest.mark.parametrize("mode", ["timestamp", "oracle", "both"])
    def test_contact_lifecycle_converges_in_every_mode(self, mode):
        reports = run_scenario(parse_scenario(CONTACT_SCENARIO), mode=mode)
        assert reports == []

    def test_shipped_scenarios_converge(self):
        for name in ("social_event", "delete_contact", "deletion_broadcast"):
            scenario = load_scenario(f"scenarios/{name}.scn")
            assert run_scenario(scenario, mode="both") == [], name

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: an update that flips a filter root's test is not delivered",
    )
    @pytest.mark.parametrize("name", ["filter_root_entering", "filter_root_leaving"])
    def test_filter_root_witnesses_converge(self, name):
        scenario = load_scenario(f"scenarios/{name}.scn")
        assert run_scenario(scenario, mode="both") == []

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            run_scenario(parse_scenario(CONTACT_SCENARIO), mode="psychic")


class TestConvergenceChecks:
    def test_assert_converged_before_any_sync_reports_everything(self):
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}"\n'
            "tx\n"
            '  create I1 Identity {}\n'
            "end\n"
            "assert-converged A\n"
        )
        reports = run_scenario(parse_scenario(text), mode="timestamp")
        assert len(reports) == 1
        report = reports[0]
        assert report.step_index == 1 and report.client == "A"
        assert report.missing == ["obj I1"]
        assert "1 missing" in report.render()

    def test_an_assert_reuses_the_diff_of_its_clients_last_sync(self, monkeypatch):
        calls = []
        compare = runner.compare_replica

        def counted(ctx, client, rel=None):
            calls.append((client, rel is None))
            return compare(ctx, client, rel)

        monkeypatch.setattr(runner, "compare_replica", counted)
        text = CONTACT_SCENARIO.replace(
            'client A root=I1 expr="{user}.Contact.contactIdentity"',
            'client A root=I1 expr="{user}.Contact.contactIdentity"\n'
            'client B root=I2 expr="{user}"',
        ) + (
            "sync B\n"
            "assert-converged A\n"  # B's sync changed nothing of A's
            "tx\n"
            '  create I3 Identity {name="cy"}\n'
            "end\n"
            "assert-converged A\n"  # a commit may move every slice
            "sync A\n"
            'push A update I1 {name="ann"}\n'
            "assert-converged A\n"  # so may a push
        )
        assert run_scenario(parse_scenario(text), mode="both") == []
        # one diff per sync, and a fresh one only for the asserts after
        # the commit and after the push
        assert calls == [
            ("A", False), ("A", False), ("B", False), ("A", True), ("A", False), ("A", True),
        ]

    def test_a_reused_divergence_is_reported_at_the_asserts_index(self):
        # The snapshot oracle's documented blind spot: the client pushed a
        # value, the server reverted it to what the last slice held, and the
        # oracle's diff sees nothing to send.
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}"\n'
            "tx\n"
            '  create I1 Identity {name="a"}\n'
            "end\n"
            "sync-oracle A\n"
            'push A update I1 {name="b"}\n'
            "tx\n"
            '  update I1 {name="a"}\n'
            "end\n"
            "sync-oracle A\n"
            "assert-converged A\n"
        )
        scenario = parse_scenario(text)
        both = run_scenario(scenario, mode="both")
        assert [r.step_index for r in both] == [4, 5]
        at_sync, at_assert = both
        assert at_sync.state_mismatches == at_assert.state_mismatches == [
            'I1 {name="b"} != {name="a"}'
        ]
        assert at_sync.render().splitlines()[1:] == at_assert.render().splitlines()[1:]
        # the timestamp mode's own check of the same replica agrees
        [alone] = run_scenario(scenario, mode="timestamp")
        assert alone.render() == at_assert.render()

    def test_assert_delta_mismatch_is_reported_as_line_diff(self):
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}"\n'
            "tx\n"
            '  create I1 Identity {name="ana"}\n'
            "end\n"
            "assert-delta A\n"
            "  ts_cs 1\n"
            '  crt-obj I1 Identity {name="typo"}\n'
            "end\n"
        )
        reports = run_scenario(parse_scenario(text), mode="timestamp")
        assert len(reports) == 1
        report = reports[0]
        assert report.missing == ['crt-obj I1 Identity {name="typo"}']
        assert report.extra == ['crt-obj I1 Identity {name="ana"}']

    def test_assert_delta_match_applies_the_delta(self):
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}"\n'
            "tx\n"
            '  create I1 Identity {name="ana"}\n'
            "end\n"
            "assert-delta A\n"
            "  ts_cs 1\n"
            '  crt-obj I1 Identity {name="ana"}\n'
            "end\n"
            "assert-converged A\n"
        )
        assert run_scenario(parse_scenario(text), mode="both") == []


class TestRuntimeErrors:
    def test_store_rejection_names_the_step(self):
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}"\n'
            "tx\n"
            "  create I1 Identity {}\n"
            "end\n"
            "tx\n"
            "  create I1 Identity {}\n"
            "end\n"
        )
        with pytest.raises(ScenarioRuntimeError, match="step 1"):
            run_scenario(parse_scenario(text), mode="timestamp")

    def test_failed_tx_aborts_and_releases_the_store(self):
        # two bad steps in sequence would deadlock if abort leaked the writer
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}"\n'
            "tx\n"
            "  update Zz {k=1}\n"
            "end\n"
        )
        with pytest.raises(ScenarioRuntimeError, match="unknown object Zz"):
            run_scenario(parse_scenario(text), mode="timestamp")


class TestPushStep:
    def test_push_flows_through_replica_to_server(self):
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}"\n'
            "tx\n"
            '  create I1 Identity {name="ana"}\n'
            "end\n"
            "sync A\n"
            'push A update I1 {name="pushed"}\n'
            "sync A\n"
            "assert-converged A\n"
        )
        assert run_scenario(parse_scenario(text), mode="both") == []


class TestHooksAndDumps:
    def test_on_sync_sees_applied_and_shadow(self):
        calls = []

        def hook(ctx, index, client, applied, shadow):
            calls.append((index, client, applied, shadow))

        run_scenario(parse_scenario(CONTACT_SCENARIO), mode="both", on_sync=hook)
        assert len(calls) == 2
        for index, client, applied, shadow in calls:
            assert client == "A"
            assert isinstance(applied, DeltaSet)
            assert isinstance(shadow, DeltaSet)  # both mode runs the oracle too

    def test_timestamp_mode_has_no_shadow(self):
        shadows = []
        run_scenario(
            parse_scenario(CONTACT_SCENARIO),
            mode="timestamp",
            on_sync=lambda ctx, i, c, a, s: shadows.append(s),
        )
        assert shadows == [None, None]

    def test_dump_dir_gets_one_file_per_sync(self, tmp_path):
        run_scenario(parse_scenario(CONTACT_SCENARIO), mode="both", dump_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        # sync steps sit at scenario indices 1 and 4
        assert names == [
            "001_A.delta",
            "001_A_oracle.delta",
            "004_A.delta",
            "004_A_oracle.delta",
        ]


def test_divergence_report_render_shape():
    report = DivergenceReport(
        step_index=4,
        client="B",
        missing=["obj X"],
        extra=["link a R b"],
        state_mismatches=['I1 {k=1} != {k=2}'],
    )
    text = report.render()
    assert text.splitlines()[0] == "step 4 client B: 1 missing, 1 extra, 1 state mismatches"
    assert "  missing obj X" in text
    assert "  extra link a R b" in text
