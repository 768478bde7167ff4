"""Delta payloads: canonical text form and its round-trip parser."""

from __future__ import annotations

import pytest

from relsync.delta import DeltaSet, parse_delta, parse_state, render_delta, render_state
from relsync.errors import ScenarioParseError
from relsync.model import Link


def sample_delta() -> DeltaSet:
    d = DeltaSet(ts_cs=7)
    d.crt_objects = {("C2", "Contact"), ("I9", "Identity")}
    d.upd_objects = {"I1"}
    d.del_objects = {"E9"}
    d.crt_links = {Link("I1", "C2", "Ownership"), Link("C2", "I9", "Reference")}
    d.del_links = {Link("I1", "C1", "Ownership")}
    d.states = {"C2": {"nick": "new"}, "I9": {}, "I1": {"name": "ana", "vip": True}}
    return d


EXPECTED = """\
ts_cs 7
crt-obj C2 Contact {nick="new"}
crt-obj I9 Identity {}
upd-obj I1 {name="ana",vip=true}
del-obj E9
crt-link C2 Reference I9
crt-link I1 Ownership C2
del-link I1 Ownership C1
"""


def test_render_is_canonical_and_sorted():
    assert render_delta(sample_delta()) == EXPECTED


def test_render_parse_roundtrip():
    d = parse_delta(EXPECTED)
    assert render_delta(d) == EXPECTED
    assert d.ts_cs == 7
    assert d.crt_objects == {("C2", "Contact"), ("I9", "Identity")}
    assert d.states["I1"] == {"name": "ana", "vip": True}
    assert d.del_links == {Link("I1", "C1", "Ownership")}


def test_empty_delta():
    d = DeltaSet(ts_cs=3)
    assert d.is_empty()
    assert render_delta(d) == "ts_cs 3\n"
    assert parse_delta("ts_cs 3\n").is_empty()


def test_deletions_alone_make_a_delta_nonempty():
    d = DeltaSet(ts_cs=1)
    d.del_objects = {"X"}
    assert not d.is_empty()


class TestStateFormat:
    def test_render_sorts_keys_and_quotes_strings(self):
        assert render_state({"b": 1, "a": "x y", "c": False}) == '{a="x y",b=1,c=false}'
        assert render_state({}) == "{}"

    def test_parse_state_roundtrip(self):
        for state in ({}, {"k": 1}, {"s": 'qu"ote', "n": -4, "f": True}):
            assert parse_state(render_state(state)) == state

    @pytest.mark.parametrize(
        "bad",
        ["", "{", "{k=}", "{k=1", "{k=1} extra", "k=1", "{k=1,,}", '{k="a}'],
    )
    def test_parse_state_rejects_malformed(self, bad):
        with pytest.raises(ScenarioParseError):
            parse_state(bad)


class TestDeltaParseErrors:
    def test_missing_header(self):
        with pytest.raises(ScenarioParseError):
            parse_delta("crt-obj I1 Identity {}\n")

    def test_unknown_line_kind(self):
        with pytest.raises(ScenarioParseError):
            parse_delta("ts_cs 1\nmov-obj I1\n")

    def test_bad_link_shape(self):
        with pytest.raises(ScenarioParseError):
            parse_delta("ts_cs 1\ncrt-link I1 Ownership\n")

    @pytest.mark.parametrize("rest", ["", " A B"])
    def test_del_obj_takes_exactly_one_id(self, rest):
        with pytest.raises(ScenarioParseError, match="bad delta line"):
            parse_delta(f"ts_cs 3\ndel-obj{rest}\n")
