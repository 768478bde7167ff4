"""Scenario DSL: parsing, rendering, and the parse→render→parse round trip."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from relsync.errors import ScenarioParseError
from relsync.expr import (
    ClassAll,
    ClassFilter,
    InstanceSet,
    PathExpr,
    parse_expression,
    render_expression,
)
from relsync.fuzz import FuzzBounds, _Generator
from relsync.model import CreateLink, CreateObject, DeleteObject, Link, Schema, UpdateState
from relsync.scenario import (
    AssertConvergedStep,
    AssertDeltaStep,
    ClientDecl,
    PushStep,
    Scenario,
    SyncStep,
    TxStep,
    load_scenario,
    parse_scenario,
    render_mutation,
    render_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
class Identity
class Contact
assoc Ownership Identity:owner -- Contact:Contact
client A root=I1 expr="{user}.Contact"

tx
  create I1 Identity {name="ana"}
  create C1 Contact {}
  link I1 Ownership C1
end
sync A
assert-converged A
"""


class TestParse:
    def test_minimal_scenario(self):
        s = parse_scenario(MINIMAL)
        assert s.schema.classes == {"Identity", "Contact"}
        assert list(s.schema.assocs) == ["Ownership"]
        assert list(s.clients) == ["A"]
        decl = s.clients["A"]
        assert decl.root == "I1"
        assert decl.exprs == [parse_expression("{user}.Contact")]
        kinds = [type(step) for step in s.steps]
        assert kinds == [TxStep, SyncStep, AssertConvergedStep]
        tx = s.steps[0]
        assert tx.mutations == [
            CreateObject.make("I1", "Identity", {"name": "ana"}),
            CreateObject.make("C1", "Contact"),
            CreateLink(Link("I1", "C1", "Ownership")),
        ]

    def test_shipped_fixture_scenario_loads(self):
        s = load_scenario("scenarios/social_event.scn")
        assert len(s.schema.classes) == 4
        assert len(s.schema.assocs) == 4
        assert len(s.clients["A"].exprs) == 2
        assert sum(isinstance(st, TxStep) for st in s.steps) == 3

    def test_multiple_expressions_and_escapes(self):
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}" expr="Identity[name=\\"a b\\"]"\n'
            "sync A\n"
        )
        decl = parse_scenario(text).clients["A"]
        assert decl.exprs == [
            parse_expression("{user}"),
            parse_expression('Identity[name="a b"]'),
        ]

    def test_sync_oracle_keyword(self):
        text = MINIMAL.replace("sync A", "sync-oracle A")
        step = parse_scenario(text).steps[1]
        assert isinstance(step, SyncStep) and step.use_oracle

    def test_push_step(self):
        text = MINIMAL + 'push A update I1 {name="new"}\n'
        step = parse_scenario(text).steps[-1]
        assert step == PushStep("A", UpdateState.make("I1", {"name": "new"}))

    def test_assert_delta_block(self):
        text = MINIMAL + (
            "assert-delta A\n"
            "  ts_cs 2\n"
            "  del-obj C1\n"
            "end\n"
        )
        step = parse_scenario(text).steps[-1]
        assert isinstance(step, AssertDeltaStep)
        assert step.expected.ts_cs == 2
        assert step.expected.del_objects == {"C1"}

    def test_comments_and_blank_lines(self):
        text = (
            "# a scenario\n"
            "class Identity   # the only class\n"
            "\n"
            'client A root=I1 expr="{user}"\n'
            "tx\n"
            '  create I1 Identity {name="#notacomment"}\n'
            "end\n"
        )
        s = parse_scenario(text)
        assert s.steps[0].mutations[0].state_dict() == {"name": "#notacomment"}


class TestParseErrors:
    def err(self, text) -> ScenarioParseError:
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        return info.value

    def test_empty_input(self):
        assert "no schema block" in str(self.err(""))

    def test_unknown_class_in_create_carries_line_number(self):
        text = "class Identity\ntx\n  create X1 Spaceship {}\nend\n"
        assert "line 3" in str(self.err(text))

    def test_unknown_association_in_link(self):
        text = (
            "class Identity\n"
            "tx\n"
            "  create I1 Identity {}\n"
            "  create I2 Identity {}\n"
            "  link I1 Friends I2\n"
            "end\n"
        )
        message = str(self.err(text))
        assert "Friends" in message and "line 5" in message

    def test_declarations_after_steps(self):
        text = "class Identity\ntx\nend\nclass Contact\n"
        assert "precede" in str(self.err(text))

    def test_unknown_client(self):
        assert "unknown client" in str(self.err("class Identity\nsync A\n"))

    def test_duplicate_client(self):
        text = (
            "class Identity\n"
            'client A root=I1 expr="{user}"\n'
            'client A root=I2 expr="{user}"\n'
        )
        assert "duplicate client" in str(self.err(text))

    def test_client_without_expression(self):
        assert "expr" in str(self.err("class Identity\nclient A root=I1\n"))

    def test_client_without_root(self):
        assert "root" in str(self.err('class Identity\nclient A expr="{user}"\n'))

    def test_unclosed_tx_block_points_at_its_start(self):
        text = "class Identity\ntx\n  create I1 Identity {}\n"
        message = str(self.err(text))
        assert "never closed" in message and "line 2" in message

    def test_unclosed_assert_delta_block_points_at_its_start(self):
        text = MINIMAL + "assert-delta A\n  ts_cs 1\n"
        error = self.err(text)
        assert error.line == MINIMAL.count("\n") + 1
        assert "never closed" in str(error)

    def test_unknown_keyword(self):
        assert "unknown keyword" in str(self.err("class Identity\nfrobnicate\n"))

    def test_bad_state_in_push_is_a_parse_error_with_line(self):
        text = MINIMAL + "push A update I1 {name=}\n"
        message = str(self.err(text))
        assert "line 13" in message and "state syntax" in message

    def test_bad_expression_in_client_decl(self):
        text = 'class Identity\nclient A root=I1 expr="{user}..x"\n'
        assert "line 2" in str(self.err(text))

    def test_bad_expected_delta(self):
        text = MINIMAL + "assert-delta A\n  nonsense\nend\n"
        assert "bad expected delta" in str(self.err(text))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("class Identity\nclass Contact Event\n", 2),
            ("class Identity\nassoc Own Identity:owner Identity:peer\n", 2),
            ('class Identity\nclient A root=I1 colour=red expr="{user}"\n', 2),
            ('class Identity\nclient A root=I1 expr="{user}\n', 2),
            ("class Identity\ntx\n  create I1 Identity {}\n  frobnicate I1\nend\n", 4),
            (MINIMAL + "push A create I9 Spaceship {}\n", 13),
            ("class Identity\n\nsync A\n", 3),
            ('class Identity\nclient a=b root=I1 expr="{user}"\n', 2),
            ('class Identity\nclient A root="I 1" expr="{user}"\n', 2),
        ],
        ids=[
            "class",
            "assoc",
            "client-attribute",
            "client-quote",
            "tx-mutation",
            "push",
            "sync-unknown-client",
            "client-name",
            "client-root",
        ],
    )
    def test_each_line_kind_names_its_line(self, text, line):
        assert self.err(text).line == line


def assert_round_trips(s: Scenario) -> None:
    """What the renderer writes, the parser reads back to the same scenario."""
    rendered = render_scenario(s)
    parsed = parse_scenario(rendered)
    assert render_scenario(parsed) == rendered
    assert [d.exprs for d in parsed.clients.values()] == [
        d.exprs for d in s.clients.values()
    ]


# Every root form; the string literals carry each character the scenario
# and expression formats treat specially.
STRINGS = ['say "hi"', "back\\slash", "#tag", "two words", "x]y", '\\"#] ', ""]
ROOTS = [InstanceSet(("user",)), InstanceSet(("I1", "I2")), ClassAll("Identity")] + [
    ClassFilter("Identity", "k", comparator, literal)
    for comparator in ("=", "!=", "<", ">")
    for literal in (-3, 7, True, False, *STRINGS)
]


class TestRender:
    def test_mutation_forms(self):
        assert render_mutation(CreateObject.make("I1", "Identity")) == (
            "create I1 Identity {}"
        )
        assert render_mutation(
            CreateObject.make("I1", "Identity", {"name": 'a"b', "vip": True})
        ) == 'create I1 Identity {name="a\\"b",vip=true}'
        assert render_mutation(UpdateState.make("I1", {"k": -2})) == "update I1 {k=-2}"
        assert render_mutation(DeleteObject("I1")) == "delete I1"
        assert render_mutation(CreateLink(Link("a", "b", "R"))) == "link a R b"

    def test_roundtrip_is_byte_stable(self):
        rendered = render_scenario(parse_scenario(MINIMAL))
        assert render_scenario(parse_scenario(rendered)) == rendered

    def test_roundtrip_of_shipped_scenarios(self):
        paths = sorted(SCENARIO_DIR.glob("*.scn"))
        assert paths
        for path in paths:
            assert_round_trips(load_scenario(path))

    def test_roundtrip_of_generated_scenarios(self):
        rng = random.Random(20260)
        for _ in range(300):
            assert_round_trips(_Generator(rng, FuzzBounds()).build())

    @pytest.mark.parametrize("root", ROOTS, ids=lambda root: render_expression(PathExpr(root, ())))
    def test_roundtrip_of_every_root_form(self, root):
        exprs = [PathExpr(root, ()), PathExpr(root, ("Contact", "owner"))]
        decl = ClientDecl(name="A", root="I1", exprs=exprs)
        assert_round_trips(Scenario(Schema({"Identity"}), {"A": decl}))

    def test_render_quotes_expressions(self):
        s = parse_scenario(MINIMAL)
        assert 'expr="{user}.Contact"' in render_scenario(s)
