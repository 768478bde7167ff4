"""Path-expression syntax: parser, canonical renderer, filter semantics."""

from __future__ import annotations

import pytest

from relsync.errors import ExpressionSyntaxError
from relsync.expr import (
    ClassAll,
    ClassFilter,
    InstanceSet,
    PathExpr,
    parse_expression,
    render_expression,
    render_literal,
    satisfies_filter,
)
from relsync.model import freeze_state


class TestParse:
    def test_instance_root_with_segments(self):
        expr = parse_expression("{user}.Contact.contactIdentity")
        assert expr.root == InstanceSet(("user",))
        assert expr.segments == ("Contact", "contactIdentity")

    def test_multi_reference_root(self):
        expr = parse_expression("{I1,I2,I3}")
        assert expr.root == InstanceSet(("I1", "I2", "I3"))
        assert expr.segments == ()

    def test_class_root(self):
        assert parse_expression("Identity").root == ClassAll("Identity")

    @pytest.mark.parametrize(
        "text,literal",
        [
            ('Identity[name="ana"]', "ana"),
            ("Event[size<3]", 3),
            ("Event[size>-2]", -2),
            ("Contact[flag!=true]", True),
            ("Contact[flag=false]", False),
            ('Identity[name="say \\"hi\\" \\\\ok"]', 'say "hi" \\ok'),
        ],
    )
    def test_filter_literals(self, text, literal):
        root = parse_expression(text).root
        assert isinstance(root, ClassFilter)
        assert root.literal == literal

    def test_whitespace_is_insignificant_outside_strings(self):
        spaced = parse_expression(' { user } . Contact . contactIdentity ')
        assert spaced == parse_expression("{user}.Contact.contactIdentity")
        quoted = parse_expression('Identity[ name = "a b" ]')
        assert quoted.root.literal == "a b"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{}",
            "{user}..Contact",
            "{user}.",
            "{user",
            "Identity[",
            "Identity[name=]",
            "Identity[name==3]",
            "Identity[name<=3]",
            "Identity[name!3]",
            'Identity[name="open]',
            'Identity[name="bad\\n"]',
            "Identity]",
            "{user} Contact",
            "Identity[name=-]",
            "Identity[name=maybe]",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression(text)

    def test_error_carries_position(self):
        with pytest.raises(ExpressionSyntaxError, match=r"at position \d+"):
            parse_expression("{user}..Contact")

    def test_unknown_comparator_message(self):
        with pytest.raises(ExpressionSyntaxError, match="comparator"):
            parse_expression("Identity[name==3]")


class TestRender:
    @pytest.mark.parametrize(
        "text,canonical",
        [
            (" { user } . Contact ", "{user}.Contact"),
            ("Identity [ size > 3 ] . peer", "Identity[size>3].peer"),
            ('Identity[name="a\\"b"]', 'Identity[name="a\\"b"]'),
            ("{ I1 , I2 }", "{I1,I2}"),
        ],
    )
    def test_canonical_form_drops_whitespace(self, text, canonical):
        assert render_expression(parse_expression(text)) == canonical

    def test_roundtrip_is_identity(self):
        samples = [
            "{user}.Participation.Event.Participation.Identity",
            'Contact[flag=true]',
            "Event[size<-7].Participation",
            '{a,b}.kin.kin',
        ]
        for text in samples:
            expr = parse_expression(text)
            assert parse_expression(render_expression(expr)) == expr

    def test_render_literal_bool_before_int(self):
        # True is an int in Python; the renderer must not print "1"
        assert render_literal(True) == "true"
        assert render_literal(False) == "false"
        assert render_literal(1) == "1"
        assert render_literal("x\\y") == '"x\\\\y"'


class TestFilterSemantics:
    def filt(self, comparator, literal):
        return ClassFilter("Any", "k", comparator, literal)

    def test_missing_attribute_fails_everything(self):
        for cmp in ("=", "!=", "<", ">"):
            assert not satisfies_filter((), self.filt(cmp, 1))

    def test_type_mismatch_is_unequal_but_unordered(self):
        state = freeze_state({"k": "three"})
        assert satisfies_filter(state, self.filt("!=", 3))
        assert not satisfies_filter(state, self.filt("=", 3))
        assert not satisfies_filter(state, self.filt("<", 3))
        assert not satisfies_filter(state, self.filt(">", 3))

    def test_bool_is_not_an_int(self):
        assert satisfies_filter(freeze_state({"k": True}), self.filt("!=", 1))
        assert not satisfies_filter(freeze_state({"k": 1}), self.filt("=", True))

    def test_bools_are_not_ordered(self):
        assert not satisfies_filter(freeze_state({"k": False}), self.filt("<", True))
        assert satisfies_filter(freeze_state({"k": False}), self.filt("!=", True))

    def test_int_and_str_ordering(self):
        assert satisfies_filter(freeze_state({"k": 2}), self.filt("<", 3))
        assert satisfies_filter(freeze_state({"k": 2}), self.filt(">", -1))
        assert satisfies_filter(freeze_state({"k": "apple"}), self.filt("<", "pear"))
        assert not satisfies_filter(freeze_state({"k": "apple"}), self.filt(">", "pear"))

    def test_equality(self):
        assert satisfies_filter(freeze_state({"k": "ana"}), self.filt("=", "ana"))
        assert not satisfies_filter(freeze_state({"k": "ana"}), self.filt("!=", "ana"))

    def test_the_attribute_is_found_among_the_others(self):
        state = freeze_state({"z": 3, "k": 2, "a": 1})
        assert satisfies_filter(state, self.filt("=", 2))
        assert not satisfies_filter(freeze_state({"z": 3, "a": 2}), self.filt("=", 2))


def test_expr_dataclasses_are_hashable():
    a = PathExpr(InstanceSet(("user",)), ("Contact",))
    b = PathExpr(InstanceSet(("user",)), ("Contact",))
    assert len({a, b}) == 1
