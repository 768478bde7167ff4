"""Relevance expression syntax: parser, AST, canonical renderer.

Concrete syntax (whitespace insignificant outside string literals):

    Expr   := Direct ("." Role)*
    Direct := "{" Ref ("," Ref)* "}"          instance set; `user` binds late
            | Class                           every object of the class
            | Class "[" Attr Cmp Literal "]"  class filtered by one attribute
    Cmp    := "=" | "!=" | "<" | ">"

Literals are double-quoted strings (with \\ and \" escapes), decimal
integers, or true/false.  The renderer emits the canonical spelling — no
spaces — and `render(parse(text))` is the canonical form of `text`.

The same reader serves every text format of the package: expressions,
literals, states (`{key=literal,...}`) and the values of scenario lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .errors import ExpressionSyntaxError
from .model import RESERVED_CHAR, Scalar, State

USER_VARIABLE = "user"


# Each root kind has the root rule, `admits(oid, cls, state, user)`:
# whether the root admits an object of class cls in that state as a start,
# `user` being what `{user}` stands for (None when unbound).  Each also
# says whether the rule reads the state: only a filter root's does, so
# only its verdict can flip on an update.
@dataclass(frozen=True)
class InstanceSet:
    refs: tuple[str, ...]
    reads_state: ClassVar[bool] = False

    def admits(self, oid: str, cls: str, state: State, user: str | None) -> bool:
        """Its refs, `{user}` resolved."""
        refs = self.refs
        if oid == user and USER_VARIABLE in refs:
            return True
        return oid != USER_VARIABLE and oid in refs


@dataclass(frozen=True)
class ClassAll:
    class_name: str
    reads_state: ClassVar[bool] = False

    def admits(self, oid: str, cls: str, state: State, user: str | None) -> bool:
        """The objects of its class."""
        return cls == self.class_name


@dataclass(frozen=True)
class ClassFilter:
    class_name: str
    attribute: str
    comparator: str  # one of = != < >
    literal: Scalar
    reads_state: ClassVar[bool] = True
    # 1 == True, yet `[k=1]` and `[k=true]` select different objects, so
    # the literal's kind takes part in equality and hashing
    kind: str = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", _value_kind(self.literal))

    def admits(self, oid: str, cls: str, state: State, user: str | None) -> bool:
        """The objects of its class whose state passes the filter."""
        return cls == self.class_name and satisfies_filter(state, self)


Direct = InstanceSet | ClassAll | ClassFilter


@dataclass(frozen=True)
class PathExpr:
    root: Direct
    segments: tuple[str, ...]
    # every walk memo probe hashes its expression, so the hash is taken once
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.root, self.segments)))

    def __hash__(self) -> int:
        return self._hash


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self, what: str) -> str:
        self.skip_ws()
        start = self.pos
        stop = RESERVED_CHAR.search(self.text, start)
        self.pos = stop.start() if stop else len(self.text)
        if self.pos == start:
            raise self.error(f"expected {what}", start)
        return self.text[start:self.pos]

    def bare(self) -> str:
        """An unquoted value: everything up to the next whitespace."""
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace():
            self.pos += 1
        return self.text[start:self.pos]

    def done(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")

    # -- grammar ------------------------------------------------------------

    def parse(self) -> PathExpr:
        self.skip_ws()
        root = self.direct()
        segments: list[str] = []
        self.skip_ws()
        while self.peek() == ".":
            self.take()
            segments.append(self.ident("role name (segments may not be empty)"))
            self.skip_ws()
        self.done()
        return PathExpr(root, tuple(segments))

    def direct(self) -> Direct:
        if self.peek() == "{":
            self.take()
            refs = [self.ident("object reference")]
            self.skip_ws()
            while self.peek() == ",":
                self.take()
                refs.append(self.ident("object reference"))
                self.skip_ws()
            self.expect("}")
            return InstanceSet(tuple(refs))
        class_name = self.ident("class name or instance set")
        self.skip_ws()
        if self.peek() != "[":
            return ClassAll(class_name)
        self.take()
        attribute = self.ident("attribute name")
        comparator = self.comparator()
        literal = self.literal()
        self.skip_ws()
        self.expect("]")
        return ClassFilter(class_name, attribute, comparator, literal)

    def comparator(self) -> str:
        self.skip_ws()
        start = self.pos
        ch = self.take()
        if ch == "!":
            if self.peek() == "=":
                self.take()
                return "!="
            raise self.error(f"unknown comparator {ch!r}", start)
        if ch in "=<>":
            if self.peek() in "=<>":
                bad = ch + self.take()
                raise self.error(f"unknown comparator {bad!r}", start)
            return ch
        raise self.error(f"expected comparator, found {ch!r}", start)

    def literal(self) -> Scalar:
        self.skip_ws()
        start = self.pos
        ch = self.peek()
        if ch == '"':
            return self.string_literal()
        if ch == "-" or ch.isdigit():
            self.take()
            while self.peek().isdigit():
                self.take()
            digits = self.text[start:self.pos]
            if digits == "-":
                raise self.error("expected digits after '-'", start)
            return int(digits)
        word = self.ident("literal")
        if word == "true":
            return True
        if word == "false":
            return False
        raise self.error(f"expected literal, found {word!r}", start)

    def string_literal(self) -> str:
        self.expect('"')
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal")
            ch = self.take()
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                esc = self.take()
                if esc not in ('"', "\\"):
                    raise self.error(f"bad escape \\{esc}", self.pos - 2)
                out.append(esc)
            else:
                out.append(ch)

    def state(self) -> State:
        self.skip_ws()
        self.expect("{")
        state: State = {}
        self.skip_ws()
        if self.peek() == "}":
            self.take()
            return state
        while True:
            key = self.ident("attribute name")
            self.skip_ws()
            self.expect("=")
            state[key] = self.literal()
            self.skip_ws()
            if self.peek() == "}":
                self.take()
                return state
            self.expect(",")


def parse_expression(text: str) -> PathExpr:
    return _Parser(text).parse()


def render_literal(value: Scalar) -> str:
    if isinstance(value, bool):  # bool precedes int: True is an int too
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_expression(expr: PathExpr) -> str:
    root = expr.root
    if isinstance(root, InstanceSet):
        head = "{" + ",".join(root.refs) + "}"
    elif isinstance(root, ClassAll):
        head = root.class_name
    else:
        head = (
            f"{root.class_name}[{root.attribute}{root.comparator}"
            f"{render_literal(root.literal)}]"
        )
    return head + "".join(f".{seg}" for seg in expr.segments)


def _value_kind(value: Scalar) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    return "str"


def satisfies_filter(state: dict[str, Scalar], node: ClassFilter) -> bool:
    """Apply a filter's comparison to one object's state.

    Missing attributes fail every comparison.  Type-mismatched values are
    unequal (so `!=` holds) but never ordered.
    """
    if node.attribute not in state:
        return False
    value = state[node.attribute]
    if _value_kind(value) != _value_kind(node.literal):
        return node.comparator == "!="
    if node.comparator == "=":
        return value == node.literal
    if node.comparator == "!=":
        return value != node.literal
    if _value_kind(value) == "bool":
        return False  # booleans are not ordered
    if node.comparator == "<":
        return value < node.literal
    return value > node.literal


__all__ = [
    "ClassAll",
    "ClassFilter",
    "Direct",
    "InstanceSet",
    "PathExpr",
    "USER_VARIABLE",
    "parse_expression",
    "render_expression",
    "render_literal",
    "satisfies_filter",
]
