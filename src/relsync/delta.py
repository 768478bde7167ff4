"""Sync payloads and their canonical text form.

A DeltaSet is what one sync round hands a client: objects to create (with
class), objects whose state changed, deleted objects, created and deleted
links, a state carrier for every created or updated object, and the
client's next sync timestamp.  The renderer produces a canonical, sorted,
byte-stable text form used by golden tests and the `assert-delta` scenario
step; `parse_delta` reads the same format back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ExpressionSyntaxError, ScenarioParseError
from .expr import _Parser, render_literal
from .model import Link, State, link_text_order


@dataclass
class DeltaSet:
    ts_cs: int
    crt_objects: set[tuple[str, str]] = field(default_factory=set)  # (id, class)
    upd_objects: set[str] = field(default_factory=set)
    del_objects: set[str] = field(default_factory=set)
    crt_links: set[Link] = field(default_factory=set)
    del_links: set[Link] = field(default_factory=set)
    states: dict[str, State] = field(default_factory=dict)  # crt ∪ upd carrier

    def is_empty(self) -> bool:
        return not (
            self.crt_objects
            or self.upd_objects
            or self.del_objects
            or self.crt_links
            or self.del_links
        )


def render_state(state: State) -> str:
    inner = ",".join(f"{k}={render_literal(v)}" for k, v in sorted(state.items()))
    return "{" + inner + "}"


def render_delta(d: DeltaSet) -> str:
    lines = [f"ts_cs {d.ts_cs}"]
    for oid, cls in sorted(d.crt_objects):
        lines.append(f"crt-obj {oid} {cls} {render_state(d.states.get(oid, {}))}")
    for oid in sorted(d.upd_objects):
        lines.append(f"upd-obj {oid} {render_state(d.states.get(oid, {}))}")
    for oid in sorted(d.del_objects):
        lines.append(f"del-obj {oid}")
    for link in sorted(d.crt_links, key=link_text_order):
        lines.append(f"crt-link {link}")
    for link in sorted(d.del_links, key=link_text_order):
        lines.append(f"del-link {link}")
    return "".join(line + "\n" for line in lines)


def parse_state(text: str) -> State:
    reader = _Parser(text)
    try:
        state = reader.state()
        reader.done()
    except ExpressionSyntaxError as exc:
        # keep the delta/scenario layer's error contract: one exception type
        raise ScenarioParseError(f"bad state syntax: {exc}") from exc
    return state


def parse_delta(text: str) -> DeltaSet:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("ts_cs "):
        raise ScenarioParseError("delta must start with a ts_cs header")
    try:
        delta = DeltaSet(ts_cs=int(lines[0].split()[1]))
    except (IndexError, ValueError) as exc:
        raise ScenarioParseError(f"bad ts_cs header: {lines[0]!r}") from exc
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        try:
            if kind == "crt-obj":
                oid, cls, state_part = rest.split(maxsplit=2)
                delta.crt_objects.add((oid, cls))
                delta.states[oid] = parse_state(state_part)
            elif kind == "upd-obj":
                oid, state_part = rest.split(maxsplit=1)
                delta.upd_objects.add(oid)
                delta.states[oid] = parse_state(state_part)
            elif kind == "del-obj":
                (oid,) = rest.split()
                delta.del_objects.add(oid)
            elif kind == "crt-link":
                src, assoc, dst = rest.split()
                delta.crt_links.add(Link(src, dst, assoc))
            elif kind == "del-link":
                src, assoc, dst = rest.split()
                delta.del_links.add(Link(src, dst, assoc))
            else:
                raise ScenarioParseError(f"unknown delta line kind {kind!r}")
        except ValueError as exc:
            raise ScenarioParseError(f"bad delta line {line!r}") from exc
    return delta


__all__ = ["DeltaSet", "parse_delta", "parse_state", "render_delta", "render_state"]
