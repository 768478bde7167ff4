"""Scenario files: a line-oriented DSL driving the simulator.

A scenario declares a schema (`class`, `assoc`), clients with their root
object and relevance expressions (`client`), and then a sequence of steps:
transactions (`tx` … `end`), client pushes (`push`), syncs (`sync`,
`sync-oracle`), and assertions (`assert-converged`, `assert-delta` … `end`).
`#` starts a comment outside string literals.  Declarations come before
steps.  The same module renders a Scenario back to text, which is how the
fuzzer writes replayable failure dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .delta import DeltaSet, parse_delta, parse_state, render_delta, render_state
from .errors import RelsyncError, ScenarioParseError
from .expr import PathExpr, parse_expression, render_expression
from .model import (
    AssociationDef,
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    Mutation,
    Schema,
    UpdateState,
)


@dataclass
class ClientDecl:
    name: str
    root: str
    exprs: list[PathExpr]


@dataclass
class TxStep:
    mutations: list[Mutation]


@dataclass
class SyncStep:
    client: str
    use_oracle: bool = False


@dataclass
class PushStep:
    client: str
    mutation: Mutation


@dataclass
class AssertConvergedStep:
    client: str


@dataclass
class AssertDeltaStep:
    client: str
    expected: DeltaSet


Step = TxStep | SyncStep | PushStep | AssertConvergedStep | AssertDeltaStep


@dataclass
class Scenario:
    schema: Schema
    clients: dict[str, ClientDecl] = field(default_factory=dict)
    steps: list[Step] = field(default_factory=list)


def _strip_comment(line: str) -> str:
    """Cut a `#` comment, ignoring `#` inside double-quoted strings."""
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and in_string:
            i += 2
            continue
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
        i += 1
    return line


def _parse_mutation(line: str, schema: Schema, lineno: int) -> Mutation:
    """One mutation line; any error comes back as a ScenarioParseError
    that names the line."""

    def fail(msg: str):
        return ScenarioParseError(msg, line=lineno)

    try:
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "create":
            brace = rest.find("{")
            head = rest[:brace].split() if brace >= 0 else rest.split()
            if len(head) != 2:
                raise fail(f"create wants `create <ref> <Class> {{k=v,…}}`, got {line!r}")
            ref, cls = head
            if cls not in schema.classes:
                raise fail(f"unknown class {cls!r}")
            state = parse_state(rest[brace:]) if brace >= 0 else {}
            return CreateObject.make(ref, cls, state)
        if keyword == "update":
            brace = rest.find("{")
            if brace < 0:
                raise fail(f"update wants `update <ref> {{k=v,…}}`, got {line!r}")
            head = rest[:brace].split()
            if len(head) != 1:
                raise fail(f"update wants exactly one ref, got {line!r}")
            return UpdateState.make(head[0], parse_state(rest[brace:]))
        if keyword == "delete":
            parts = rest.split()
            if len(parts) != 1:
                raise fail(f"delete wants exactly one ref, got {line!r}")
            return DeleteObject(parts[0])
        if keyword in ("link", "unlink"):
            parts = rest.split()
            if len(parts) != 3:
                raise fail(f"{keyword} wants `<ref> <Assoc> <ref>`, got {line!r}")
            src, assoc, dst = parts
            if assoc not in schema.assocs:
                raise fail(f"unknown association {assoc!r}")
            link = Link(src, dst, assoc)
            return CreateLink(link) if keyword == "link" else DeleteLink(link)
        raise fail(f"unknown mutation {keyword!r}")
    except RelsyncError as exc:
        if isinstance(exc, ScenarioParseError) and exc.line is not None:
            raise
        raise ScenarioParseError(str(exc), line=lineno) from exc


def _parse_assoc(rest: str, lineno: int) -> AssociationDef:
    # assoc <Name> <ClassA>:<roleA> -- <ClassB>:<roleB>
    parts = rest.split()
    if len(parts) != 4 or parts[2] != "--" or ":" not in parts[1] or ":" not in parts[3]:
        raise ScenarioParseError(
            f"assoc wants `assoc <Name> <ClassA>:<roleA> -- <ClassB>:<roleB>`, got {rest!r}",
            line=lineno,
        )
    name = parts[0]
    class_a, _, role_a = parts[1].partition(":")
    class_b, _, role_b = parts[3].partition(":")
    try:
        return AssociationDef(name, class_a, role_a, class_b, role_b)
    except RelsyncError as exc:
        raise ScenarioParseError(str(exc), line=lineno) from exc


def _parse_client(rest: str, lineno: int) -> ClientDecl:
    # client <name> root=<ref> expr="…" [expr="…"]
    def fail(msg: str):
        return ScenarioParseError(msg, line=lineno)

    name, _, tail = rest.partition(" ")
    if not name:
        raise fail("client wants a name")
    root: str | None = None
    exprs: list[PathExpr] = []
    i = 0
    while i < len(tail):
        if tail[i].isspace():
            i += 1
            continue
        eq = tail.find("=", i)
        if eq < 0:
            raise fail(f"expected key=value in client line, got {tail[i:]!r}")
        key = tail[i:eq]
        i = eq + 1
        if i < len(tail) and tail[i] == '"':
            i += 1
            chars: list[str] = []
            while True:
                if i >= len(tail):
                    raise fail("unterminated quoted value in client line")
                ch = tail[i]
                if ch == "\\" and i + 1 < len(tail) and tail[i + 1] in ('"', "\\"):
                    chars.append(tail[i + 1])
                    i += 2
                    continue
                if ch == '"':
                    i += 1
                    break
                chars.append(ch)
                i += 1
            value = "".join(chars)
        else:
            end = i
            while end < len(tail) and not tail[end].isspace():
                end += 1
            value = tail[i:end]
            i = end
        if key == "root":
            root = value
        elif key == "expr":
            try:
                exprs.append(parse_expression(value))
            except RelsyncError as exc:
                raise fail(f"bad expression {value!r}: {exc}") from exc
        else:
            raise fail(f"unknown client attribute {key!r}")
    if root is None:
        raise fail("client line needs root=<ref>")
    if not exprs:
        raise fail("client line needs at least one expr=\"…\"")
    return ClientDecl(name=name, root=root, exprs=exprs)


def parse_scenario(text: str) -> Scenario:
    schema = Schema(classes=set())
    clients: dict[str, ClientDecl] = {}
    steps: list[Step] = []
    in_steps = False
    tx_block: list[Mutation] | None = None
    delta_block: tuple[str, int, list[str]] | None = None  # (client, open line, raw lines)
    tx_open_line = 0

    def require_client(name: str, lineno: int) -> str:
        if name not in clients:
            raise ScenarioParseError(f"unknown client {name!r}", line=lineno)
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()

        if tx_block is not None:
            if line == "end":
                steps.append(TxStep(tx_block))
                tx_block = None
            else:
                tx_block.append(_parse_mutation(line, schema, lineno))
            continue
        if delta_block is not None:
            if line == "end":
                client, _, lines = delta_block
                try:
                    expected = parse_delta("\n".join(lines))
                except RelsyncError as exc:
                    raise ScenarioParseError(
                        f"bad expected delta: {exc}", line=lineno
                    ) from exc
                steps.append(AssertDeltaStep(client, expected))
                delta_block = None
            else:
                delta_block[2].append(line)
            continue

        if keyword in ("class", "assoc", "client"):
            if in_steps:
                raise ScenarioParseError(
                    "declarations must precede steps", line=lineno
                )
            try:
                if keyword == "class":
                    if len(rest.split()) != 1:
                        raise ScenarioParseError(
                            f"class wants one name, got {rest!r}", line=lineno
                        )
                    schema.add_class(rest)
                elif keyword == "assoc":
                    schema.add_assoc(_parse_assoc(rest, lineno))
                else:
                    decl = _parse_client(rest, lineno)
                    if decl.name in clients:
                        raise ScenarioParseError(
                            f"duplicate client {decl.name!r}", line=lineno
                        )
                    clients[decl.name] = decl
            except ScenarioParseError:
                raise
            except RelsyncError as exc:
                raise ScenarioParseError(str(exc), line=lineno) from exc
            continue

        in_steps = True
        if line == "tx":
            tx_block = []
            tx_open_line = lineno
        elif keyword == "sync":
            steps.append(SyncStep(require_client(rest, lineno)))
        elif keyword == "sync-oracle":
            steps.append(SyncStep(require_client(rest, lineno), use_oracle=True))
        elif keyword == "assert-converged":
            steps.append(AssertConvergedStep(require_client(rest, lineno)))
        elif keyword == "assert-delta":
            delta_block = (require_client(rest, lineno), lineno, [])
        elif keyword == "push":
            client, _, mutation_part = rest.partition(" ")
            require_client(client, lineno)
            mutation = _parse_mutation(mutation_part.strip(), schema, lineno)
            steps.append(PushStep(client, mutation))
        else:
            raise ScenarioParseError(f"unknown keyword {keyword!r}", line=lineno)

    if tx_block is not None:
        raise ScenarioParseError("tx block never closed", line=tx_open_line)
    if delta_block is not None:
        raise ScenarioParseError("assert-delta block never closed", line=delta_block[1])
    if not schema.classes:
        raise ScenarioParseError("no schema block")
    return Scenario(schema=schema, clients=clients, steps=steps)


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text)


# -- rendering (fuzz dumps must replay bit-identically) -----------------------


def render_mutation(m: Mutation) -> str:
    if isinstance(m, CreateObject):
        return f"create {m.object_id} {m.class_name} {render_state(m.state_dict())}"
    if isinstance(m, UpdateState):
        return f"update {m.object_id} {render_state(m.state_dict())}"
    if isinstance(m, DeleteObject):
        return f"delete {m.object_id}"
    if isinstance(m, CreateLink):
        return f"link {m.link}"
    return f"unlink {m.link}"


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_scenario(s: Scenario) -> str:
    out: list[str] = []
    for cls in sorted(s.schema.classes):
        out.append(f"class {cls}")
    for assoc in s.schema.assocs.values():
        out.append(
            f"assoc {assoc.name} {assoc.class_a}:{assoc.role_a} "
            f"-- {assoc.class_b}:{assoc.role_b}"
        )
    for decl in s.clients.values():
        exprs = " ".join(f"expr={_quote(render_expression(e))}" for e in decl.exprs)
        out.append(f"client {decl.name} root={decl.root} {exprs}")
    out.append("")
    for step in s.steps:
        if isinstance(step, TxStep):
            out.append("tx")
            out.extend(f"  {render_mutation(m)}" for m in step.mutations)
            out.append("end")
        elif isinstance(step, SyncStep):
            out.append(f"{'sync-oracle' if step.use_oracle else 'sync'} {step.client}")
        elif isinstance(step, PushStep):
            out.append(f"push {step.client} {render_mutation(step.mutation)}")
        elif isinstance(step, AssertConvergedStep):
            out.append(f"assert-converged {step.client}")
        else:
            out.append(f"assert-delta {step.client}")
            out.extend(f"  {line}" for line in render_delta(step.expected).splitlines())
            out.append("end")
    return "".join(line + "\n" for line in out)


__all__ = [
    "AssertConvergedStep",
    "AssertDeltaStep",
    "ClientDecl",
    "PushStep",
    "Scenario",
    "Step",
    "SyncStep",
    "TxStep",
    "load_scenario",
    "parse_scenario",
    "render_mutation",
    "render_scenario",
]
