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
from .errors import ExpressionSyntaxError, RelsyncError, ScenarioParseError
from .expr import PathExpr, _Parser, parse_expression, render_expression, render_literal
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
    validate_token,
)


@dataclass(slots=True)
class ClientDecl:
    name: str
    root: str
    exprs: list[PathExpr]


@dataclass(slots=True)
class TxStep:
    mutations: list[Mutation]


@dataclass(slots=True)
class SyncStep:
    client: str
    use_oracle: bool = False


@dataclass(slots=True)
class PushStep:
    client: str
    mutation: Mutation


@dataclass(slots=True)
class AssertConvergedStep:
    client: str


@dataclass(slots=True)
class AssertDeltaStep:
    client: str
    expected: DeltaSet


Step = TxStep | SyncStep | PushStep | AssertConvergedStep | AssertDeltaStep


@dataclass(slots=True)
class Scenario:
    schema: Schema
    clients: dict[str, ClientDecl] = field(default_factory=dict)
    steps: list[Step] = field(default_factory=list)


def _strip_comment(line: str) -> str:
    """Cut a `#` comment.  String literals are skipped whole, so a `#` in
    one stays; a malformed literal leaves the line uncut, for the parser of
    its line or block to report."""
    reader = _Parser(line)
    while (cut := line.find("#", reader.pos)) >= 0:
        quote = line.find('"', reader.pos, cut)
        if quote < 0:
            return line[:cut]
        reader.pos = quote
        try:
            reader.string_literal()
        except ExpressionSyntaxError:
            return line
    return line


def _parse_mutation(line: str, schema: Schema) -> Mutation:
    keyword, _, rest = line.partition(" ")
    rest = rest.strip()
    if keyword == "create":
        brace = rest.find("{")
        head = rest[:brace].split() if brace >= 0 else rest.split()
        if len(head) != 2:
            raise ScenarioParseError(
                f"create wants `create <ref> <Class> {{k=v,…}}`, got {line!r}"
            )
        ref, cls = head
        if cls not in schema.classes:
            raise ScenarioParseError(f"unknown class {cls!r}")
        state = parse_state(rest[brace:]) if brace >= 0 else {}
        return CreateObject.make(ref, cls, state)
    if keyword == "update":
        brace = rest.find("{")
        if brace < 0:
            raise ScenarioParseError(f"update wants `update <ref> {{k=v,…}}`, got {line!r}")
        head = rest[:brace].split()
        if len(head) != 1:
            raise ScenarioParseError(f"update wants exactly one ref, got {line!r}")
        return UpdateState.make(head[0], parse_state(rest[brace:]))
    if keyword == "delete":
        parts = rest.split()
        if len(parts) != 1:
            raise ScenarioParseError(f"delete wants exactly one ref, got {line!r}")
        return DeleteObject(parts[0])
    if keyword in ("link", "unlink"):
        parts = rest.split()
        if len(parts) != 3:
            raise ScenarioParseError(f"{keyword} wants `<ref> <Assoc> <ref>`, got {line!r}")
        src, assoc, dst = parts
        if assoc not in schema.assocs:
            raise ScenarioParseError(f"unknown association {assoc!r}")
        link = Link(src, dst, assoc)
        return CreateLink(link) if keyword == "link" else DeleteLink(link)
    raise ScenarioParseError(f"unknown mutation {keyword!r}")


def _parse_assoc(rest: str) -> AssociationDef:
    # assoc <Name> <ClassA>:<roleA> -- <ClassB>:<roleB>
    parts = rest.split()
    if len(parts) != 4 or parts[2] != "--" or ":" not in parts[1] or ":" not in parts[3]:
        raise ScenarioParseError(
            f"assoc wants `assoc <Name> <ClassA>:<roleA> -- <ClassB>:<roleB>`, got {rest!r}"
        )
    class_a, _, role_a = parts[1].partition(":")
    class_b, _, role_b = parts[3].partition(":")
    return AssociationDef(parts[0], class_a, role_a, class_b, role_b)


def _parse_client(rest: str) -> ClientDecl:
    # client <name> root=<ref> expr="…" [expr="…"]; a value is quoted or bare
    name, _, tail = rest.partition(" ")
    if not name:
        raise ScenarioParseError("client wants a name")
    validate_token(name, "client name")
    root: str | None = None
    exprs: list[PathExpr] = []
    reader = _Parser(tail)
    reader.skip_ws()
    while reader.peek():
        key = reader.ident("client attribute")
        reader.expect("=")
        value = reader.string_literal() if reader.peek() == '"' else reader.bare()
        if key == "root":
            root = value
        elif key == "expr":
            exprs.append(parse_expression(value))
        else:
            raise ScenarioParseError(f"unknown client attribute {key!r}")
        reader.skip_ws()
    if root is None:
        raise ScenarioParseError("client line needs root=<ref>")
    validate_token(root, "client root")
    if not exprs:
        raise ScenarioParseError("client line needs at least one expr=\"…\"")
    return ClientDecl(name=name, root=root, exprs=exprs)


def parse_scenario(text: str) -> Scenario:
    schema = Schema(classes=set())
    clients: dict[str, ClientDecl] = {}
    steps: list[Step] = []
    in_steps = False
    tx_block: list[Mutation] | None = None
    delta_block: tuple[str, int, list[str]] | None = None  # (client, open line, raw lines)
    tx_open_line = 0

    def require_client(name: str) -> str:
        if name not in clients:
            raise ScenarioParseError(f"unknown client {name!r}")
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if tx_block is not None:
                if line == "end":
                    steps.append(TxStep(tx_block))
                    tx_block = None
                else:
                    tx_block.append(_parse_mutation(line, schema))
            elif delta_block is not None:
                if line == "end":
                    client, _, lines = delta_block
                    try:
                        expected = parse_delta("\n".join(lines))
                    except ScenarioParseError as exc:
                        raise ScenarioParseError(f"bad expected delta: {exc}") from exc
                    steps.append(AssertDeltaStep(client, expected))
                    delta_block = None
                else:
                    delta_block[2].append(line)
            elif keyword in ("class", "assoc", "client"):
                if in_steps:
                    raise ScenarioParseError("declarations must precede steps")
                if keyword == "class":
                    if len(rest.split()) != 1:
                        raise ScenarioParseError(f"class wants one name, got {rest!r}")
                    schema.add_class(rest)
                elif keyword == "assoc":
                    schema.add_assoc(_parse_assoc(rest))
                else:
                    decl = _parse_client(rest)
                    if decl.name in clients:
                        raise ScenarioParseError(f"duplicate client {decl.name!r}")
                    clients[decl.name] = decl
            else:
                in_steps = True
                if line == "tx":
                    tx_block = []
                    tx_open_line = lineno
                elif keyword == "sync":
                    steps.append(SyncStep(require_client(rest)))
                elif keyword == "sync-oracle":
                    steps.append(SyncStep(require_client(rest), use_oracle=True))
                elif keyword == "assert-converged":
                    steps.append(AssertConvergedStep(require_client(rest)))
                elif keyword == "assert-delta":
                    delta_block = (require_client(rest), lineno, [])
                elif keyword == "push":
                    client, _, mutation_part = rest.partition(" ")
                    require_client(client)
                    mutation = _parse_mutation(mutation_part.strip(), schema)
                    steps.append(PushStep(client, mutation))
                else:
                    raise ScenarioParseError(f"unknown keyword {keyword!r}")
        except RelsyncError as exc:
            raise ScenarioParseError(str(exc), line=lineno) from exc

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
        return f"create {m.object_id} {m.class_name} {render_state(m.state)}"
    if isinstance(m, UpdateState):
        return f"update {m.object_id} {render_state(m.state)}"
    if isinstance(m, DeleteObject):
        return f"delete {m.object_id}"
    if isinstance(m, CreateLink):
        return f"link {m.link}"
    return f"unlink {m.link}"


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
        exprs = " ".join(f"expr={render_literal(render_expression(e))}" for e in decl.exprs)
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
