"""Path-set evaluation: the heart of relevance selection.

A path is the plain tuple of its walk, `(v0, e0, v1, …, vn)`: vertex ids at
even indices, links at odd ones.  An id never equals a link, so one
membership test or one set covers both kinds of element.

An expression names a set of start vertices and a sequence of role names.
Evaluation walks the typed graph one segment at a time: a path grows by one
link when the far endpoint of that link carries the segment's role, stays a
simple path (no repeated vertex or edge), and paths that cannot grow are
retained as they are — a reader who can no longer follow the chain still
cares about the part they reached.  Only full-length paths keep growing;
a path retired at segment k is never picked up again by segment k+1.

The resulting set is prefix-free (a retired path cannot be the prefix of a
survivor, or it could have grown) and is used both to select relevant data
and to drive the timestamp sync.
"""

from __future__ import annotations

from .errors import PathBudgetError, UnboundVariableError, UnknownClassError
from .expr import (
    ClassAll,
    InstanceSet,
    PathExpr,
    USER_VARIABLE,
    satisfies_filter,
)
from .model import Link, Schema, SystemData

DEFAULT_MAX_PATHS = 100_000

Binding = dict[str, str]


class TypedGraph:
    """System data seen as a graph with typed edges.

    The graph builds nothing: it reads the data's objects and its
    `incident` index in place.  The data keeps that index current through
    `SystemData.apply`, and store versions are never edited once committed,
    so a graph over a held version stays valid."""

    def __init__(self, data: SystemData, schema: Schema):
        self.schema = schema
        self.data = data
        self._incident = data.incident

    def class_of(self, vertex: str) -> str | None:
        return self.data.objects.get(vertex)

    def adjacent(self, vertex: str) -> frozenset[Link]:
        return self._incident.get(vertex, frozenset())


# A simple path v0 -e0- v1 -e1- … -e(n-1)- vn, n >= 0, as the tuple of its
# walk (v0, e0, v1, …, vn): vertices at even indices, links at odd ones.
Path = tuple[str | Link, ...]


def is_in_role(g: TypedGraph, vertex: str, edge: Link, role: str) -> bool:
    """True iff the association types this end of the link with `role`.

    Both orientations are checked: the vertex may sit at either end, and it
    carries the role declared for that end's class."""
    assoc = g.schema.assocs.get(edge.assoc)
    if assoc is None:
        return False
    if vertex == edge.src and g.class_of(vertex) == assoc.class_a and role == assoc.role_a:
        return True
    if vertex == edge.dst and g.class_of(vertex) == assoc.class_b and role == assoc.role_b:
        return True
    return False


def is_path(p: Path, g: TypedGraph) -> bool:
    """True iff p is a simple path of the graph: odd length, no repeated
    element, live vertices, and each link joining its two neighbours."""
    if len(p) % 2 == 0 or len(set(p)) != len(p):
        return False
    if any(vertex not in g.data.objects for vertex in p[0::2]):
        return False
    for i in range(1, len(p), 2):
        edge = p[i]
        if edge not in g.data.links or {edge.src, edge.dst} != {p[i - 1], p[i + 1]}:
            return False
    return True


def is_sub_path(p: Path, q: Path, g: TypedGraph, proper: bool = False) -> bool:
    """True iff q starts with p (and extends it strictly, when `proper`)."""
    if not is_path(p, g) or not is_path(q, g):
        return False
    if proper and len(p) == len(q):
        return False
    return q[: len(p)] == p


def is_in_path(element: str | Link, p: Path) -> bool:
    return element in p


def _direct_vertices(
    expr: PathExpr, g: TypedGraph, data: SystemData, binding: Binding | None
) -> set[str]:
    root = expr.root
    if isinstance(root, InstanceSet):
        vertices: set[str] = set()
        for ref in root.refs:
            if ref == USER_VARIABLE:
                if not binding or USER_VARIABLE not in binding:
                    raise UnboundVariableError(
                        f"expression uses {USER_VARIABLE!r} but no binding was given"
                    )
                ref = binding[USER_VARIABLE]
            if ref in g.data.objects:
                vertices.add(ref)
        return vertices
    if root.class_name not in g.schema.classes:
        raise UnknownClassError(f"unknown class {root.class_name!r}")
    members = {v for v, cls in g.data.objects.items() if cls == root.class_name}
    if isinstance(root, ClassAll):
        return members
    return {v for v in members if satisfies_filter(data.states.get(v, {}), root)}


def evaluate(
    expr: PathExpr,
    g: TypedGraph,
    data: SystemData,
    binding: Binding | None = None,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> frozenset[Path]:
    """All paths the expression defines over the graph.

    Works segment by segment over a frontier of full-length matches.  A
    frontier path with no valid extension retires into the result as-is;
    extended paths move forward.  The final set is frontier ∪ retired."""
    frontier: set[Path] = {(v,) for v in _direct_vertices(expr, g, data, binding)}
    retired: set[Path] = set()

    def check_budget(extra: int = 0) -> None:
        if len(frontier) + len(retired) + extra > max_paths:
            raise PathBudgetError(
                f"path budget of {max_paths} exceeded while evaluating expression"
            )

    check_budget()
    for role in expr.segments:
        grown: set[Path] = set()
        for path in frontier:
            end = path[-1]
            extended = False
            for edge in g.adjacent(end):
                far = edge.dst if end == edge.src else edge.src
                # A link already on the path has both ends on it, so testing
                # the far end alone keeps the path simple.
                if far in path:
                    continue
                if not is_in_role(g, far, edge, role):
                    continue
                grown.add(path + (edge, far))
                extended = True
                if len(grown) + len(retired) > max_paths:
                    raise PathBudgetError(
                        f"path budget of {max_paths} exceeded while evaluating expression"
                    )
            if not extended:
                retired.add(path)
        frontier = grown
        check_budget()
    return frozenset(frontier | retired)


def relevant_paths(
    schema: Schema,
    data: SystemData,
    exprs: list[PathExpr],
    binding: Binding | None = None,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> frozenset[Path]:
    g = TypedGraph(data, schema)
    paths: set[Path] = set()
    for expr in exprs:
        paths |= evaluate(expr, g, data, binding, max_paths=max_paths)
    return frozenset(paths)


def select_relevant(
    schema: Schema,
    data: SystemData,
    exprs: list[PathExpr],
    binding: Binding | None = None,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> SystemData:
    """The slice of the data on the expressions' paths: their objects with
    copies of their states, and their links."""
    objects: dict[str, str] = {}
    links: set[Link] = set()
    for path in relevant_paths(schema, data, exprs, binding, max_paths=max_paths):
        for vertex in path[0::2]:
            objects[vertex] = data.objects[vertex]
        links.update(path[1::2])
    states = {oid: dict(data.states[oid]) for oid in objects}
    return SystemData(objects=objects, links=links, states=states)


__all__ = [
    "Binding",
    "DEFAULT_MAX_PATHS",
    "Path",
    "TypedGraph",
    "evaluate",
    "is_in_path",
    "is_in_role",
    "is_path",
    "is_sub_path",
    "relevant_paths",
    "select_relevant",
]
