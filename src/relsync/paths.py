"""Path-set evaluation: the heart of relevance selection.

A path is the plain tuple of its walk, `(v0, e0, v1, …, vn)`: vertex ids at
even indices, links at odd ones.  An id never equals a link, so one
membership test or one set covers both kinds of element.

An expression names a set of start vertices and a sequence of role names.
Evaluation grows paths depth-first from an explicit stack, so the number of
segments is not bounded by the interpreter's recursion limit.  A path grows
by one link when the far endpoint of that link carries the next segment's
role and the path stays simple (no repeated vertex or edge).  A path
becomes a result once it has matched every segment, or once nothing
extends it: a reader who can no longer follow the chain still cares about
the part they reached.  A path that could grow is never a result itself,
so the set is prefix-free and is used both to select relevant data and to
drive the timestamp sync.

A path leaves the stack either as a result or replaced by at least one
extension, and distinct paths have distinct extensions.  So the results
only ever accumulate toward the final set, and one check on their count
raises exactly when that set would exceed the budget.

An expression whose root does not name `{user}` has one result per data
version, whichever client asks, so it is walked once and its frozenset is
memoised in the data's `walks` (see `SystemData`).  Class and filter roots
start from the data's per-class member sets instead of scanning every
object.
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


class TypedGraph:
    """System data seen as a graph with typed edges.

    The graph copies nothing: it reads the data's objects and its
    `incident` index in place, building the index here if nothing has read
    it yet.  The data keeps that index current through `SystemData.apply`,
    and store versions are never edited once committed, so a graph over a
    held version stays valid."""

    def __init__(self, data: SystemData, schema: Schema):
        self.schema = schema
        self.data = data
        self.incident = data.incident


# A simple path v0 -e0- v1 -e1- … -e(n-1)- vn, n >= 0, as the tuple of its
# walk (v0, e0, v1, …, vn): vertices at even indices, links at odd ones.
Path = tuple[str | Link, ...]


def _direct_vertices(
    expr: PathExpr, g: TypedGraph, user: str | None
) -> set[str] | frozenset[str]:
    root = expr.root
    if isinstance(root, InstanceSet):
        vertices: set[str] = set()
        for ref in root.refs:
            if ref == USER_VARIABLE:
                if user is None:
                    raise UnboundVariableError(
                        f"expression uses {USER_VARIABLE!r} but no binding was given"
                    )
                ref = user
            if ref in g.data.objects:
                vertices.add(ref)
        return vertices
    if root.class_name not in g.schema.classes:
        raise UnknownClassError(f"unknown class {root.class_name!r}")
    members = g.data.members(root.class_name)
    if isinstance(root, ClassAll):
        return members
    return {v for v in members if satisfies_filter(g.data.states.get(v, {}), root)}


def evaluate(
    expr: PathExpr,
    g: TypedGraph,
    *,
    user: str | None = None,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> frozenset[Path]:
    """All paths the expression defines over the graph; `user` is the
    object id the `{user}` root stands for.  Whether a link's far end
    carries a role is one probe of the schema's `ends` table.  A root
    without `{user}` is walked once per data version, schema and budget:
    later calls return the memoised frozenset.  A walk over budget raises
    and memoises nothing."""
    root = expr.root
    shared = not (isinstance(root, InstanceSet) and USER_VARIABLE in root.refs)
    if shared:
        walks = g.data.walks
        walk_key = (expr, max_paths, g.schema)
        memo = walks.get(walk_key)
        if memo is not None:
            return memo
    segments = expr.segments
    n_segments = len(segments)
    ends = g.schema.ends
    objects = g.data.objects
    incident = g.incident
    results: list[Path] = []
    stack: list[Path] = [(v,) for v in _direct_vertices(expr, g, user)]
    pop, push, emit = stack.pop, stack.append, results.append
    while stack:
        path = pop()
        matched = len(path) // 2
        if matched < n_segments:
            role = segments[matched]
            tip = path[-1]
            extended = False
            for edge in incident.get(tip, ()):
                src, dst, assoc = edge
                # The end away from the tip.  A self-link's far end is the
                # tip itself, which the last test drops, so only one side of
                # a link is ever looked up.
                if tip == src:
                    far, key = dst, (assoc, role, False)
                else:
                    far, key = src, (assoc, role, True)
                cls = ends.get(key)
                if cls is None or objects.get(far) != cls:
                    continue
                # A link already on the path has both ends on it, so testing
                # the far end alone keeps the path simple.
                if far in path:
                    continue
                push(path + (edge, far))
                extended = True
            if extended:
                continue  # replaced by its extensions
        emit(path)
        if len(results) > max_paths:
            raise PathBudgetError(
                f"path budget of {max_paths} exceeded while evaluating expression"
            )
    paths = frozenset(results)
    if shared:
        walks[walk_key] = paths
    return paths


def relevant_paths(
    schema: Schema,
    data: SystemData,
    exprs: list[PathExpr],
    *,
    user: str | None = None,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> frozenset[Path]:
    g = TypedGraph(data, schema)
    found = [evaluate(expr, g, user=user, max_paths=max_paths) for expr in exprs]
    if len(found) == 1:
        return found[0]  # shared with every caller of a memoised walk
    return frozenset().union(*found)


def select_relevant(
    schema: Schema,
    data: SystemData,
    exprs: list[PathExpr],
    *,
    user: str | None = None,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> SystemData:
    """The slice of the data on the expressions' paths: their objects with
    copies of their states, and their links."""
    objects: dict[str, str] = {}
    links: set[Link] = set()
    for path in relevant_paths(schema, data, exprs, user=user, max_paths=max_paths):
        for vertex in path[0::2]:
            objects[vertex] = data.objects[vertex]
        links.update(path[1::2])
    states = {oid: dict(data.states[oid]) for oid in objects}
    return SystemData(objects=objects, links=links, states=states)


__all__ = [
    "DEFAULT_MAX_PATHS",
    "Path",
    "TypedGraph",
    "evaluate",
    "relevant_paths",
    "select_relevant",
]
