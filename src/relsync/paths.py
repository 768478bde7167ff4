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
raises exactly when that set would exceed the budget, `MAX_PATHS`.

Every walk is memoised in the data's `walks`, keyed by the expression,
the schema and the `{user}` binding, which is None unless the root names
`{user}`: a `{user}`-free expression has one result per data version,
whichever client asks.  The entry records what the walk read (see
`model.Walk`), and `SystemData.apply` keeps it, across versions, until a
mutation reaches that: touches a vertex the walk read, or changes whether
the root admits an object of its class.  A class or filter root's walk
finds its start vertices with one scan of the data's objects when it
misses; an object that appears or disappears changes that scan only if
the root admits it, and then the same rule has dropped the walk.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from .errors import PathBudgetError, UnboundVariableError, UnknownClassError
from .expr import (
    ClassAll,
    InstanceSet,
    PathExpr,
    USER_VARIABLE,
    satisfies_filter,
)
from .model import Link, Schema, State, SystemData

# The most paths one expression may yield; `evaluate` reads it per call.
MAX_PATHS = 100_000


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


def _admit_all(state: State) -> bool:
    return True


def _start(
    expr: PathExpr, g: TypedGraph, user: str | None
) -> tuple[set[str], set[str], str | None, Callable[[State], bool] | None]:
    """The vertices a walk starts from, and what choosing them read: an
    instance root's refs, resolved, or a class root's class and state test
    (the last three parts of a `model.Walk`)."""
    root, objects = expr.root, g.data.objects
    if isinstance(root, InstanceSet):
        refs: set[str] = set()
        vertices: set[str] = set()
        for ref in root.refs:
            if ref == USER_VARIABLE:
                if user is None:
                    raise UnboundVariableError(
                        f"expression uses {USER_VARIABLE!r} but no binding was given"
                    )
                ref = user
            refs.add(ref)
            if ref in objects:
                vertices.add(ref)
        return vertices, refs, None, None
    cls = root.class_name
    if cls not in g.schema.classes:
        raise UnknownClassError(f"unknown class {cls!r}")
    if isinstance(root, ClassAll):
        return {v for v, c in objects.items() if c == cls}, set(), cls, _admit_all
    admits = partial(satisfies_filter, node=root)
    states = g.data.states
    start = {v for v, c in objects.items() if c == cls and admits(states.get(v, {}))}
    return start, set(), cls, admits


def evaluate(expr: PathExpr, g: TypedGraph, *, user: str | None = None) -> frozenset[Path]:
    """All paths the expression defines over the graph; `user` is the
    object id the `{user}` root stands for.  Whether a link's far end
    carries a role is one probe of the schema's `ends` table.  A call that
    finds its walk memoised returns the memoised frozenset; otherwise the
    walk is memoised with what it read.  A walk of more than `MAX_PATHS`
    paths raises and memoises nothing."""
    root = expr.root
    bound = user if isinstance(root, InstanceSet) and USER_VARIABLE in root.refs else None
    walks = g.data.walks
    walk_key = (expr, g.schema, bound)
    memo = walks.get(walk_key)
    if memo is not None:
        return memo[0]
    budget = MAX_PATHS
    segments = expr.segments
    n_segments = len(segments)
    ends = g.schema.ends
    objects = g.data.objects
    incident = g.incident
    start, reads, root_class, admits = _start(expr, g, user)
    results: list[Path] = []
    stack: list[Path] = [(v,) for v in start]
    pop, push, emit, read = stack.pop, stack.append, results.append, reads.add
    while stack:
        path = pop()
        matched = len(path) // 2
        if matched < n_segments:
            role = segments[matched]
            tip = path[-1]
            read(tip)
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
        if len(results) > budget:
            raise PathBudgetError(
                f"path budget of {budget} exceeded while evaluating expression"
            )
    paths = frozenset(results)
    walks[walk_key] = (paths, reads, root_class, admits)
    return paths


def relevant_paths(
    schema: Schema, data: SystemData, exprs: list[PathExpr], *, user: str | None = None
) -> frozenset[Path]:
    g = TypedGraph(data, schema)
    found = [evaluate(expr, g, user=user) for expr in exprs]
    if len(found) == 1:
        return found[0]  # shared with every caller of a memoised walk
    return frozenset().union(*found)


def select_relevant(
    schema: Schema, data: SystemData, exprs: list[PathExpr], *, user: str | None = None
) -> SystemData:
    """The slice of the data on the expressions' paths: their objects with
    copies of their states, and their links."""
    objects: dict[str, str] = {}
    links: set[Link] = set()
    for path in relevant_paths(schema, data, exprs, user=user):
        for vertex in path[0::2]:
            objects[vertex] = data.objects[vertex]
        links.update(path[1::2])
    states = {oid: dict(data.states[oid]) for oid in objects}
    return SystemData(objects=objects, links=links, states=states)


__all__ = [
    "MAX_PATHS",
    "Path",
    "TypedGraph",
    "evaluate",
    "relevant_paths",
    "select_relevant",
]
