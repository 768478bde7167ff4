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
raises exactly when that set would exceed the budget, `MAX_PATHS`.  The
paths of the starts a walk keeps (see below) count toward the same
budget, and starts share no path, so the check stays exact.

Every walk is memoised in the data's `walks`, one part per start, and
the next walk regrows only the starts a mutation since reached, by the
rule in `memo.py`.

A walk's paths come as a `PathSet`: the frozenset of path tuples, and
beside it what a sync reads off them.  Its element set, every vertex and
link on some path, is built once, when a sync or sweep first reads it,
so a sync that finds the walk memoised has its slice without touching a
path, and a walk only the snapshot oracle reads never builds one.  Its
link lookup maps a link to the paths through it.  A link's entry is made
the first time a sync asks for it, by one scan of the paths for every
link asked and not yet held, and then kept: a later sync that asks
again, such as another client of a shared walk, finds the paths a new
link lies on without a scan.  Both live as long as the composed walk,
which a regrown start replaces; a walk of one start is that start's part.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable

from .errors import PathBudgetError, UnboundVariableError, UnknownClassError
from .expr import InstanceSet, PathExpr, USER_VARIABLE
from .memo import Walk
from .model import Link, Schema, SystemData

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


class PathSet(frozenset):
    """A frozenset of paths, equal to the plain frozenset of the same
    paths, with what a sync reads off them:
    - `elements`: every vertex id and link on some path, one frozenset,
      built on first read and then kept;
    - a link lookup: each link -> the (path, index of the link in it) of
      every path through it, read through `through`.  A link's entry is
      made the first time a sync asks for it and then kept.

    `evaluate` makes one per start of a walk, and for a walk of several
    starts one more, the walk, over all their paths.  `relevant_paths`
    over several expressions makes one for their union, which keeps the
    walks as its `parts`, so a sync reads each walk's element set and
    lookup from the memo; the union's elements are theirs, united.  A walk
    lists no parts (its `parts` is made on each read), so no set refers
    back to itself."""

    __slots__ = ("_elements", "_parts", "_through")

    def __new__(cls, paths: Iterable[Path], parts: tuple[PathSet, ...] = ()) -> PathSet:
        self = frozenset.__new__(cls, paths)
        self._elements: frozenset[str | Link] | None = None
        self._parts = parts
        self._through: dict[Link, list[tuple[Path, int]]] | None = None
        return self

    @property
    def elements(self) -> frozenset[str | Link]:
        elements = self._elements
        if elements is None:
            parts = self._parts
            elements = self._elements = frozenset().union(
                *([part.elements for part in parts] if parts else self)
            )
        return elements

    @property
    def parts(self) -> tuple[PathSet, ...]:
        """The walks this set is the union of; a walk is its own only part."""
        return self._parts or (self,)

    def through(self, links: Collection[Link]) -> list[tuple[Path, int]]:
        """(path, index of the link in the path) for every path through
        each of `links`.  Links the lookup has no entry for yet get theirs
        from one scan of the paths, which skips a path holding none."""
        known = self._through
        if known is None:
            known = self._through = {}
        elements = self.elements
        found: dict[Link, list[tuple[Path, int]]] = {}
        for link in links:
            if link not in known and link in elements:
                found[link] = []
        if found:
            wanted = found.keys()
            for path in self:
                if wanted.isdisjoint(path):
                    continue
                for i in range(1, len(path), 2):
                    held = found.get(path[i])
                    if held is not None:
                        held.append((path, i))
            known.update(found)
        pairs: list[tuple[Path, int]] = []
        for link in links:
            held = known.get(link)
            if held:
                pairs += held
        return pairs

    def agrees_with(self, fresh: PathSet) -> bool:
        """Whether this set is `fresh`, and so are the element set and the
        link lookup's entries, as far as they have been built."""
        if self != fresh:
            return False
        if self._elements is not None and self._elements != fresh.elements:
            return False
        known = self._through
        return not known or sorted(self.through(known)) == sorted(fresh.through(known))


def _start(expr: PathExpr, g: TypedGraph, user: str | None) -> dict[str, None]:
    """The walk's start vertices, each mapped to None (no part grown yet):
    an instance root's refs that exist, `{user}` resolved, or the objects
    its root `admits`, from one scan of the objects."""
    root, objects = expr.root, g.data.objects
    if isinstance(root, InstanceSet):
        starts: dict[str, None] = {}
        for ref in root.refs:
            if ref == USER_VARIABLE:
                if user is None:
                    raise UnboundVariableError(
                        f"expression uses {USER_VARIABLE!r} but no binding was given"
                    )
                ref = user
            if ref in objects:
                starts[ref] = None
        return starts
    name = root.class_name
    if name not in g.schema.classes:
        raise UnknownClassError(f"unknown class {name!r}")
    states, admits = g.data.states, root.admits
    return {
        v: None
        for v, c in objects.items()
        if c == name and admits(v, c, states.get(v, {}), user)
    }


def _over_budget(walks: dict, walk_key: tuple) -> PathBudgetError:
    """Forget the walk, which memoises nothing over the budget."""
    walks.pop(walk_key, None)
    return PathBudgetError(f"path budget of {MAX_PATHS} exceeded while evaluating expression")


def evaluate(expr: PathExpr, g: TypedGraph, *, user: str | None = None) -> PathSet:
    """All paths the expression defines over the graph; `user` is the
    object id the `{user}` root stands for.  Whether a link's far end
    carries a role is one probe of the schema's `ends` table.  A call that
    finds its walk memoised returns the memoised `PathSet`; otherwise it
    grows the pending starts, every start on a first walk, and memoises
    the walk composed of the parts (see `memo.py`).  A walk of more than
    `MAX_PATHS` paths raises and memoises nothing."""
    root = expr.root
    bound = user if isinstance(root, InstanceSet) and USER_VARIABLE in root.refs else None
    walks = g.data.walks
    walk_key = (expr, g.schema, bound)
    kept = walks.get(walk_key)
    parts: dict[str, tuple[PathSet, set[str]] | None]
    if kept is None:
        parts = _start(expr, g, user)
    elif kept.paths is not None:
        return kept.paths
    else:
        parts = dict(kept.parts)  # an entry is never edited
    budget = MAX_PATHS
    segments = expr.segments
    n_segments = len(segments)
    ends = g.schema.ends
    objects = g.data.objects
    incident = g.incident
    used = 0
    for start, part in parts.items():
        if part is None:
            room = budget - used
            tips: set[str] = set()
            results: list[Path] = []
            stack: list[Path] = [(start,)]
            pop, push, emit, read = stack.pop, stack.append, results.append, tips.add
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
                        # The end away from the tip.  A self-link's far end
                        # is the tip itself, which the last test drops, so
                        # only one side of a link is ever looked up.
                        if tip == src:
                            far, key = dst, (assoc, role, False)
                        else:
                            far, key = src, (assoc, role, True)
                        cls = ends.get(key)
                        if cls is None or objects.get(far) != cls:
                            continue
                        # A link already on the path has both ends on it, so
                        # testing the far end alone keeps the path simple.
                        if far in path:
                            continue
                        push(path + (edge, far))
                        extended = True
                    if extended:
                        continue  # replaced by its extensions
                emit(path)
                if len(results) > room:
                    raise _over_budget(walks, walk_key)
            part = parts[start] = (PathSet(results), tips)
        used += len(part[0])
    if used > budget:  # the parts kept from a walk under a larger budget
        raise _over_budget(walks, walk_key)
    if len(parts) == 1:
        paths, reads = part  # the one start's part is the walk
    else:  # the parts' sets copied with their hashes: no path is rehashed
        paths = PathSet(frozenset().union(*(part for part, _ in parts.values())))
        reads = set().union(*(tips for _, tips in parts.values()))
    walks[walk_key] = tuple.__new__(Walk, (paths, reads, parts))
    return paths


def relevant_paths(
    schema: Schema, data: SystemData, exprs: list[PathExpr], *, user: str | None = None
) -> PathSet:
    g = TypedGraph(data, schema)
    found = [evaluate(expr, g, user=user) for expr in exprs]
    if len(found) == 1:
        return found[0]  # shared with every caller of a memoised walk
    return PathSet(frozenset().union(*found), tuple(found))


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
    "PathSet",
    "TypedGraph",
    "evaluate",
    "relevant_paths",
    "select_relevant",
]
