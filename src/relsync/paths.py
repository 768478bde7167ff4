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

A walk keeps its paths as a prefix tree, one node per path prefix (see
`PathSet`), and the results are its leaves.  Every walk is memoised in the
data's `walks`, and the next walk re-expands only the nodes a mutation
since marked, by the rule in `memo.py`: a child whose link is still there
keeps its subtree, a new link grows one, and a gone link drops its own.
The walk's paths are then its old set, less the dropped results, plus the
grown ones, copied with their stored hashes.

The results only ever accumulate while a walk grows: a path leaves the
stack either as a result or replaced by at least one extension, distinct
paths have distinct extensions, and a regrowth drops every result it drops
before it grows any.  So one check on their count raises exactly when the
walk's set would exceed the budget, `MAX_PATHS`.

A walk's `PathSet` carries its slice as element counts, so a sync or sweep
that finds the walk memoised reads its slice without touching a path, and
the first-new-link rule reads the subtrees under the new links' nodes.
"""

from __future__ import annotations

from collections.abc import Collection
from operator import is_, itemgetter

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

_VERTEX, _LINK = itemgetter(-1), itemgetter(-2)  # of a node, from its path


class PathSet(frozenset):
    """A frozenset of paths, equal to the plain frozenset of the same
    paths.  The set `evaluate` returns for a walk also holds the walk:
    - `roots`: each start vertex -> its node.  A node is the list
      `[path, child, …]` of its path from the start, whose last items are
      its vertex and the link into it, and its children.  A node at the
      end of the last segment has none to grow and is its path alone, a
      tuple.  The results are the leaves: those tuples, and the paths of
      the lists that nothing extends.
    - `reads`: each vertex the walk read -> the node that read it, or the
      tuple of those nodes when several did.
    - `counts`: each vertex and link on some path -> the number of nodes
      whose vertex or whose link into it that is.  Its keys are the slice.
    `relevant_paths` over several expressions returns their union, a
    `PathUnion`, whose `parts` are the walks."""

    __slots__ = ("roots", "reads", "counts")
    parts: tuple[PathSet, ...] = ()

    def below(self, links: Collection[Link]) -> tuple[set[str], set[Link]]:
        """The vertices and the links of every node that one of `links`
        leads into, and of every node under such a node."""
        reads, counts = self.reads, self.counts
        nodes = []
        for link in links:
            if link not in counts:
                continue
            for near in link[0], link[1]:
                read = reads.get(near)
                if read is None:
                    continue
                for parent in (read,) if type(read) is list else read:
                    at = len(parent[0])  # where a child's path holds its link
                    for child in parent[1:]:
                        if (child[0] if type(child) is list else child)[at] == link:
                            nodes.append(child)
        found = []
        for node in nodes:  # grows as it goes
            if type(node) is list:
                nodes += node[1:]
                node = node[0]
            found.append(node)
        return set(map(_VERTEX, found)), set(map(_LINK, found))

    def agrees_with(self, fresh: PathSet) -> bool:
        """Whether this walk is `fresh`: the same paths, starts, tree (each
        node's children, in any order), read map and element counts."""
        return (
            self == fresh
            and self.roots.keys() == fresh.roots.keys()
            and _shape(self.roots) == _shape(fresh.roots)
            and _read_paths(self.reads) == _read_paths(fresh.reads)
            and self.counts == fresh.counts
        )


class PathUnion(PathSet):
    """The paths of several walks, equal to the plain frozenset of them;
    `parts` are the walks."""

    __slots__ = ("parts",)


def _shape(roots: dict) -> dict[Path, frozenset[Path]]:
    """The path of each list node -> the paths of its children."""
    shape = {}
    nodes = [node for node in roots.values() if type(node) is list]
    while nodes:
        node = nodes.pop()
        children = node[1:]
        shape[node[0]] = frozenset(c[0] if type(c) is list else c for c in children)
        nodes += [c for c in children if type(c) is list]
    return shape


def _read_paths(reads: dict) -> dict[str, Path | frozenset[Path]]:
    """A read map with each node given by its path."""
    return {
        vertex: read[0] if type(read) is list else frozenset(node[0] for node in read)
        for vertex, read in reads.items()
    }


def _chain(roots: dict, path: Path) -> list | None:
    """The nodes from the start to the node of `path`, or None if the tree
    holds no such node."""
    node = roots.get(path[0])
    if node is None:
        return None
    chain = [node]
    for i in range(1, len(path), 2):
        link = path[i]
        for child in node[1:]:
            if (child[0] if type(child) is list else child)[i] == link:
                break
        else:
            return None
        chain.append(child)
        node = child
    return chain


def _read_too(read: list | tuple, node: list) -> tuple:
    """A read map entry that also lists `node`."""
    return (read, node) if type(read) is list else read + (node,)


def _unread(reads: dict, node: list, new: list | None = None) -> None:
    """Take `node` out of the read map, or put `new` in its place."""
    vertex = node[0][-1]
    read = reads[vertex]
    if read is node:
        if new is None:
            del reads[vertex]
        else:
            reads[vertex] = new
        return
    read = tuple(n for n in read if n is not node)
    if new is not None:
        read += (new,)
    reads[vertex] = read[0] if len(read) == 1 else read


def _drop(node, reads: dict, counts: dict, results: set) -> None:
    """Take a node and everything under it out of a walk's read map, element
    counts and results."""
    nodes = [node]
    while nodes:
        node = nodes.pop()
        if type(node) is list:
            path = node[0]
            _unread(reads, node)
            if len(node) > 1:
                nodes += node[1:]
            else:
                results.discard(path)
        else:
            path = node
            results.discard(path)
        for element in path[-2:]:
            left = counts[element] - 1
            if left:
                counts[element] = left
            else:
                del counts[element]


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
    finds its walk memoised and exact returns the memoised `PathSet`; a
    pending one is regrown from its marked nodes and its start changes,
    and a first walk grows every start (see `memo.py`).  A walk of more
    than `MAX_PATHS` paths raises and memoises nothing."""
    root = expr.root
    bound = user if isinstance(root, InstanceSet) and USER_VARIABLE in root.refs else None
    walks = g.data.walks
    walk_key = (expr, g.schema, bound)
    kept = walks.get(walk_key)
    if kept is not None and kept.pending is None:
        return kept.paths
    segments = expr.segments
    n_segments = len(segments)
    last = 2 * n_segments + 1  # the length of a path that matched every segment
    # (path, the list or dict to hold its node, where) for each node to grow
    stack: list[tuple[Path, list | dict, int | str]] = []
    marks: list[Path] = []
    if kept is None:
        starts = _start(expr, g, user)
        roots: dict = {}
        reads: dict = {}
        counts: dict = {}
        results: list[Path] | set[Path] = []
        emit = results.append
    else:  # copies: an entry is never edited
        old = kept.paths
        starts, touched = kept.pending
        roots, reads, counts = dict(old.roots), dict(old.reads), dict(old.counts)
        results = set(old)
        emit = results.add
        for vertex in touched:
            read = reads.get(vertex)
            if read is not None:
                marks += [read[0]] if type(read) is list else [node[0] for node in read]
        for start in old.roots:
            if start not in starts:
                _drop(roots.pop(start), reads, counts, results)
        # Popped shortest first, so a mark under a child its ancestor
        # dropped is gone from the tree by the time it comes up.
        marks.sort(key=len, reverse=True)
        built: set[int] = set()  # ids of the lists made here, which may be edited
    cget, rget = counts.get, reads.get
    for start in starts:
        if start not in roots:
            if n_segments:
                stack.append(((start,), roots, start))
            else:  # a start is a result of a walk with no segment
                roots[start] = path = (start,)
                counts[start] = 1
                emit(path)
    budget = MAX_PATHS
    ends = g.schema.ends
    objects = g.data.objects
    incident = g.incident
    push = stack.append
    # Every mark is re-expanded before anything grows, so every result a
    # regrowth drops is gone before the budget is checked.
    while marks or stack:
        if marks:
            path = marks.pop()
            chain = _chain(roots, path)
            if chain is None:
                continue
        else:
            path, holder, at = stack.pop()
            vertex = path[-1]
            counts[vertex] = cget(vertex, 0) + 1
            if len(path) > 1:
                link = path[-2]
                counts[link] = cget(link, 0) + 1
            chain = None
        tip = path[-1]
        role = segments[len(path) // 2]
        grown = [path]
        for edge in incident.get(tip, ()):
            src, dst, assoc = edge
            # The end away from the tip.  A self-link's far end is the tip
            # itself, which the last test drops, so only one side of a
            # link is ever looked up.
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
            grown.append(path + (edge, far))
        node = grown[:]  # a list of its own length
        if chain is None:  # a new node: grow its children
            holder[at] = node
            read = rget(tip)
            reads[tip] = node if read is None else _read_too(read, node)
            if len(node) == 1:
                emit(path)  # nothing extends it
            elif len(path) + 2 < last:
                for i in range(1, len(node)):
                    push((node[i], node, i))
                continue
            else:  # its children matched every segment: leaves
                for i in range(1, len(node)):
                    leaf = node[i]
                    link, vertex = leaf[-2], leaf[-1]
                    counts[link] = cget(link, 0) + 1
                    counts[vertex] = cget(vertex, 0) + 1
                    emit(leaf)
            if len(results) > budget:
                raise _over_budget(walks, walk_key)
            continue
        # A mark: a child whose link is still there keeps its subtree, a
        # new link grows one, and a gone link drops its own.
        was = chain[-1]
        children = {}
        for child in was[1:]:
            children[child[0] if type(child) is list else child] = child
        for i in range(1, len(node)):
            child = children.pop(node[i], None)
            if child is not None:
                node[i] = child
            elif len(path) + 2 < last:
                push((node[i], node, i))
            else:
                leaf = node[i]
                link, vertex = leaf[-2], leaf[-1]
                counts[link] = cget(link, 0) + 1
                counts[vertex] = cget(vertex, 0) + 1
                emit(leaf)
        for child in children.values():
            _drop(child, reads, counts, results)
        if len(node) > 1 and len(was) == 1:
            results.discard(path)
        elif len(node) == 1 and len(was) > 1:
            emit(path)
        # copy the path from the start down to here, up to a list made here
        _unread(reads, was, node)
        built.add(id(node))
        for parent in reversed(chain[:-1]):
            at = parent.index(was, 1)
            if id(parent) in built:
                parent[at] = node
                break
            copy = parent[:]
            copy[at] = node
            _unread(reads, parent, copy)
            built.add(id(copy))
            was, node = parent, copy
        else:
            roots[path[0]] = node
    if len(results) > budget:  # kept from a walk under a larger budget
        raise _over_budget(walks, walk_key)
    paths = PathSet(results)
    paths.roots, paths.reads, paths.counts = roots, reads, counts
    walks[walk_key] = tuple.__new__(Walk, (paths, None, reads.keys()))
    return paths


def relevant_paths(
    schema: Schema, data: SystemData, exprs: list[PathExpr], *, user: str | None = None
) -> PathSet:
    """The paths of all the expressions.  For several, their union is kept
    in the memo's `unions` until one of their walks changes."""
    g = TypedGraph(data, schema)
    found = [evaluate(expr, g, user=user) for expr in exprs]
    if len(found) == 1:
        return found[0]  # shared with every caller of a memoised walk
    if not found:  # no expression: a walk of nothing
        paths = PathSet()
        paths.roots, paths.reads, paths.counts = {}, {}, {}
        return paths
    memo = data.walks
    unions = memo.unions
    if unions is None:
        unions = memo.unions = {}
    union = unions.get(user)
    if union is None or len(union.parts) != len(found) or not all(map(is_, union.parts, found)):
        # the walks' sets copied with their hashes: no path is rehashed
        union = unions[user] = PathUnion(frozenset().union(*found))
        union.parts = tuple(found)
    return union


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
    "PathUnion",
    "TypedGraph",
    "evaluate",
    "relevant_paths",
    "select_relevant",
]
