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

A walk keeps its paths as a prefix tree, one node per path prefix, every
node the one list shape `[parent, link, vertex, *children]` (see
`PathSet`), and the results are its leaves.  Every walk is memoised in the
data's `walks`, and once a mutation reached it, by the rule in `memo.py`,
the next walk regrows the tree in place.  It drops the starts that went,
re-tests each link the mutations created or deleted alone, at each node
that read one of the link's ends (a gone link drops its child's subtree,
a new link grows one, and no other child is looked at), and grows the new
starts.

The results only ever accumulate while a walk grows: a path leaves the
stack either as a result or replaced by at least one extension, distinct
paths have distinct extensions, and a regrowth drops every result it drops
before it grows any.  So one check on their count raises exactly when the
walk's set would exceed the budget, `MAX_PATHS`.

A `PathSet` is a view over its walk's tree and holds no path of its own:
iterating it reads each path off the tree, and `frozenset(paths)` keeps a
copy.  It carries the walk's slice as element counts, so a sync or sweep
that finds the walk memoised reads its slice without touching a path, and
the first-new-link rule reads the subtrees under the new links' nodes.  A
regrowth lists the elements whose count it took to zero, which is all a
replica's sweep need look at besides what the replica created.
"""

from __future__ import annotations

from collections.abc import Collection

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
    it yet.  The data keeps that index current through `SystemData.apply`
    and a commit hands it to the next version, which later commits edit,
    so a graph serves one walk over live data (see `relevant_paths`)."""

    def __init__(self, data: SystemData, schema: Schema):
        self.schema = schema
        self.data = data
        self.incident = data.incident


# A simple path v0 -e0- v1 -e1- … -e(n-1)- vn, n >= 0, as the tuple of its
# walk (v0, e0, v1, …, vn): vertices at even indices, links at odd ones.
Path = tuple[str | Link, ...]


class PathSet:
    """The paths of one walk: a view over its prefix tree, which a regrowth
    edits in place.  Iterating it yields each path once, as its tuple; it
    is not a set, so a caller that compares paths takes `frozenset(walk)`.
    - `roots`: each start vertex -> its node.  Every node is the list
      `[parent, link, vertex, *children]`: its parent node, the link into
      it and its vertex (None and None for a start), then its children.
      A start is `[None, None, start]`, also in a walk with no segment,
      and a node that matched every segment `[parent, link, far end]`.
      The paths are the leaves, the nodes that nothing extends.  A node's
      path is read off its parents (`_path`), so no node holds a path tuple.
    - `reads`: each vertex the walk read -> the tuple of the nodes that
      read it, those with a segment left to match.
    - `counts`: each vertex and link on some path -> the number of nodes
      whose vertex or whose link into it that is.  Its keys are the slice.
    - `leaves`: the number of paths, its `len`.
    - `serial`: how many regrowths the walk has had since its first walk,
      and `zeroed`: the elements whose count the last of them took to
      zero (none after a first walk).
    `relevant_paths` over several expressions returns a `PathUnion`, whose
    `parts` are the walks."""

    __slots__ = ("roots", "reads", "counts", "leaves", "serial", "zeroed")
    parts: tuple[PathSet, ...] = ()

    def __len__(self) -> int:
        return self.leaves

    def __iter__(self):
        nodes = [(node, (start,)) for start, node in self.roots.items()]
        while nodes:
            node, path = nodes.pop()
            if len(node) == _CHILDREN:
                yield path  # nothing extends it
            for child in node[_CHILDREN:]:
                nodes.append((child, path + (child[1], child[2])))

    def below(self, links: Collection[Link]) -> tuple[set[str], set[Link]]:
        """The vertices and the links of every node that one of `links`
        leads into, and of every node under such a node."""
        reads, counts = self.reads, self.counts
        nodes = []
        ids: list[str] = []
        entered: list[Link] = []
        for link in links:
            if link not in counts:
                continue
            for near in link[0], link[1]:
                for parent in reads.get(near, ()):
                    for child in parent[_CHILDREN:]:
                        if child[1] == link:
                            nodes += (child,)
        for node in nodes:  # grows as it goes
            ids += (node[2],)
            entered += (node[1],)
            nodes += node[_CHILDREN:]
        return set(ids), set(entered)

    def agrees_with(self, fresh: PathSet) -> bool:
        """Whether this walk is `fresh`: the same count of paths, tree (each
        node's path and its children's, in any order, which gives the paths
        and the starts), read map and element counts."""
        return (
            self.leaves == fresh.leaves
            and _shape(self.roots) == _shape(fresh.roots)
            and _read_paths(self.reads) == _read_paths(fresh.reads)
            and self.counts == fresh.counts
        )

    def copy(self) -> PathSet:
        """A walk of its own with the same tree, read map and counts."""
        twins: dict[int, list] = {}
        roots = dict(self.roots)
        nodes = [(None, roots, start) for start in roots]  # (parent, holder, where)
        while nodes:
            parent, holder, at = nodes.pop()
            node = holder[at]
            holder[at] = twin = node[:]
            twin[0] = parent
            twins[id(node)] = twin
            nodes += [(twin, twin, i) for i in range(_CHILDREN, len(twin))]
        reads = {
            vertex: tuple(twins.get(id(node)) or node[:] for node in read)
            for vertex, read in self.reads.items()
        }
        return _walk(roots, reads, dict(self.counts), self.leaves, self.serial, self.zeroed)


class PathUnion:
    """The paths of several walks, a view over them; `parts` are the
    walks.  Iterating it yields each path once, in the order of the parts,
    and its `len` counts a path that several walks hold once."""

    __slots__ = ("parts",)

    def __iter__(self):
        return iter(dict.fromkeys(path for part in self.parts for path in part))

    def __len__(self) -> int:
        return sum(1 for _ in self)


# where a node's children begin, after its parent, link and vertex
_CHILDREN = 3


def _walk(roots: dict, reads: dict, counts: dict, leaves: int, serial: int, zeroed) -> PathSet:
    paths = PathSet.__new__(PathSet)
    paths.roots, paths.reads, paths.counts = roots, reads, counts
    paths.leaves, paths.serial, paths.zeroed = leaves, serial, zeroed
    return paths


def _child_at(node: list, link: Link) -> int:
    """Where in `node` its child through `link` is, or 0 if it has none."""
    for at in range(_CHILDREN, len(node)):
        if node[at][1] == link:
            return at
    return 0


def _path(node: list) -> Path:
    """The path from the start to a node, read off its parents."""
    items = [node[2]]
    while node[0] is not None:
        items += (node[1], node[0][2])
        node = node[0]
    items.reverse()
    return tuple(items)


def _shape(roots: dict) -> dict[Path, frozenset[Path]]:
    """The path of each node, read off its own parents -> the paths of its
    children."""
    shape = {}
    nodes = list(roots.values())
    while nodes:
        node = nodes.pop()
        path = _path(node)
        children = node[_CHILDREN:]
        shape[path] = frozenset(path + (c[1], c[2]) for c in children)
        nodes += children
    return shape


def _read_paths(reads: dict) -> dict[str, frozenset[Path]]:
    """A read map with each node given by its path."""
    return {vertex: frozenset(map(_path, read)) for vertex, read in reads.items()}


def _drop(node: list, reads: dict, counts: dict, zeroed: list) -> int:
    """Take a node and everything under it out of a walk's read map and
    element counts, listing in `zeroed` each element whose count falls to
    zero; returns the number of paths it held.  Each node lets go of its
    parent, so the subtree is freed as soon as nothing else holds it."""
    leaves = 0
    nodes = [node]
    for node in nodes:  # grows as it goes
        node[0] = None
        link, vertex = node[1], node[2]
        if vertex in reads:  # whether or not the node is among them
            others = tuple([n for n in reads[vertex] if n is not node])
            if others:
                reads[vertex] = others
            else:
                del reads[vertex]
        if len(node) > _CHILDREN:
            nodes += node[_CHILDREN:]
        else:
            leaves += 1
        for element in (vertex,) if link is None else (link, vertex):
            left = counts[element] - 1
            if left:
                counts[element] = left
            else:
                del counts[element]
                zeroed.append(element)
    return leaves


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
    pending one is regrown in place from its touched links and its start
    flips, and a first walk grows every start (see `memo.py`).  A walk of
    more than `MAX_PATHS` paths raises and memoises nothing."""
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
    ends = g.schema.ends
    objects = g.data.objects
    # (path, parent node, the list or dict to hold its node, where) for
    # each node to grow
    stack: list[tuple[Path, list | None, list | dict, int | str]] = []
    push = stack.append
    if kept is None:
        paths = PathSet.__new__(PathSet)
        paths.roots = roots = {}
        paths.reads = reads = {}
        paths.counts = counts = {}
        leaves = paths.serial = 0
        paths.zeroed = ()
        starts = _start(expr, g, user)
    else:
        paths = kept.paths
        roots, reads, counts = paths.roots, paths.reads, paths.counts
        leaves = paths.leaves
        paths.serial += 1
        paths.zeroed = zeroed = []
        links, flips = kept.pending
        starts = []
        for start, admitted in flips.items():
            if admitted:
                if start not in roots:
                    starts.append(start)
            elif start in roots:
                leaves -= _drop(roots.pop(start), reads, counts, zeroed)
        # Each touched link, re-tested alone at each node that read one of
        # its ends: whether it is that node's child depends on nothing
        # else.  A gone link drops its child's subtree first.
        held = g.data.links
        present = []
        for link in dict.fromkeys(links) if len(links) > 1 else links:
            if link in held:
                present.append(link)
                continue
            for near in link[0], link[1]:
                if link not in counts:
                    break  # a child of no node
                for node in reads.get(near, ()):
                    at = _child_at(node, link)
                    if at:
                        leaves -= _drop(node.pop(at), reads, counts, zeroed)
                        if len(node) == _CHILDREN:
                            leaves += 1  # nothing extends it now
        # A link that is there is a new child where it passes the test and
        # is not a child yet; a link no node holds is nobody's child.
        additions = []
        for link in present:
            src, dst, assoc = link
            for near, far, far_is_src in (src, dst, False), (dst, src, True):
                read = reads.get(near)
                if read is None or far == near:
                    continue
                cls = objects.get(far)
                for node in read:
                    # its depth, from its parents, unless the far end is
                    # on its path, which must stay simple
                    depth, up = 0, node[0]
                    while up is not None and up[2] != far:
                        depth += 1
                        up = up[0]
                    if up is not None:
                        continue
                    if ends.get((assoc, segments[depth], far_is_src)) != cls:
                        continue
                    if link in counts and _child_at(node, link):
                        continue  # a child already
                    additions.append((node, link, far, depth))
        for node, link, far, depth in additions:
            if len(node) == _CHILDREN:
                leaves -= 1  # extended now
            if depth + 1 < n_segments:  # the child has a segment left
                node.append(None)  # in its place until it grows
                push((_path(node) + (link, far), node, node, len(node) - 1))
            else:
                node.append([node, link, far])
                counts[link] = counts.get(link, 0) + 1
                counts[far] = counts.get(far, 0) + 1
                leaves += 1
    cget, rget = counts.get, reads.get
    for start in starts:
        if n_segments:
            push(((start,), None, roots, start))
        else:  # a start is a path of a walk with no segment
            roots[start] = [None, None, start]
            counts[start] = 1
            leaves += 1
    budget = MAX_PATHS
    incident = g.incident
    while stack:
        path, parent, holder, at = stack.pop()
        tip = path[-1]
        counts[tip] = cget(tip, 0) + 1
        if parent is None:
            link = None
        else:
            link = path[-2]
            counts[link] = cget(link, 0) + 1
        role = segments[len(path) // 2]
        inner = len(path) + 2 < last  # whether its children have a segment left
        grown = [parent, link, tip]
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
            if inner:
                grown.append(path + (edge, far))  # the child's path, until it grows
            else:  # a leaf, whose parent is set once the node is built
                grown.append([None, edge, far])
                counts[edge] = cget(edge, 0) + 1
                counts[far] = cget(far, 0) + 1
        holder[at] = node = grown[:]  # a list of its own length
        reads[tip] = rget(tip, ()) + (node,)
        if len(node) == _CHILDREN:
            leaves += 1  # nothing extends it
        elif inner:
            for i in range(_CHILDREN, len(node)):
                push((node[i], node, node, i))
            continue
        else:  # its children matched every segment: leaves
            for leaf in node[_CHILDREN:]:
                leaf[0] = node
            leaves += len(node) - _CHILDREN
        if leaves > budget:
            raise _over_budget(walks, walk_key)
    if leaves > budget:  # kept from a walk under a larger budget
        raise _over_budget(walks, walk_key)
    paths.leaves = leaves
    walks[walk_key] = tuple.__new__(Walk, (paths, None, reads.keys()))
    return paths


def relevant_paths(
    schema: Schema, data: SystemData, exprs: list[PathExpr], *, user: str | None = None
) -> PathSet | PathUnion:
    """The paths of all the expressions: for one, its walk's `PathSet`,
    shared with every caller of the memoised walk; for several, a
    `PathUnion` over their walks."""
    g = TypedGraph(data, schema)
    if len(exprs) == 1:
        return evaluate(exprs[0], g, user=user)
    if not exprs:  # a walk of nothing
        return _walk({}, {}, {}, 0, 0, ())
    union = PathUnion.__new__(PathUnion)
    union.parts = tuple([evaluate(expr, g, user=user) for expr in exprs])
    return union


def select_relevant(
    schema: Schema, data: SystemData, exprs: list[PathExpr], *, user: str | None = None
) -> SystemData:
    """The slice of the data on the expressions' paths, read off each
    walk's element counts: their objects with copies of their states, and
    their links."""
    paths = relevant_paths(schema, data, exprs, user=user)
    classes, held = data.objects, data.links
    objects: dict[str, str] = {}
    links: set[Link] = set()
    for walk in paths.parts or (paths,):
        on_path = walk.counts.keys()
        for oid in on_path & classes.keys():  # an id never equals a link
            objects[oid] = classes[oid]
        links |= on_path & held
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
