"""Independent reference implementations used as test oracles.

Nothing here imports the path-derivation engine.  The enumerator below
lists *every* simple path up to the expression's length by scanning the
raw link set, filters by the role sequence (reading association
definitions directly), and keeps maximal matched prefixes.  It is
deliberately brute-force: O(paths) with no frontier bookkeeping, so a bug
in the engine's incremental derivation cannot hide here.

`brute_force_timestamp_delta` applies the timestamp sync's rule to the
enumerator's paths, step by step as the rule is stated, so the engine's
folded single walk has a reference to answer to.  `scanned_creates`
applies the rule's create part to given paths by scanning every one of
them, as the sync did before it looked the paths up by link.

The spec's reference predicates (`is_path`, `is_sub_path`, `is_subdata`)
live here too: only the tests ask them.  So does `validate_all`, the
store's scoped schema check run over every element of the data.

Also hosts the random instance generator shared by the property tests and
the acceptance suite (same seeds -> same instances in both places).
"""

from __future__ import annotations

import random

from relsync.changelog import ActionType, ChangeLog
from relsync.expr import ClassAll, ClassFilter, InstanceSet, PathExpr
from relsync.model import AssociationDef, Link, Schema, SystemData, validate_schema

PathPair = tuple[tuple[str, ...], tuple[Link, ...]]


# -- independent semantics ----------------------------------------------------


def _kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    return "str"


def _filter_passes(state: dict, node: ClassFilter) -> bool:
    if node.attribute not in state:
        return False
    value = state[node.attribute]
    if _kind(value) != _kind(node.literal):
        return node.comparator == "!="
    if node.comparator == "=":
        return value == node.literal
    if node.comparator == "!=":
        return value != node.literal
    if _kind(value) == "bool":
        return False
    return value < node.literal if node.comparator == "<" else value > node.literal


def root_objects(expr: PathExpr, data: SystemData, user: str | None) -> set[str]:
    root = expr.root
    if isinstance(root, InstanceSet):
        refs = set()
        for ref in root.refs:
            if ref == "user":
                assert user is not None, "trial forgot its user"
                ref = user
            refs.add(ref)
        return {r for r in refs if r in data.objects}
    if isinstance(root, ClassAll):
        return {o for o, c in data.objects.items() if c == root.class_name}
    return {
        o
        for o, c in data.objects.items()
        if c == root.class_name and _filter_passes(data.states.get(o, {}), root)
    }


def _far_in_role(
    schema: Schema, data: SystemData, far: str, link: Link, role: str
) -> bool:
    assoc = schema.assocs.get(link.assoc)
    if assoc is None:
        return False
    if far == link.src and data.objects.get(far) == assoc.class_a:
        return role == assoc.role_a
    if far == link.dst and data.objects.get(far) == assoc.class_b:
        return role == assoc.role_b
    return False


def _steps(data: SystemData, verts: tuple[str, ...], edges: tuple[Link, ...]):
    """Every (link, far) continuing the walk while keeping it simple."""
    tip = verts[-1]
    for link in data.links:
        if link.src == tip:
            far = link.dst
        elif link.dst == tip:
            far = link.src
        else:
            continue
        if far in verts or link in edges:
            continue
        yield link, far


def _all_simple_walks(data: SystemData, start: str, max_edges: int) -> list[PathPair]:
    walks: list[PathPair] = [((start,), ())]
    frontier: list[PathPair] = [((start,), ())]
    for _ in range(max_edges):
        grown: list[PathPair] = []
        for verts, edges in frontier:
            for link, far in _steps(data, verts, edges):
                grown.append((verts + (far,), edges + (link,)))
        walks.extend(grown)
        frontier = grown
    return walks


def _matches(
    schema: Schema, data: SystemData, walk: PathPair, segments: tuple[str, ...]
) -> bool:
    verts, edges = walk
    for i, link in enumerate(edges):
        if not _far_in_role(schema, data, verts[i + 1], link, segments[i]):
            return False
    return True


def brute_force_paths(
    schema: Schema,
    data: SystemData,
    expr: PathExpr,
    user: str | None = None,
) -> set[PathPair]:
    """All maximal role-matched simple paths, the slow honest way."""
    n = len(expr.segments)
    keep: set[PathPair] = set()
    for start in root_objects(expr, data, user):
        for walk in _all_simple_walks(data, start, n):
            if not _matches(schema, data, walk, expr.segments):
                continue
            _, edges = walk
            k = len(edges)
            if k < n:
                next_role = expr.segments[k]
                extendable = any(
                    _far_in_role(schema, data, far, link, next_role)
                    for link, far in _steps(data, *walk)
                )
                if extendable:
                    continue  # a longer match subsumes this prefix
            keep.add(walk)
    return keep


def brute_force_timestamp_delta(
    schema: Schema,
    data: SystemData,
    log: ChangeLog,
    exprs: list[PathExpr],
    user: str,
    ts_ls: int,
) -> tuple[set[tuple[str, str]], set[str], set[Link]]:
    """(created objects, updated ids, created links) the timestamp rule sends.

    For every relevant path: skip it when none of its elements was created
    or updated after the cursor; otherwise take what was created or updated
    after it, and sweep everything from the first newly created edge onward
    into the creates.  An object that is created never also counts as
    updated."""

    def newer(element, action: ActionType) -> bool:
        ts = log.ts(element, action)
        return ts is not None and ts > ts_ls

    crt_ids: set[str] = set()
    upd_ids: set[str] = set()
    crt_links: set[Link] = set()
    for expr in exprs:
        for verts, edges in brute_force_paths(schema, data, expr, user):
            elements: list = [verts[0]]
            for edge, vertex in zip(edges, verts[1:]):
                elements += [edge, vertex]
            if not any(
                newer(x, ActionType.CREATE) or newer(x, ActionType.UPDATE)
                for x in elements
            ):
                continue
            taken = [x for x in elements if newer(x, ActionType.CREATE)]
            upd_ids.update(
                x for x in elements
                if not isinstance(x, Link) and newer(x, ActionType.UPDATE)
            )
            new_edges = [
                i for i, x in enumerate(elements)
                if isinstance(x, Link) and newer(x, ActionType.CREATE)
            ]
            if new_edges:
                taken += elements[new_edges[0]:]
            for x in taken:
                (crt_links if isinstance(x, Link) else crt_ids).add(x)
    return (
        {(oid, data.objects[oid]) for oid in crt_ids},
        upd_ids - crt_ids,
        crt_links,
    )


def scanned_creates(paths, log: ChangeLog, ts_ls: int) -> tuple[set[str], set[Link]]:
    """(created ids, created links) by the timestamp sync's create rule as
    first written, over the engine's paths (interleaved walks): what lies
    on some path and was created after the cursor, then, scanning every
    path for a new link, everything from a path's first new link on."""
    on_path = set().union(*paths)
    created = {e for e in on_path if (log.ts(e, ActionType.CREATE) or 0) > ts_ls}
    crt_links = {e for e in created if isinstance(e, Link)}
    crt_ids = created - crt_links
    new_links = frozenset(crt_links)
    for p in paths:
        if new_links.isdisjoint(p):
            continue
        for first in range(1, len(p), 2):
            if p[first] in new_links:
                break
        crt_links.update(p[first::2])
        crt_ids.update(p[first + 1::2])
    return crt_ids, crt_links


def as_pairs(paths) -> set[PathPair]:
    """Engine output (interleaved walks) -> the enumerator's
    (vertices, edges) form."""
    return {(p[0::2], p[1::2]) for p in paths}


# -- reference predicates ------------------------------------------------------
#
# The spec's definitions, stated directly over the raw data.  A path is the
# engine's interleaved walk `(v0, e0, v1, …, vn)`; `g` is anything with a
# `data` attribute, such as the engine's `TypedGraph`.


def is_path(p, g) -> bool:
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


def is_sub_path(p, q, g, proper: bool = False) -> bool:
    """True iff q starts with p (and extends it strictly, when `proper`)."""
    if not is_path(p, g) or not is_path(q, g):
        return False
    if proper and len(p) == len(q):
        return False
    return q[: len(p)] == p


def is_subdata(d2: SystemData, d1: SystemData) -> bool:
    """True iff d2 is a restriction of d1 to a subset of its objects.

    Objects keep their classes, links are a subset of d1's links between
    d2's objects, and states agree exactly on d2's objects.
    """
    for oid, cls in d2.objects.items():
        if d1.objects.get(oid) != cls:
            return False
    for link in d2.links:
        if link not in d1.links:
            return False
        if link.src not in d2.objects or link.dst not in d2.objects:
            return False
    for oid in d2.objects:
        if d2.states.get(oid) != d1.states.get(oid):
            return False
    return True


def validate_all(schema: Schema, data: SystemData) -> list[str]:
    """Every schema violation in the data: the scoped check over every
    object, every state id without an object, and every link."""
    strays = [oid for oid in data.states if oid not in data.objects]
    return validate_schema(schema, data, [*data.objects, *strays, *data.links])


# -- random instances ----------------------------------------------------------

_CLASS_POOL = ["Alpha", "Beta", "Gamma", "Delta"]
_ROLE_POOL = ["left", "right", "peer", "mate", "kin"]
_NAME_POOL = ["red", "blue", "green"]


def random_schema(rng: random.Random) -> Schema:
    classes = set(rng.sample(_CLASS_POOL, rng.randint(2, 4)))
    ordered = sorted(classes)
    schema = Schema(classes=set(classes))
    for i in range(rng.randint(2, 5)):
        class_a = rng.choice(ordered)
        class_b = rng.choice(ordered)
        role_a = rng.choice(_ROLE_POOL)
        if class_a == class_b:
            role_b = rng.choice([r for r in _ROLE_POOL if r != role_a])
        else:
            # repeats across associations are welcome: they exercise the
            # orientation logic that tells two same-named roles apart
            role_b = rng.choice(_ROLE_POOL)
        schema.add_assoc(AssociationDef(f"Rel{i}", class_a, role_a, class_b, role_b))
    return schema


def _random_value(rng: random.Random, key: str):
    if key == "size":
        return rng.randint(0, 3)
    if key == "flag":
        return rng.random() < 0.5
    return rng.choice(_NAME_POOL)


def random_data(
    rng: random.Random, schema: Schema, max_objects: int
) -> SystemData:
    ordered_classes = sorted(schema.classes)
    n = rng.randint(1, max_objects)
    objects = {f"v{i}": rng.choice(ordered_classes) for i in range(n)}
    states = {}
    for oid in objects:
        state = {}
        for key in ("size", "flag", "name"):
            if rng.random() < 0.5:
                state[key] = _random_value(rng, key)
        states[oid] = state
    links: set[Link] = set()
    edge_prob = min(1.0, 3.0 / max(n, 1))
    for name in sorted(schema.assocs):
        assoc = schema.assocs[name]
        for src in (o for o, c in objects.items() if c == assoc.class_a):
            for dst in (o for o, c in objects.items() if c == assoc.class_b):
                if src == dst and rng.random() < 0.9:
                    continue  # keep self-loops rare but present
                if rng.random() < edge_prob:
                    links.add(Link(src, dst, name))
    return SystemData(objects=objects, links=links, states=states)


def random_expr(
    rng: random.Random, schema: Schema, data: SystemData
) -> tuple[PathExpr, str | None]:
    """An expression over the data, and the user its `{user}` root stands
    for (None when the root is not `{user}`)."""
    roles = sorted(
        {a.role_a for a in schema.assocs.values()}
        | {a.role_b for a in schema.assocs.values()}
    ) + ["nosuchrole"]
    segments = tuple(rng.choice(roles) for _ in range(rng.randint(0, 4)))
    ids = sorted(data.objects)
    user: str | None = None
    roll = rng.random()
    if roll < 0.4 and ids:
        root = InstanceSet(("user",))
        user = rng.choice(ids)
    elif roll < 0.6:
        pool = ids + ["zz"]  # a ref may dangle; it simply matches nothing
        refs = tuple(dict.fromkeys(rng.choice(pool) for _ in range(rng.randint(1, 2))))
        root = InstanceSet(refs)
    elif roll < 0.8:
        root = ClassAll(rng.choice(sorted(schema.classes)))
    else:
        attribute = rng.choice(["size", "flag", "name", "ghost"])
        literal = rng.choice([1, True, "red"])
        root = ClassFilter(
            rng.choice(sorted(schema.classes)),
            attribute,
            rng.choice(["=", "!=", "<", ">"]),
            literal,
        )
    return PathExpr(root=root, segments=segments), user


def random_instance(
    rng: random.Random, max_objects: int = 8
) -> tuple[Schema, SystemData, PathExpr, str | None]:
    schema = random_schema(rng)
    data = random_data(rng, schema, max_objects)
    expr, user = random_expr(rng, schema, data)
    return schema, data, expr, user


# -- plain delta replay ---------------------------------------------------------


def apply_plainly(data: SystemData, delta) -> SystemData:
    """Replay a delta onto a copy of `data` with no client-side cleverness.

    No schema checks, no GC, no warnings: creates insert, updates replace
    the state wholesale, deletes remove the object and its incident links.
    Used to check that a delta alone carries enough to rebuild the target."""
    out = data.copy()
    for oid, cls in delta.crt_objects:
        out.objects[oid] = cls
        out.states[oid] = dict(delta.states.get(oid, {}))
    for link in delta.crt_links:
        out.links.add(link)
    for oid in delta.upd_objects:
        out.states[oid] = dict(delta.states.get(oid, {}))
    for link in delta.del_links:
        out.links.discard(link)
    for oid in delta.del_objects:
        if oid in out.objects:
            for link in list(out.links):
                if link.touches(oid):
                    out.links.discard(link)
            del out.objects[oid]
            out.states.pop(oid, None)
    return out
