"""The memo on `SystemData`: expression walks.

A memoised answer must always be the one a fresh walk gives.  Each check
below compares it with a walk over `data.copy()`, which starts with no
memo, after mutations applied in place and through `Store.apply`, start
by start.  One rule keeps a walk: its tree stays memoised across
mutations and versions, a mutation reaches it by a link created or
deleted at a vertex it read, or by changing whether the root admits an
object, and a reached walk is regrown in place until its record holds
more links than it read vertices.  The drop cases below each meet the
rule one way and must regrow that start alone; the keep cases each come
close to it without meeting it.
"""

from __future__ import annotations

import operator
import random
import sys
import tracemalloc

import pytest

import relsync.memo as memo_module
import relsync.paths as paths_module
from brute_force import random_data, random_expr, random_schema
from relsync.errors import PathBudgetError, UnboundVariableError
from relsync.fuzz import EXPR_CONTACTS, EXPR_EVENTS, FuzzBounds, _Generator, stale_walks
from relsync.expr import (
    ClassAll,
    ClassFilter,
    InstanceSet,
    PathExpr,
    USER_VARIABLE,
    parse_expression,
)
from relsync.model import (
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    Schema,
    SystemData,
    UpdateState,
)
from relsync.paths import TypedGraph, evaluate, relevant_paths
from relsync.replica import Replica
from relsync.runner import MODES, run_scenario
from relsync.store import Store
from relsync.sync import SyncCursor, timestamp_sync

from conftest import build_f1


def fresh_paths(schema: Schema, data: SystemData, exprs, user=None):
    return frozenset(relevant_paths(schema, data.copy(), exprs, user=user))


def walk_key(schema: Schema, expr: PathExpr, user: str | None) -> tuple:
    """The memo key of the expression's walk for `user`."""
    return (expr, schema, user if USER_VARIABLE in getattr(expr.root, "refs", ()) else None)


# What `parts_of` gives for a start its walk has yet to grow or regrow.
PENDING = "pending"


def parts_of(schema: Schema, data: SystemData, expr: PathExpr, user=None) -> dict:
    """start -> its node as memoised, or PENDING for a start the walk has
    yet to grow or under which a node read an end of a link created or
    deleted since; empty when the walk is not memoised."""
    walk = data.walks.get(walk_key(schema, expr, user))
    if walk is None:
        return {}
    roots = walk.paths.roots
    if walk.pending is None:
        return dict(roots)
    links, flips = walk.pending
    starts = dict.fromkeys(roots)
    for start, admitted in flips.items():
        if admitted:
            starts[start] = None
        else:
            starts.pop(start, None)
    marked = set()
    for vertex in {end for link in links for end in link[:2]}:
        marked.update(paths_module._path(node, {})[0] for node in walk.paths.reads.get(vertex, ()))
    return {s: PENDING if s in marked or s not in roots else roots[s] for s in starts}


def expected_tree(paths, segments: int) -> tuple[dict, dict, dict]:
    """The read map, element counts and tree shape (each node's path -> its
    children's paths) of the prefix tree of `paths`, from their
    definitions: a node per prefix, and a node reads its vertex while it
    has a segment left to match."""
    nodes = {p[:i] for p in paths for i in range(1, len(p) + 1, 2)}
    counts: dict = {}
    read: dict = {}
    for p in nodes:
        for element in p[-2:]:
            counts[element] = counts.get(element, 0) + 1
        if len(p) // 2 < segments:
            read.setdefault(p[-1], set()).add(p)
    reads = {v: frozenset(s) for v, s in read.items()}
    shape = {
        p: frozenset(q for q in nodes if len(q) == len(p) + 2 and q[: len(p)] == p)
        for p in nodes
    }
    return reads, counts, shape


def tree_nodes(roots: dict) -> list[list]:
    """Every node of a prefix tree, each checked to be the list
    `[parent, link, vertex, *children]` whose children name it as their
    parent, and each start as its root's node with no parent or link."""
    nodes = []
    for start, node in roots.items():
        assert type(node) is list and node[:3] == [None, None, start]
        nodes.append(node)
    for node in nodes:  # grows as it goes
        for child in node[3:]:
            assert type(child) is list and child[0] is node
            assert node[2] in child[1][:2] and child[2] in child[1][:2]
            nodes.append(child)
    return nodes


def assert_set_fresh(walked, fresh, segments: int) -> None:
    """A walk is the fresh one: its paths and starts, and its read map,
    element counts and tree, each against its definition over the fresh
    paths."""
    assert frozenset(walked) == frozenset(fresh)
    assert len(walked) == len(fresh)
    assert walked.roots.keys() == fresh.roots.keys()
    reads, counts, shape = expected_tree(fresh, segments)
    assert paths_module._read_paths(walked.reads, {}) == reads
    assert walked.counts == counts
    assert paths_module._shape(walked.roots, {}) == shape
    # the read map holds exactly the nodes with a segment left, each once
    nodes = tree_nodes(walked.roots)
    reading = [n for n in nodes if (len(paths_module._path(n, {})) - 1) // 2 < segments]
    listed = [n for read in walked.reads.values() for n in read]
    assert all(type(read) is tuple for read in walked.reads.values())
    assert sorted(map(id, listed)) == sorted(map(id, reading))
    assert all(n[2] == vertex for vertex, read in walked.reads.items() for n in read)


def assert_fresh(schema: Schema, data: SystemData, expr: PathExpr, user=None) -> None:
    """The memoised walk is the fresh one, start by start: the same start
    set, each start's subtree the fresh walk's from the same start, and
    the walk's read map, counts and paths the fresh walk's."""
    walked = relevant_paths(schema, data, [expr], user=user)
    copy = data.copy()
    fresh = relevant_paths(schema, copy, [expr], user=user)
    assert data.walks[walk_key(schema, expr, user)].pending is None
    for start, node in walked.roots.items():
        ours = paths_module._shape({start: node}, {})
        assert ours == paths_module._shape({start: fresh.roots[start]}, {})
        assert {p[0] for p in ours} == {start}
    assert_set_fresh(walked, fresh, len(expr.segments))


def check_below(walked) -> None:
    """The nodes under every other link of the walk are those the
    first-new-link rule reads off its paths."""
    links = set(sorted(e for e in walked.counts if isinstance(e, Link))[::2])
    ids: set = set()
    entered: set = set()
    for p in walked:
        first = next((i for i in range(1, len(p), 2) if p[i] in links), None)
        if first is not None:
            entered.update(p[first::2])
            ids.update(p[first + 1::2])
    assert walked.below(links) == (ids, entered)


# An expression and the user its `{user}` root stands for (None for a
# root that does not name `{user}`).
Drawn = tuple[PathExpr, str | None]


def stream_exprs(rng: random.Random, schema: Schema, data: SystemData) -> list[Drawn]:
    """Four expressions, `{user}`-rooted ones among them."""
    return [random_expr(rng, schema, data) for _ in range(4)]


def random_state(rng: random.Random) -> dict:
    return {
        key: value
        for key, value in (("size", rng.randint(0, 3)), ("flag", rng.random() < 0.5),
                           ("name", rng.choice(["red", "blue"])))
        if rng.random() < 0.6
    }


def random_mutation(rng: random.Random, schema: Schema, data: SystemData, fresh):
    """One mutation the store accepts against `data`."""
    live = sorted(data.objects)
    kind = rng.choice(["create", "update", "update", "delete", "link", "link", "unlink"])
    if kind == "update" and live:
        return UpdateState.make(rng.choice(live), random_state(rng))
    if kind == "delete" and live:
        return DeleteObject(rng.choice(live))
    if kind == "unlink" and data.links:
        return DeleteLink(rng.choice(sorted(data.links)))
    if kind == "link":
        assoc = schema.assocs[rng.choice(sorted(schema.assocs))]
        srcs = [o for o in live if data.objects[o] == assoc.class_a]
        dsts = [o for o in live if data.objects[o] == assoc.class_b]
        if srcs and dsts:
            link = Link(rng.choice(srcs), rng.choice(dsts), assoc.name)
            if link not in data.links:
                return CreateLink(link)
    return CreateObject.make(next(fresh), rng.choice(sorted(schema.classes)), random_state(rng))


def check_memos(schema: Schema, data: SystemData, drawn: list[Drawn]) -> None:
    """Walk twice (the second call reads the memo) and compare both with a
    fresh walk; every memoised walk must be exact, and so must the nodes
    it finds under half its links."""
    assert stale_walks(data) == []
    for expr, user in drawn:
        walked = relevant_paths(schema, data, [expr], user=user)
        assert_fresh(schema, data, expr, user)
        check_below(walked)
        assert relevant_paths(schema, data, [expr], user=user) is walked
        assert walk_key(schema, expr, user) in data.walks
    assert {key[0] for key in data.walks} == {expr for expr, _ in drawn}


@pytest.mark.parametrize("seed", range(120))
def test_memoised_walks_match_a_fresh_walk_over_mutation_streams(seed):
    rng = random.Random(seed)
    schema = random_schema(rng)
    start = random_data(rng, schema, max_objects=12)
    drawn = stream_exprs(rng, schema, start)
    fresh = (f"n{i}" for i in range(10**6))

    # in place: each mutation goes through SystemData.apply
    data = start.copy()
    check_memos(schema, data, drawn)
    for _ in range(25):
        data.apply(random_mutation(rng, schema, data, fresh))
        check_memos(schema, data, drawn)

    # through the store: each batch commits in place and leaves the
    # version it replaced holding its undo journal
    store = Store(schema)
    store.apply(
        [CreateObject(oid, cls, start.states[oid]) for oid, cls in start.objects.items()]
        + [CreateLink(link) for link in start.links]
    )
    check_memos(schema, store.data, drawn)
    for _ in range(12):
        previous = store.data
        # copies: the walks move on to the next version, regrown in place
        before = [frozenset(relevant_paths(schema, previous, [e], user=u)) for e, u in drawn]
        batch: list = []
        # the batch is drawn mutation by mutation on a draft, so it may hold
        # any kind
        staged = previous.copy()
        for _ in range(rng.randint(1, 3)):
            m = random_mutation(rng, schema, staged, fresh)
            if isinstance(m, CreateLink) and DeleteLink(m.link) in batch:
                continue  # the store would stage the create first
            staged.apply(m)
            batch.append(m)
        store.apply(batch)
        assert "objects" not in vars(previous)  # rebuilt only when read
        assert previous.walks == {}  # a superseded version keeps no walks
        check_memos(schema, store.data, drawn)
        # the superseded version still walks to what it did
        after = [frozenset(relevant_paths(schema, previous, [e], user=u)) for e, u in drawn]
        assert after == before


def test_streams_cover_every_shared_root_kind():
    kinds = set()
    user_rooted = 0
    for seed in range(120):
        rng = random.Random(seed)
        schema = random_schema(rng)
        start = random_data(rng, schema, max_objects=12)
        for expr, user in stream_exprs(rng, schema, start):
            if user is None:
                kinds.add(type(expr.root))
            else:
                user_rooted += 1
    assert kinds == {ClassAll, ClassFilter, InstanceSet}
    assert user_rooted > 100


# Filter roots over attributes the generator's random states flip often;
# each generated client gets one beside its `{user}` expressions, so the
# replicas memoise class-rooted walks too.
PROBES = (
    "Event[flag=true].Participation.Identity",
    "Identity[flag=true].Contact",
    "Event[size<50]",
    "Identity[flag!=true].Participation.Event",
)


def test_generated_runs_keep_every_memoised_walk_fresh():
    """After every sync of generated scenarios, in every mode, each walk
    memoised on the store's live data and on every replica's data equals
    a fresh walk.  Only the memos are checked here: the divergence reports
    the filter roots may cause are not."""
    rng = random.Random(1919)
    hits = replica_class_rooted = 0
    for _ in range(100):
        scenario = _Generator(rng, FuzzBounds()).build()
        for decl in scenario.clients.values():
            decl.exprs.append(parse_expression(rng.choice(PROBES)))
        for mode in MODES:
            bad: list[str] = []

            def hook(ctx, index, client, applied, shadow):
                nonlocal hits, replica_class_rooted
                for owner, data in [("store", ctx.store.data)] + [
                    (name, replica.data) for name, replica in ctx.replicas.items()
                ]:
                    hits += len(data.walks)
                    if owner != "store":
                        replica_class_rooted += sum(
                            not isinstance(expr.root, InstanceSet) for expr, _, _ in data.walks
                        )
                    bad.extend(f"{mode} step {index} {owner}: {w}" for w in stale_walks(data))

            run_scenario(scenario, mode=mode, on_sync=hook)
            assert bad == []
    assert hits > 1000
    assert replica_class_rooted > 1000


def _event_store(schema) -> Store:
    store = build_f1(Store(schema))
    store.apply([CreateObject.make("E2", "Event", {"title": "quiz"})])
    return store


def test_an_update_that_flips_a_filter_is_seen(schema):
    expr = parse_expression('Event[title="quiz"].Participation.Identity')
    # through the store
    store = _event_store(schema)
    assert frozenset(relevant_paths(schema, store.data, [expr])) == {("E2",)}
    store.apply([UpdateState.make("E1", {"title": "quiz"})])
    flipped = frozenset(relevant_paths(schema, store.data, [expr]))  # the walk is regrown in place
    assert flipped == fresh_paths(schema, store.data, [expr])
    assert ("E2",) in flipped and any(p[0] == "E1" for p in flipped)
    store.apply([UpdateState.make("E2", {"title": "picnic"})])
    assert frozenset(relevant_paths(schema, store.data, [expr])) == flipped - {("E2",)}
    # in place
    data = _event_store(schema).data
    assert frozenset(relevant_paths(schema, data, [expr])) == {("E2",)}
    data.apply(UpdateState.make("E1", {"title": "quiz"}))
    assert frozenset(relevant_paths(schema, data, [expr])) == flipped


def test_a_derived_version_creates_and_deletes_without_touching_its_parent(schema):
    exprs = [parse_expression("Event.Participation"), parse_expression('Event[title="quiz"]')]
    store = _event_store(schema)
    parent = store.data
    # copies: the parent's walks move on to each next version
    seen = frozenset(relevant_paths(schema, parent, exprs))

    # a create and a delete through the store, with the parent held as a
    # snapshot
    store.apply([CreateObject.make("E3", "Event", {"title": "quiz"})])
    created = store.data
    with_e3 = frozenset(relevant_paths(schema, created, exprs))
    assert with_e3 == fresh_paths(schema, created, exprs)
    assert ("E3",) in with_e3
    store.apply([DeleteObject("E2")])
    assert frozenset(relevant_paths(schema, store.data, exprs)) == fresh_paths(
        schema, store.data, exprs
    )
    assert frozenset(relevant_paths(schema, parent, exprs)) == seen
    assert frozenset(relevant_paths(schema, created, exprs)) == with_e3


def test_two_clients_with_one_shared_expression_get_the_same_frozenset(f1_data, schema):
    text = "Event.Participation.Identity"
    first = relevant_paths(schema, f1_data, [parse_expression(text)], user="I1")
    second = relevant_paths(schema, f1_data, [parse_expression(text)], user="I2")
    assert first is second
    assert frozenset(first) == fresh_paths(schema, f1_data, [parse_expression(text)])


def test_two_users_get_separate_entries_each_equal_to_a_fresh_walk(f1_data, schema):
    expr = parse_expression("{user}.Participation.Event.Participation.Identity")
    mine = relevant_paths(schema, f1_data, [expr], user="I1")
    theirs = relevant_paths(schema, f1_data, [expr], user="I2")
    assert frozenset(mine) != frozenset(theirs)
    assert set(f1_data.walks) == {(expr, schema, "I1"), (expr, schema, "I2")}
    assert frozenset(f1_data.walks[(expr, schema, "I1")].paths) == fresh_paths(
        schema, f1_data, [expr], user="I1"
    )
    assert frozenset(f1_data.walks[(expr, schema, "I2")].paths) == fresh_paths(
        schema, f1_data, [expr], user="I2"
    )
    assert relevant_paths(schema, f1_data, [expr], user="I1") is mine


def test_an_untouched_commit_keeps_the_identical_frozenset(schema):
    store = _event_store(schema)
    drawn = [
        (parse_expression("{user}.Contact.contactIdentity"), "I1"),
        (parse_expression("{user}.Participation.Event"), "I3"),
        (parse_expression('Event[title="picnic"].Participation.Identity'), None),
        (parse_expression("Event"), None),
        (parse_expression("{I2,zz}"), None),
    ]
    before = [relevant_paths(schema, store.data, [e], user=u) for e, u in drawn]
    store.apply([
        UpdateState.make("I2", {"name": "bo2"}),
        UpdateState.make("E1", {"title": "picnic", "when": 7}),
        CreateObject.make("C9", "Contact"),
        CreateObject.make("I9", "Identity"),
        CreateLink(Link("C9", "I9", "Reference")),
    ])
    after = [relevant_paths(schema, store.data, [e], user=u) for e, u in drawn]
    assert all(a is b for a, b in zip(after, before))
    for e, u in drawn:
        assert_fresh(schema, store.data, e, u)


# A feed of two starts, E1 and E2, both titled "picnic": I1 attends E2
# (through P4), and P9 is enrolled at E1 with no one attending it yet.
TWO_STARTS = [
    CreateObject.make("E2", "Event", {"title": "picnic"}),
    CreateObject.make("P4", "Participation"),
    CreateObject.make("P9", "Participation"),
    CreateLink(Link("I1", "P4", "Attendance")),
    CreateLink(Link("P4", "E2", "Enrollment")),
    CreateLink(Link("P9", "E1", "Enrollment")),
]
FEED = 'Event[title="picnic"].Participation.Identity'

# Each case reaches the walk in one way: (expression, user, setup batch,
# mutation, the start it reaches).  No case reaches it in two, so a rule
# that misses one way fails the case for it.  `forget` takes the vertices
# a mutation touched from its links alone: an object's own id reaches a
# walk only by a flip of the root's verdict (`delete-read`), and any other
# read vertex through a link (`delete-cascade`).
DROP_CASES = {
    # CreateLink: an end among the read vertices
    "create-link": ("{user}.Contact", "I3", [CreateObject.make("C9", "Contact")],
                    CreateLink(Link("I3", "C9", "Ownership")), "I3"),
    # DeleteLink: an end among the read vertices
    "delete-link": ("{user}.Contact", "I1", [], DeleteLink(Link("I1", "C1", "Ownership")), "I1"),
    # CreateObject: a ref the instance root admits appears
    "create-read": ("{I9}", None, [], CreateObject.make("I9", "Identity"), "I9"),
    # CreateObject: of the root class, and its state passes the filter
    "create-member": ('Event[title="quiz"]', None, [],
                      CreateObject.make("E9", "Event", {"title": "quiz"}), "E9"),
    # DeleteObject: a ref the instance root admits disappears, with no
    # link to cascade
    "delete-read": ("{I9}", None, [CreateObject.make("I9", "Identity")], DeleteObject("I9"),
                    "I9"),
    # DeleteObject: an end of a cascaded link among the read vertices; the
    # deleted contact is not one
    "delete-cascade": ("{user}.Contact", "I1", [], DeleteObject("C1"), "I1"),
    # DeleteObject: of the root class, and its state passed the filter
    "delete-member": ('Event[title="picnic"]', None, [], DeleteObject("E1"), "E1"),
    # UpdateState: the filter's result flips
    "update-flip": ('Event[title="picnic"]', None, [], UpdateState.make("E1", {"title": "quiz"}),
                    "E1"),
    # Two starts: E2's filter result flips out, and only E2's part goes
    "two-start-flip-out": (FEED, None, TWO_STARTS, UpdateState.make("E2", {"title": "quiz"}),
                           "E2"),
    # Two starts: E2's filter result flips in, and only E2's part is grown
    "two-start-flip-in": (FEED, None, TWO_STARTS + [UpdateState.make("E2", {"title": "quiz"})],
                          UpdateState.make("E2", {"title": "picnic"}), "E2"),
    # Two starts: a new attendance on E1 touches P9, which only E1's part
    # read (I1 lies on E2's part too, but as the end of its last segment,
    # which reads nothing)
    "two-start-attend": (FEED, None, TWO_STARTS, CreateLink(Link("I1", "P9", "Attendance")),
                         "E1"),
}


@pytest.mark.parametrize("case", sorted(DROP_CASES))
@pytest.mark.parametrize("through", ["store", "in place"])
def test_each_drop_rule_drops(schema, case, through):
    text, user, setup, mutation, start = DROP_CASES[case]
    expr = parse_expression(text)
    store = build_f1(Store(schema))
    if setup:
        store.apply(setup)
    # a copy, and each part's shape: the walk is regrown in place
    before = frozenset(relevant_paths(schema, store.data, [expr], user=user))
    kept = parts_of(schema, store.data, expr, user)
    shapes = {s: paths_module._shape({s: node}, {}) for s, node in kept.items()}
    others = kept.keys() - {start}
    if through == "store":
        store.apply([mutation])
    else:
        store.data.apply(mutation)
    # the start reached is pending and the others keep their nodes; a
    # walk whose record now holds more links than it read vertices is
    # dropped
    pending = parts_of(schema, store.data, expr, user)
    if others:
        assert pending.get(start, PENDING) is PENDING
        assert all(pending[s] is kept[s] for s in others)
    else:
        starts = relevant_paths(schema, store.data.copy(), [expr], user=user).roots
        assert pending in ({}, dict.fromkeys(starts, PENDING))
    after = relevant_paths(schema, store.data, [expr], user=user)
    assert frozenset(after) != before
    assert_fresh(schema, store.data, expr, user)
    # the start reached is regrown, added or gone; every other part is kept
    regrown = parts_of(schema, store.data, expr, user)
    assert regrown.keys() - {start} == others
    assert all(regrown[s] is kept[s] for s in others)
    assert start not in regrown or paths_module._shape({start: regrown[start]}, {}) != shapes.get(start)


# Each case comes close to the rule without meeting it, so the walk is
# kept: (expression, user, setup batch, mutation).  A rule that drops too
# eagerly (on any create or delete of the root class, or on any update of
# a read vertex) fails one of them.
KEEP_CASES = {
    # CreateLink: neither end among the read vertices ({I1})
    "create-link-away": ("{user}.Contact", "I1", [CreateObject.make("C9", "Contact")],
                         CreateLink(Link("I3", "C9", "Ownership"))),
    # DeleteLink: neither end among the read vertices ({I1})
    "delete-link-away": ("{user}.Contact", "I1", [],
                         DeleteLink(Link("I3", "P3", "Attendance"))),
    # DeleteObject: of the root class, and its state failed the filter
    "delete-unadmitted": ('Event[title="picnic"]', None,
                          [CreateObject.make("E2", "Event", {"title": "quiz"})],
                          DeleteObject("E2")),
    # UpdateState: of a read vertex, under a root with no class
    "update-read": ("{user}.Contact", "I1", [], UpdateState.make("I1", {"name": "ann"})),
    # UpdateState: of a read vertex whose state still passes the filter
    "update-still-in": ('Event[title="picnic"].Participation', None, [],
                        UpdateState.make("E1", {"title": "picnic", "when": 7})),
    # UpdateState: of the root class, failing the filter before and after
    "update-still-out": ('Event[title="picnic"].Participation', None,
                         [CreateObject.make("E2", "Event", {"title": "quiz"})],
                         UpdateState.make("E2", {"title": "hike"})),
    # CreateObject: of the root class, and its state fails the filter
    "create-unadmitted": ('Event[title="picnic"]', None, [],
                          CreateObject.make("E9", "Event", {"title": "quiz"})),
}


@pytest.mark.parametrize("case", sorted(KEEP_CASES))
@pytest.mark.parametrize("through", ["store", "in place"])
def test_each_keep_case_keeps_the_identical_frozenset(schema, case, through):
    text, user, setup, mutation = KEEP_CASES[case]
    expr = parse_expression(text)
    store = build_f1(Store(schema))
    if setup:
        store.apply(setup)
    before = relevant_paths(schema, store.data, [expr], user=user)
    check_below(before)
    if through == "store":
        store.apply([mutation])
    else:
        store.data.apply(mutation)
    assert (expr, schema, user) in store.data.walks
    assert relevant_paths(schema, store.data, [expr], user=user) is before
    assert_fresh(schema, store.data, expr, user)


def test_a_recreate_that_flips_the_filter_drops_the_entry(f1_data, schema):
    # a replica re-creates an object it holds when a create is re-delivered
    expr = parse_expression('Event[title="picnic"]')
    data = f1_data.copy()
    assert frozenset(relevant_paths(schema, data, [expr])) == {("E1",)}
    data.apply(CreateObject.make("E1", "Event", {"title": "quiz"}))
    assert frozenset(relevant_paths(schema, data, [expr])) == frozenset()
    data.apply(CreateObject.make("E1", "Event", {"title": "picnic"}))
    assert frozenset(relevant_paths(schema, data, [expr])) == {("E1",)}


def test_literal_kinds_are_memoised_apart(schema):
    data = SystemData()
    data.apply(CreateObject.make("E1", "Event", {"n": 1}))
    data.apply(CreateObject.make("E2", "Event", {"n": True}))
    one, true = parse_expression("Event[n=1]"), parse_expression("Event[n=true]")
    assert frozenset(relevant_paths(schema, data, [one])) == {("E1",)}
    assert frozenset(relevant_paths(schema, data, [true])) == {("E2",)}


# A root, what `{user}` stands for, and the objects of `f1_data` it admits.
ADMITS = [
    ("{I1,user}", "I2", {"I1", "I2"}),
    ("{I1,zz}", None, {"I1"}),
    ("Identity", None, {"I1", "I2", "I3"}),
    ('Event[title="picnic"]', None, {"E1"}),
    ('Event[title="quiz"]', None, set()),
    # no participation's state holds a title, and a missing attribute
    # fails every comparison, `!=` included
    ('Participation[title!="quiz"]', None, set()),
]


@pytest.mark.parametrize("text, user, admitted", ADMITS)
def test_the_start_scan_and_the_root_rule_agree(f1_data, schema, text, user, admitted):
    expr = parse_expression(text)
    starts = paths_module._start(expr, TypedGraph(f1_data, schema), user)
    verdicts = {
        oid for oid, cls in f1_data.objects.items()
        if expr.root.admits(oid, cls, f1_data.states[oid], user)
    }
    assert set(starts) == verdicts == admitted


def test_user_admits_the_object_it_is_bound_to_even_one_spelled_user(schema):
    data = SystemData()
    data.apply(CreateObject.make("user", "Identity"))  # a client root spelled `user`
    expr = parse_expression("{user}")
    assert paths_module._start(expr, TypedGraph(data, schema), "user") == ["user"]
    assert expr.root.admits("user", "Identity", {}, "user")
    assert not expr.root.admits("user", "Identity", {}, "I1")
    # unbound, `{user}` admits nothing, not even an object spelled `user`
    assert not expr.root.admits("user", "Identity", {}, None)
    with pytest.raises(UnboundVariableError):
        paths_module._start(expr, TypedGraph(data, schema), None)


def test_a_walk_over_budget_is_not_memoised(f1_data, schema, monkeypatch):
    g = TypedGraph(f1_data, schema)
    expr = parse_expression("Identity")
    monkeypatch.setattr(paths_module, "MAX_PATHS", 2)
    with pytest.raises(PathBudgetError):
        evaluate(expr, g)
    assert f1_data.walks == {}
    with pytest.raises(PathBudgetError):
        evaluate(expr, g)
    monkeypatch.setattr(paths_module, "MAX_PATHS", 3)
    assert frozenset(evaluate(expr, g)) == {("I1",), ("I2",), ("I3",)}


def test_starts_over_budget_only_together_raise_and_memoise_nothing(schema, monkeypatch):
    expr = parse_expression(FEED)
    store = build_f1(Store(schema))
    store.apply(TWO_STARTS)
    copy = store.data.copy()
    walked = relevant_paths(schema, copy, [expr])
    sizes = {s: sum(p[0] == s for p in walked) for s in parts_of(schema, copy, expr)}
    assert sizes == {"E1": 4, "E2": 1}
    monkeypatch.setattr(paths_module, "MAX_PATHS", 4)
    # a first walk
    with pytest.raises(PathBudgetError):
        relevant_paths(schema, store.data, [expr])
    assert store.data.walks == {}
    # a regrowth: E1's part is kept, E2's regrown, and together they are over
    monkeypatch.setattr(paths_module, "MAX_PATHS", 5)
    relevant_paths(schema, store.data, [expr])
    monkeypatch.setattr(paths_module, "MAX_PATHS", 4)
    store.apply([DeleteLink(Link("I1", "P4", "Attendance"))])
    assert parts_of(schema, store.data, expr)["E2"] is PENDING
    with pytest.raises(PathBudgetError):
        relevant_paths(schema, store.data, [expr])
    assert store.data.walks == {}
    monkeypatch.setattr(paths_module, "MAX_PATHS", 5)
    assert frozenset(relevant_paths(schema, store.data, [expr])) == fresh_paths(
        schema, store.data, [expr]
    )


# Complexity contract: a re-walk reads what the starts it regrows read,
# whatever the number of starts it keeps, and a root flip scans no objects.

class CountingIncident(dict):
    """An `incident` index that counts the tips a walk reads."""

    reads = 0

    def get(self, vertex, default=None):
        self.reads += 1
        return super().get(vertex, default)


class CountingObjects(dict):
    """An objects dict that counts the scans over it."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()


def feed_store(schema, starts: int) -> Store:
    """`starts` picnic events, each attended by two identities, and one
    quiz event, EQ, attended by one."""
    batch: list = []
    for e in [f"E{i}" for i in range(starts)] + ["EQ"]:
        title = "quiz" if e == "EQ" else "picnic"
        batch.append(CreateObject.make(e, "Event", {"title": title}))
        for j in range(1 if e == "EQ" else 2):
            iid, pid = f"I{e}_{j}", f"P{e}_{j}"
            batch += [
                CreateObject.make(iid, "Identity"),
                CreateObject.make(pid, "Participation"),
                CreateLink(Link(iid, pid, "Attendance")),
                CreateLink(Link(pid, e, "Enrollment")),
            ]
    store = Store(schema)
    store.apply(batch)
    return store


def counted_walk(schema, data: SystemData, expr: PathExpr, user=None) -> tuple[int, int]:
    """(tips read, scans of the objects) of one walk over the data."""
    data.objects = CountingObjects(data.objects)
    g = TypedGraph(data, schema)
    g.incident = CountingIncident(g.incident)
    evaluate(expr, g, user=user)
    return g.incident.reads, data.objects.scans


# mutation -> (tips a re-walk reads, scans of the objects)
REWALKS = {
    # an attendance under E0 leaves: PE0_0 drops its one child, and no
    # tip is read
    "touch": (DeleteLink(Link("IE0_0", "PE0_0", "Attendance")), 0),
    # EQ's title flips into the feed: EQ grows (EQ, PEQ_0)
    "flip-in": (UpdateState.make("EQ", {"title": "picnic"}), 2),
    # E0's title flips out of the feed: its part goes, nothing grows
    "flip-out": (UpdateState.make("E0", {"title": "quiz"}), 0),
}


@pytest.mark.parametrize("case", sorted(REWALKS))
def test_a_rewalk_costs_the_starts_it_regrows_not_the_feed(schema, case):
    mutation, tips = REWALKS[case]
    expr = parse_expression(FEED)
    for starts in (4, 32):
        store = feed_store(schema, starts)
        # the first walk reads every start's subtree and scans once
        assert counted_walk(schema, store.data, expr) == (3 * starts, 1)
        store.apply([mutation])
        assert counted_walk(schema, store.data, expr) == (tips, 0)
        assert_fresh(schema, store.data, expr)


def test_a_walk_reached_by_a_flip_alone_records_no_link(schema):
    """A regrowth re-tests a link only at a vertex the walk read, so a walk
    reached only by its root's verdict flipping records none of the
    mutation's links.  `Event[title="picnic"]` has no segment and reads
    nothing: deleting its start E1, a cascade of three links, leaves it
    pending on the flip alone, and its regrowth drops the start without
    scanning the class (CHANGES.md line 71)."""
    expr = parse_expression('Event[title="picnic"]')
    store = build_f1(Store(schema))
    assert frozenset(relevant_paths(schema, store.data, [expr])) == {("E1",)}
    store.apply([DeleteObject("E1")])
    walk = store.data.walks[walk_key(schema, expr, None)]
    assert walk.read == set()
    assert walk.pending == ((), {"E1": False})
    assert counted_walk(schema, store.data, expr) == (0, 0)
    assert_fresh(schema, store.data, expr)


def attendee_store(schema, events: int) -> Store:
    """Identity U attends `events` events, each with two other attendees."""
    batch: list = [CreateObject.make("U", "Identity")]
    for k in range(events):
        batch.append(CreateObject.make(f"E{k}", "Event"))
        for who in ("U", f"I{k}_0", f"I{k}_1"):
            if who != "U":
                batch.append(CreateObject.make(who, "Identity"))
            pid = f"P{k}_{who}"
            batch += [
                CreateObject.make(pid, "Participation"),
                CreateLink(Link(who, pid, "Attendance")),
                CreateLink(Link(pid, f"E{k}", "Enrollment")),
            ]
    store = Store(schema)
    store.apply(batch)
    return store


# batch -> the tips a re-walk of U's neighbourhood reads
NEIGHBOURHOOD_REWALKS = {
    # a new attendee at E0: the enrollment is re-tested at E0 alone, and
    # the new participation grows its one identity
    "attend": ([
        CreateObject.make("X", "Identity"),
        CreateObject.make("PX", "Participation"),
        CreateLink(Link("X", "PX", "Attendance")),
        CreateLink(Link("PX", "E0", "Enrollment")),
    ], 1),
    # a new contact of U: the ownership is re-tested at U, and nothing grows
    "contact": ([CreateObject.make("C", "Contact"), CreateLink(Link("U", "C", "Ownership"))], 0),
}


@pytest.mark.parametrize("case", sorted(NEIGHBOURHOOD_REWALKS))
def test_a_rewalk_costs_the_nodes_it_touched_not_the_events(schema, case):
    batch, tips = NEIGHBOURHOOD_REWALKS[case]
    expr = parse_expression(EXPR_EVENTS)
    for events in (2, 16):
        store = attendee_store(schema, events)
        # the first walk reads U, and each event, U's participation in it
        # and its other two participations
        assert counted_walk(schema, store.data, expr, "U") == (1 + 4 * events, 0)
        store.apply(batch)
        assert counted_walk(schema, store.data, expr, "U") == (tips, 0)
        assert_fresh(schema, store.data, expr, "U")


def neighbourhood_store(schema, size: int) -> Store:
    """Identity U with `size` contacts and `size` events it attends."""
    batch: list = [CreateObject.make("U", "Identity")]
    for k in range(size):
        batch += [
            CreateObject.make(f"I{k}", "Identity"),
            CreateObject.make(f"C{k}", "Contact"),
            CreateLink(Link("U", f"C{k}", "Ownership")),
            CreateLink(Link(f"C{k}", f"I{k}", "Reference")),
            CreateObject.make(f"E{k}", "Event"),
            CreateObject.make(f"P{k}", "Participation"),
            CreateLink(Link("U", f"P{k}", "Attendance")),
            CreateLink(Link(f"P{k}", f"E{k}", "Enrollment")),
        ]
    store = Store(schema)
    store.apply(batch)
    return store


def counted_sync(schema, size: int) -> tuple[int, int]:
    """(Python calls, bytes allocated at the peak) of one sync of a client
    of U's contacts and events, whose walks are memoised, with one update
    on its slice since its cursor."""
    exprs = [parse_expression(EXPR_CONTACTS), parse_expression(EXPR_EVENTS)]
    store = neighbourhood_store(schema, size)
    cursor = SyncCursor(user="U")
    for _ in range(2):  # the second sync finds every walk memoised
        cursor.ts_ls = timestamp_sync(cursor, store.data, store.log, exprs, schema).ts_cs
    store.apply([UpdateState.make("I0", {"name": "ana"})])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sys.setprofile(count)
        try:
            delta = timestamp_sync(cursor, store.data, store.log, exprs, schema)
        finally:
            sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert delta.upd_objects == {"I0"}
    return calls, peak


def test_an_untouched_sync_costs_what_changed_not_its_slice(schema):
    counted_sync(schema, 50)  # what a first sync of this shape allocates once
    (calls, peak), (calls_8x, peak_8x) = counted_sync(schema, 50), counted_sync(schema, 400)
    assert calls == calls_8x
    # nothing the size of the slice is built: no union of paths or elements
    assert peak_8x <= peak + 1024


def test_a_union_of_memoised_walks_is_kept_until_one_of_them_changes(f1_data, schema):
    """The union of several walks is a view over them: each walk is the
    memoised one, kept until a mutation reaches it, and the union is what
    its walks hold now."""
    exprs = [parse_expression(EXPR_CONTACTS), parse_expression(EXPR_EVENTS)]
    union = relevant_paths(schema, f1_data, exprs, user="I1")
    walks = tuple(relevant_paths(schema, f1_data, [e], user="I1") for e in exprs)
    assert all(map(operator.is_, union.parts, walks))
    assert frozenset(union) == frozenset().union(*walks)
    assert all(map(operator.is_, relevant_paths(schema, f1_data, exprs, user="I1").parts, walks))
    before = frozenset(union)
    f1_data.apply(CreateObject.make("C9", "Contact"))
    f1_data.apply(CreateLink(Link("I1", "C9", "Ownership")))
    again = relevant_paths(schema, f1_data, exprs, user="I1")
    # both walks are regrown in place: the contacts walk grows C9, and the
    # events walk, which read I1 too, keeps every node
    assert all(map(operator.is_, again.parts, walks))
    assert frozenset(again) != before
    assert frozenset(again) == frozenset(union) == fresh_paths(schema, f1_data, exprs, user="I1")
    assert len(again) == len(before) + 1


def test_stale_walks_leaves_the_memo_as_it_was(schema, f1_data):
    """`fuzz.stale_walks` regrows a pending walk on a copy of it: a check
    that edited the live tree would change the memo it checks."""
    drawn = [(EXPR_CONTACTS, "I1"), (EXPR_EVENTS, "I1"), (FEED, None)]
    for text, user in drawn:
        relevant_paths(schema, f1_data, [parse_expression(text)], user=user)
    f1_data.apply(CreateObject.make("C9", "Contact"))
    f1_data.apply(CreateLink(Link("I1", "C9", "Ownership")))  # reaches the walks of I1
    entries = dict(f1_data.walks)
    pending = {key for key, walk in entries.items() if walk.pending}
    assert len(pending) == 2
    shapes = {key: paths_module._shape(walk.paths.roots, {}) for key, walk in entries.items()}
    assert stale_walks(f1_data) == []
    assert f1_data.walks.keys() == entries.keys()
    assert all(f1_data.walks[key] is walk for key, walk in entries.items())
    assert {key for key, walk in f1_data.walks.items() if walk.pending} == pending
    assert {
        key: paths_module._shape(walk.paths.roots, {}) for key, walk in f1_data.walks.items()
    } == shapes


# Complexity contracts of the in-place regrowth and of the sweep (CHANGES.md
# line 63): each runs one step on two inputs 8x apart in the size the step
# must not depend on.


def paths_line_events(call) -> int:
    """Line events in `paths.py` while `call()` runs."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event == "line"
        return count

    def calls(frame, event, arg):
        return count if frame.f_code.co_filename == paths_module.__file__ else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        call()
    finally:
        sys.settrace(before)
    return events


def attendance_line_events(schema, attendees: int) -> int:
    """Line events in `paths.py` while the walk of U's events regrows after
    a new attendance at E0, an event of `attendees` attendees, U among
    them."""
    batch: list = [CreateObject.make("U", "Identity"), CreateObject.make("E0", "Event")]
    for k in range(attendees):
        who = "U" if k == 0 else f"I{k}"
        if who != "U":
            batch.append(CreateObject.make(who, "Identity"))
        batch += [
            CreateObject.make(f"P{k}", "Participation"),
            CreateLink(Link(who, f"P{k}", "Attendance")),
            CreateLink(Link(f"P{k}", "E0", "Enrollment")),
        ]
    store = Store(schema)
    store.apply(batch)
    expr = parse_expression(EXPR_EVENTS)
    relevant_paths(schema, store.data, [expr], user="U")
    store.apply([
        CreateObject.make("X", "Identity"),
        CreateObject.make("PX", "Participation"),
        CreateLink(Link("X", "PX", "Attendance")),
        CreateLink(Link("PX", "E0", "Enrollment")),
    ])
    g = TypedGraph(store.data, schema)
    events = paths_line_events(lambda: evaluate(expr, g, user="U"))
    assert_fresh(schema, store.data, expr, "U")
    return events


def test_a_regrowth_costs_the_same_at_an_event_of_any_size(schema):
    """A new attendance re-tests its enrollment at the event's node alone:
    the regrowth runs as many lines at an event of 4 attendees as at one
    of 32 (CHANGES.md line 63; a regrowth that re-reads every link of
    the event fails it)."""
    assert attendance_line_events(schema, 4) == attendance_line_events(schema, 32)


def contacts_store(schema, contacts: int) -> Store:
    """Identity U with `contacts` contacts, each referring to an identity."""
    batch: list = [CreateObject.make("U", "Identity")]
    for k in range(contacts):
        batch += [
            CreateObject.make(f"I{k}", "Identity"),
            CreateObject.make(f"C{k}", "Contact"),
            CreateLink(Link("U", f"C{k}", "Ownership")),
            CreateLink(Link(f"C{k}", f"I{k}", "Reference")),
        ]
    store = Store(schema)
    store.apply(batch)
    return store


def traced_peak(call) -> int:
    """Bytes allocated at the peak while `call()` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def contact_regrowth_peak(schema, contacts: int) -> int:
    """Bytes allocated at the peak while the walk of U's contacts regrows
    after U adds one, for a user of `contacts` contacts.  Everything is
    traced from the start, so a list that the regrowth extends counts by
    what it grew, not by its whole size."""
    expr = parse_expression(EXPR_CONTACTS)
    tracemalloc.start()
    try:
        store = contacts_store(schema, contacts)
        relevant_paths(schema, store.data, [expr], user="U")
        store.apply([
            CreateObject.make("IN", "Identity"),
            CreateObject.make("CN", "Contact"),
            CreateLink(Link("U", "CN", "Ownership")),
            CreateLink(Link("CN", "IN", "Reference")),
        ])
        g = TypedGraph(store.data, schema)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        evaluate(expr, g, user="U")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert_fresh(schema, store.data, expr, "U")
    return peak


def test_a_regrowth_allocates_the_same_for_any_number_of_contacts(schema):
    """A regrowth edits the walk in place and copies none of its maps: it
    allocates no more for a user of 400 contacts than for one of 50
    (CHANGES.md line 63; a regrowth that copies the tree's maps or its
    paths fails it)."""
    contact_regrowth_peak(schema, 50)  # what a first regrowth of this shape allocates once
    assert contact_regrowth_peak(schema, 400) <= contact_regrowth_peak(schema, 50) + 1024


# a server batch -> what the replica's sweep after its delta removes
SWEEP_BATCHES = {
    # one contact's reference goes, and the identity it held with it
    "delete": ([DeleteLink(Link("C0", "I0", "Reference"))], {"I0"}),
    # no commit: the delta is empty
    "nothing": ([], set()),
    # a held identity's new name, which no root reads
    "update": ([UpdateState.make("I0", {"name": "ana"})], set()),
}


def counted_sweep(schema, contacts: int, batch: str = "delete") -> tuple[int, int]:
    """(Python calls, bytes allocated at the peak) of a replica's sweep
    after the delta of one `SWEEP_BATCHES` batch, for a replica of U's
    `contacts` contacts."""
    mutations, gone = SWEEP_BATCHES[batch]
    store = contacts_store(schema, contacts)
    replica = Replica(name="u", root="U", exprs=[parse_expression(EXPR_CONTACTS)], schema=schema)

    def sync() -> None:
        replica.apply_delta(
            timestamp_sync(replica.cursor, store.data, store.log, replica.exprs, schema)
        )

    sync()
    replica.gc_sweep()  # a first walk: every held element is a candidate
    if mutations:
        store.apply(mutations)
    sync()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    removed: set = set()

    def sweep() -> None:
        sys.setprofile(count)
        try:
            removed.update(replica.gc_sweep())
        finally:
            sys.setprofile(None)

    peak = traced_peak(sweep)
    assert removed == gone
    assert len(replica.data.objects) == 1 + 2 * contacts - len(gone)
    return calls, peak


def test_a_sweep_after_one_delete_costs_what_its_walks_dropped(schema):
    """A sweep looks at what the replica created and what its walks
    dropped since the last one, not at every element it holds: the same
    Python calls, and no more allocated, on a replica of 400 contacts as
    on one of 50 (CHANGES.md line 63; a sweep that subtracts the slices
    from every held object and link fails it)."""
    counted_sweep(schema, 50)  # what a first sweep of this shape allocates once
    (calls, peak), (calls_8x, peak_8x) = counted_sweep(schema, 50), counted_sweep(schema, 400)
    assert calls == calls_8x
    assert peak_8x <= peak + 1024


@pytest.mark.parametrize("batch", ["nothing", "update"])
def test_a_sweep_after_a_delta_that_changes_nothing_costs_the_same_at_any_size(schema, batch):
    """A sweep after a delta that moves no path finds each walk as the last
    sweep left it, with no candidate: the same Python calls, and no more
    allocated, on a replica of 400 contacts as on one of 50 (a sweep that
    looks at every held element fails it)."""
    counted_sweep(schema, 50, batch)  # what a first sweep of this shape allocates once
    (calls, peak), (calls_8x, peak_8x) = (
        counted_sweep(schema, 50, batch), counted_sweep(schema, 400, batch)
    )
    assert calls == calls_8x
    assert peak_8x <= peak + 1024


def forget_line_events(schema, walks: int) -> int:
    """Line events in `memo.py` while one link create touches what one of
    `walks` unrelated memoised walks read: `{user}.Contact` for each of
    `walks` identities, each walk reading its identity alone."""
    data = SystemData()
    data.apply(CreateObject.make("C0", "Contact"))
    expr = parse_expression("{user}.Contact")
    for i in range(walks):
        data.apply(CreateObject.make(f"I{i}", "Identity"))
        relevant_paths(schema, data, [expr], user=f"I{i}")
    assert len(data.walks) == walks
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event == "line"
        return count

    def calls(frame, event, arg):
        return count if frame.f_code.co_filename == memo_module.__file__ else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        data.apply(CreateLink(Link("I0", "C0", "Ownership")))
    finally:
        sys.settrace(before)
    # the one walk reached is pending
    assert [key for key, walk in data.walks.items() if walk.pending] == [
        walk_key(schema, expr, "I0")
    ]
    return events


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 14 and 17: `WalkMemo.forget` scans every entry (CHANGES.md line 38)",
)
def test_a_mutation_visits_the_walks_it_reaches_not_all_of_them(schema):
    assert forget_line_events(schema, 4) == forget_line_events(schema, 64)


def idle_record(schema, pairs: int) -> int:
    """Links on the record of I1's walk of `EXPR_EVENTS`, which no sync
    reads, after `pairs` creates and deletes of an ownership at I1; 0 once
    the walk is dropped.  I1 attends three events alone, so the walk read
    seven vertices: I1, and each participation and event."""
    batch: list = [CreateObject.make("I1", "Identity"), CreateObject.make("C9", "Contact")]
    for k in range(3):
        batch += [
            CreateObject.make(f"E{k}", "Event"),
            CreateObject.make(f"P{k}", "Participation"),
            CreateLink(Link("I1", f"P{k}", "Attendance")),
            CreateLink(Link(f"P{k}", f"E{k}", "Enrollment")),
        ]
    store = Store(schema)
    store.apply(batch)
    expr = parse_expression(EXPR_EVENTS)
    relevant_paths(schema, store.data, [expr], user="I1")
    key = walk_key(schema, expr, "I1")
    assert len(store.data.walks[key].read) == 7
    owns = Link("I1", "C9", "Ownership")
    for _ in range(pairs):
        store.apply([CreateLink(owns)])
        store.apply([DeleteLink(owns)])
    walk = store.data.walks.get(key)
    held = 0 if walk is None else len(walk.pending[0])
    assert_fresh(schema, store.data, expr, "I1")
    return held


def test_an_idle_walks_record_is_bounded_by_its_tree(schema):
    """A walk no sync reads keeps a record of at most as many links as it
    read vertices: the same after 8 and after 64 create and delete pairs
    (CHANGES.md line 68; the parent's record held 16 and 128 links).
    Below the bound the walk stays pending, to be regrown in place."""
    assert idle_record(schema, 3) == 6
    assert idle_record(schema, 8) == idle_record(schema, 64) <= 7
