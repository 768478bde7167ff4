"""The memo on `SystemData`: expression walks.

A memoised answer must always be the one a fresh walk gives.  Each check
below compares it with a walk over `data.copy()`, which starts with no
memo, after mutations applied in place and through `Store.apply`, start
by start.  One rule keeps a walk's parts, one per start: a part stays
memoised across mutations and versions until a mutation touches a vertex
among its tips, and the start set changes when a mutation changes whether
the root admits an object.  The drop cases below each meet the rule one
way and must regrow that start alone; the keep cases each come close to
it without meeting it.
"""

from __future__ import annotations

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
from relsync.runner import MODES, run_scenario
from relsync.store import Store
from relsync.sync import SyncCursor, timestamp_sync

from conftest import build_f1


def fresh_paths(schema: Schema, data: SystemData, exprs, user=None):
    return relevant_paths(schema, data.copy(), exprs, user=user)


def walk_key(schema: Schema, expr: PathExpr, user: str | None) -> tuple:
    """The memo key of the expression's walk for `user`."""
    return (expr, schema, user if USER_VARIABLE in getattr(expr.root, "refs", ()) else None)


# What `parts_of` gives for a start its walk has yet to grow or regrow.
PENDING = "pending"


def parts_of(schema: Schema, data: SystemData, expr: PathExpr, user=None) -> dict:
    """start -> its node as memoised, or PENDING for a start the walk has
    yet to grow or under which a mutation since marked a node; empty when
    the walk is not memoised."""
    walk = data.walks.get(walk_key(schema, expr, user))
    if walk is None:
        return {}
    roots = walk.paths.roots
    if walk.pending is None:
        return dict(roots)
    starts, touched = walk.pending
    marked = set()
    for vertex in touched:
        read = walk.paths.reads.get(vertex)
        if read is not None:
            marked.update(node[0][0] for node in ((read,) if type(read) is list else read))
    return {s: PENDING if s in marked or s not in roots else roots[s] for s in starts}


def expected_tree(paths, segments: int) -> tuple[dict, dict, dict]:
    """The read map, element counts and tree shape (each read node's path
    -> its children's paths) of the prefix tree of `paths`, from their
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
    reads = {v: next(iter(s)) if len(s) == 1 else frozenset(s) for v, s in read.items()}
    shape = {
        p: frozenset(q for q in nodes if len(q) == len(p) + 2 and q[: len(p)] == p)
        for p in nodes
        if len(p) // 2 < segments
    }
    return reads, counts, shape


def assert_set_fresh(walked, fresh, segments: int) -> None:
    """A walk is the fresh one: its paths and starts, and its read map,
    element counts and tree, each against its definition over the fresh
    paths."""
    assert walked == fresh
    assert walked.roots.keys() == fresh.roots.keys()
    reads, counts, shape = expected_tree(fresh, segments)
    assert paths_module._read_paths(walked.reads) == reads
    assert walked.counts == counts
    assert paths_module._shape(walked.roots) == shape


def assert_fresh(schema: Schema, data: SystemData, expr: PathExpr, user=None) -> None:
    """The memoised walk is the fresh one, start by start: the same start
    set, each start's subtree the fresh walk's from the same start, and
    the walk's read map, counts and paths the fresh walk's."""
    walked = relevant_paths(schema, data, [expr], user=user)
    copy = data.copy()
    fresh = relevant_paths(schema, copy, [expr], user=user)
    assert data.walks[walk_key(schema, expr, user)].pending is None
    for start, node in walked.roots.items():
        ours = paths_module._shape({start: node})
        assert ours == paths_module._shape({start: fresh.roots[start]})
        assert {p[0] for p in ours} == ({start} if expr.segments else set())
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
        [CreateObject.make(oid, cls, start.states[oid]) for oid, cls in start.objects.items()]
        + [CreateLink(link) for link in start.links]
    )
    check_memos(schema, store.data, drawn)
    for _ in range(12):
        previous = store.data
        before = [relevant_paths(schema, previous, [e], user=u) for e, u in drawn]
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
        assert [relevant_paths(schema, previous, [e], user=u) for e, u in drawn] == before


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
    assert relevant_paths(schema, store.data, [expr]) == {("E2",)}
    store.apply([UpdateState.make("E1", {"title": "quiz"})])
    flipped = relevant_paths(schema, store.data, [expr])
    assert flipped == fresh_paths(schema, store.data, [expr])
    assert ("E2",) in flipped and any(p[0] == "E1" for p in flipped)
    store.apply([UpdateState.make("E2", {"title": "picnic"})])
    assert relevant_paths(schema, store.data, [expr]) == flipped - {("E2",)}
    # in place
    data = _event_store(schema).data
    assert relevant_paths(schema, data, [expr]) == {("E2",)}
    data.apply(UpdateState.make("E1", {"title": "quiz"}))
    assert relevant_paths(schema, data, [expr]) == flipped


def test_a_derived_version_creates_and_deletes_without_touching_its_parent(schema):
    exprs = [parse_expression("Event.Participation"), parse_expression('Event[title="quiz"]')]
    store = _event_store(schema)
    parent = store.data
    seen = relevant_paths(schema, parent, exprs)

    # a create and a delete through the store, with the parent held as a
    # snapshot
    store.apply([CreateObject.make("E3", "Event", {"title": "quiz"})])
    created = store.data
    with_e3 = relevant_paths(schema, created, exprs)
    assert with_e3 == fresh_paths(schema, created, exprs)
    assert ("E3",) in with_e3
    store.apply([DeleteObject("E2")])
    assert relevant_paths(schema, store.data, exprs) == fresh_paths(schema, store.data, exprs)
    assert relevant_paths(schema, parent, exprs) == seen
    assert relevant_paths(schema, created, exprs) == with_e3


def test_two_clients_with_one_shared_expression_get_the_same_frozenset(f1_data, schema):
    text = "Event.Participation.Identity"
    first = relevant_paths(schema, f1_data, [parse_expression(text)], user="I1")
    second = relevant_paths(schema, f1_data, [parse_expression(text)], user="I2")
    assert first is second
    assert first == fresh_paths(schema, f1_data, [parse_expression(text)])


def test_two_users_get_separate_entries_each_equal_to_a_fresh_walk(f1_data, schema):
    expr = parse_expression("{user}.Participation.Event.Participation.Identity")
    mine = relevant_paths(schema, f1_data, [expr], user="I1")
    theirs = relevant_paths(schema, f1_data, [expr], user="I2")
    assert mine != theirs
    assert set(f1_data.walks) == {(expr, schema, "I1"), (expr, schema, "I2")}
    assert f1_data.walks[(expr, schema, "I1")].paths == fresh_paths(
        schema, f1_data, [expr], user="I1"
    )
    assert f1_data.walks[(expr, schema, "I2")].paths == fresh_paths(
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

# Each case meets the one rule in one way: (expression, user, setup batch,
# mutation, the start it reaches).  No case meets it in two, so a rule
# that misses one way fails the case for it.
DROP_CASES = {
    # CreateLink: an end among a part's tips
    "create-link": ("{user}.Contact", "I3", [CreateObject.make("C9", "Contact")],
                    CreateLink(Link("I3", "C9", "Ownership")), "I3"),
    # DeleteLink: an end among a part's tips
    "delete-link": ("{user}.Contact", "I1", [], DeleteLink(Link("I1", "C1", "Ownership")), "I1"),
    # CreateObject: a ref the instance root admits appears
    "create-read": ("{I9}", None, [], CreateObject.make("I9", "Identity"), "I9"),
    # CreateObject: of the root class, and its state passes the filter
    "create-member": ('Event[title="quiz"]', None, [],
                      CreateObject.make("E9", "Event", {"title": "quiz"}), "E9"),
    # DeleteObject: a ref the instance root admits disappears
    "delete-read": ("{I9}", None, [CreateObject.make("I9", "Identity")], DeleteObject("I9"),
                    "I9"),
    # DeleteObject: an end of a cascaded link among a part's tips
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
    # Two starts: a new attendance on E1 touches P9, a tip of E1's part
    # only (I1 lies on E2's part too, but as the end of its last segment)
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
    before = relevant_paths(schema, store.data, [expr], user=user)
    kept = parts_of(schema, store.data, expr, user)
    others = kept.keys() - {start}
    if through == "store":
        store.apply([mutation])
    else:
        store.data.apply(mutation)
    # the start reached is pending and the others keep their nodes; a
    # walk that keeps no node a regrowth would reuse is forgotten
    pending = parts_of(schema, store.data, expr, user)
    if others:
        assert pending.get(start, PENDING) is PENDING
        assert all(pending[s] is kept[s] for s in others)
    else:
        starts = relevant_paths(schema, store.data.copy(), [expr], user=user).roots
        assert pending in ({}, dict.fromkeys(starts, PENDING))
    after = relevant_paths(schema, store.data, [expr], user=user)
    assert after != before
    assert_fresh(schema, store.data, expr, user)
    # the start reached is regrown, added or gone; every other part is kept
    regrown = parts_of(schema, store.data, expr, user)
    assert regrown.keys() - {start} == others
    assert all(regrown[s] is kept[s] for s in others)
    assert start not in regrown or regrown[start] is not kept.get(start)


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
    assert relevant_paths(schema, data, [expr]) == {("E1",)}
    data.apply(CreateObject.make("E1", "Event", {"title": "quiz"}))
    assert relevant_paths(schema, data, [expr]) == frozenset()
    data.apply(CreateObject.make("E1", "Event", {"title": "picnic"}))
    assert relevant_paths(schema, data, [expr]) == {("E1",)}


def test_literal_kinds_are_memoised_apart(schema):
    data = SystemData()
    data.apply(CreateObject.make("E1", "Event", {"n": 1}))
    data.apply(CreateObject.make("E2", "Event", {"n": True}))
    one, true = parse_expression("Event[n=1]"), parse_expression("Event[n=true]")
    assert relevant_paths(schema, data, [one]) == {("E1",)}
    assert relevant_paths(schema, data, [true]) == {("E2",)}


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
    assert paths_module._start(expr, TypedGraph(data, schema), "user") == {"user": None}
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
    assert evaluate(expr, g) == {("I1",), ("I2",), ("I3",)}


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
    assert relevant_paths(schema, store.data, [expr]) == fresh_paths(schema, store.data, [expr])


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
    # an attendance under E0 leaves: PE0_0 alone is re-expanded
    "touch": (DeleteLink(Link("IE0_0", "PE0_0", "Attendance")), 1),
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
    # a new attendee at E0: E0 is re-expanded, and the new participation
    # grows its one identity
    "attend": ([
        CreateObject.make("X", "Identity"),
        CreateObject.make("PX", "Participation"),
        CreateLink(Link("X", "PX", "Attendance")),
        CreateLink(Link("PX", "E0", "Enrollment")),
    ], 2),
    # a new contact of U: U alone is re-expanded, and nothing grows
    "contact": ([CreateObject.make("C", "Contact"), CreateLink(Link("U", "C", "Ownership"))], 1),
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
    exprs = [parse_expression(EXPR_CONTACTS), parse_expression(EXPR_EVENTS)]
    union = relevant_paths(schema, f1_data, exprs, user="I1")
    assert relevant_paths(schema, f1_data, exprs, user="I1") is union
    assert union.parts == tuple(relevant_paths(schema, f1_data, [e], user="I1") for e in exprs)
    f1_data.apply(CreateObject.make("C9", "Contact"))
    f1_data.apply(CreateLink(Link("I1", "C9", "Ownership")))
    again = relevant_paths(schema, f1_data, exprs, user="I1")
    assert again is not union
    assert again == fresh_paths(schema, f1_data, exprs, user="I1")
    assert relevant_paths(schema, f1_data, exprs, user="I1") is again


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
