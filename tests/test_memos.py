"""The memos on `SystemData`: walks of `{user}`-free expressions and the
per-class member sets.

A memoised answer must always be the one a fresh walk gives.  Each check
below compares it with a walk over `data.copy()`, which starts with no
memo, after mutations applied in place and through `Store.apply`.
"""

from __future__ import annotations

import random

import pytest

from brute_force import random_data, random_expr, random_schema
from relsync.errors import PathBudgetError
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
from relsync.store import Store

from conftest import build_f1


def fresh_paths(schema: Schema, data: SystemData, exprs, user=None):
    return relevant_paths(schema, data.copy(), exprs, user=user)


def members_by_scan(data: SystemData, cls: str) -> frozenset[str]:
    return frozenset(oid for oid, c in data.objects.items() if c == cls)


def shared_exprs(rng: random.Random, schema: Schema, data: SystemData) -> list[PathExpr]:
    """Three expressions whose roots do not name `{user}`."""
    exprs: list[PathExpr] = []
    while len(exprs) < 3:
        expr, user = random_expr(rng, schema, data)
        if user is None:
            exprs.append(expr)
    return exprs


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


def check_memos(schema: Schema, data: SystemData, exprs: list[PathExpr]) -> None:
    """Walk twice (the second call reads the memo) and compare both with a
    fresh walk; every per-class member set read so far must be exact."""
    for expr in exprs:
        assert relevant_paths(schema, data, [expr]) == fresh_paths(schema, data, [expr])
    walked = relevant_paths(schema, data, exprs)
    assert {expr for expr, _, _ in data.walks} == set(exprs)
    assert walked == relevant_paths(schema, data, exprs) == fresh_paths(schema, data, exprs)
    for cls in schema.classes:
        assert data.members(cls) == members_by_scan(data, cls)


@pytest.mark.parametrize("seed", range(120))
def test_memoised_walks_match_a_fresh_walk_over_mutation_streams(seed):
    rng = random.Random(seed)
    schema = random_schema(rng)
    start = random_data(rng, schema, max_objects=12)
    exprs = shared_exprs(rng, schema, start)
    fresh = (f"n{i}" for i in range(10**6))

    # in place: each mutation goes through SystemData.apply
    data = start.copy()
    check_memos(schema, data, exprs)
    for _ in range(25):
        data.apply(random_mutation(rng, schema, data, fresh))
        check_memos(schema, data, exprs)

    # through the store: each batch commits a derived version
    store = Store(schema)
    store.apply(
        [CreateObject.make(oid, cls, start.states[oid]) for oid, cls in start.objects.items()]
        + [CreateLink(link) for link in start.links]
    )
    check_memos(schema, store.data, exprs)
    for _ in range(12):
        previous = store.data
        before = relevant_paths(schema, previous, exprs)
        batch: list = []
        staged = previous.derive()
        for _ in range(rng.randint(1, 3)):
            m = random_mutation(rng, schema, staged, fresh)
            if isinstance(m, CreateLink) and DeleteLink(m.link) in batch:
                continue  # the store would stage the create first
            staged.apply(m)
            batch.append(m)
        store.apply(batch)
        assert previous.walks == {}  # a superseded version keeps no walks
        check_memos(schema, store.data, exprs)
        # the superseded version still walks to what it did
        assert relevant_paths(schema, previous, exprs) == before


def test_streams_cover_every_shared_root_kind():
    kinds = set()
    for seed in range(120):
        rng = random.Random(seed)
        schema = random_schema(rng)
        start = random_data(rng, schema, max_objects=12)
        kinds.update(type(e.root) for e in shared_exprs(rng, schema, start))
    assert kinds == {ClassAll, ClassFilter, InstanceSet}


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
    events = parent.members("Event")
    assert events == {"E1", "E2"}

    # create in a derived version, by hand
    child = parent.derive()
    child.apply(CreateObject.make("E3", "Event", {"title": "quiz"}))
    assert child.members("Event") == {"E1", "E2", "E3"}
    assert relevant_paths(schema, child, exprs) == fresh_paths(schema, child, exprs)
    assert ("E3",) in relevant_paths(schema, child, exprs)
    assert parent.members("Event") is events
    assert relevant_paths(schema, parent, exprs) == seen

    # delete in a derived version, by hand
    child = parent.derive()
    child.apply(DeleteObject("E1"))
    assert child.members("Event") == {"E2"}
    assert relevant_paths(schema, child, exprs) == fresh_paths(schema, child, exprs)
    assert parent.members("Event") is events
    assert relevant_paths(schema, parent, exprs) == seen

    # the same through the store, with the parent held as a snapshot
    store.apply([CreateObject.make("E3", "Event", {"title": "quiz"})])
    created = store.data
    assert relevant_paths(schema, created, exprs) == fresh_paths(schema, created, exprs)
    store.apply([DeleteObject("E2")])
    assert store.data.members("Event") == {"E1", "E3"}
    assert relevant_paths(schema, store.data, exprs) == fresh_paths(schema, store.data, exprs)
    assert parent.members("Event") == {"E1", "E2"}
    assert relevant_paths(schema, parent, exprs) == seen
    assert created.members("Event") == {"E1", "E2", "E3"}


def test_two_clients_with_one_shared_expression_get_the_same_frozenset(f1_data, schema):
    text = "Event.Participation.Identity"
    first = relevant_paths(schema, f1_data, [parse_expression(text)], user="I1")
    second = relevant_paths(schema, f1_data, [parse_expression(text)], user="I2")
    assert first is second
    assert first == fresh_paths(schema, f1_data, [parse_expression(text)])


def test_user_rooted_walks_are_not_memoised(f1_data, schema):
    expr = parse_expression("{user}.Participation.Event")
    assert USER_VARIABLE in expr.root.refs
    mine = relevant_paths(schema, f1_data, [expr], user="I1")
    theirs = relevant_paths(schema, f1_data, [expr], user="I2")
    assert mine != theirs
    assert f1_data.walks == {}


def test_literal_kinds_are_memoised_apart(schema):
    data = SystemData()
    data.apply(CreateObject.make("E1", "Event", {"n": 1}))
    data.apply(CreateObject.make("E2", "Event", {"n": True}))
    one, true = parse_expression("Event[n=1]"), parse_expression("Event[n=true]")
    assert relevant_paths(schema, data, [one]) == {("E1",)}
    assert relevant_paths(schema, data, [true]) == {("E2",)}


def test_a_walk_over_budget_is_not_memoised(f1_data, schema):
    g = TypedGraph(f1_data, schema)
    expr = parse_expression("Identity")
    with pytest.raises(PathBudgetError):
        evaluate(expr, g, max_paths=2)
    assert f1_data.walks == {}
    with pytest.raises(PathBudgetError):
        evaluate(expr, g, max_paths=2)
    assert evaluate(expr, g, max_paths=3) == {("I1",), ("I2",), ("I3",)}
