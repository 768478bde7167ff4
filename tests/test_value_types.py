"""Value types: fixed slots, immutability where it is promised, one parsed
expression shared by every generated client, one state shared from commit
to replica, and what a generated scenario costs to hold."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest

import relsync.fuzz as fuzz_module
from relsync.delta import DeltaSet
from relsync.expr import ClassAll, ClassFilter, InstanceSet, PathExpr, parse_expression
from relsync.fuzz import EXPR_CONTACTS, EXPR_EVENTS, FuzzBounds, social_schema
from relsync.model import (
    AssociationDef,
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    UpdateState,
)
from relsync.paths import relevant_paths, select_relevant
from relsync.runner import MODES, run_scenario
from relsync.scenario import (
    AssertConvergedStep,
    AssertDeltaStep,
    ClientDecl,
    PushStep,
    Scenario,
    SyncStep,
    TxStep,
)
from relsync.store import Store

LINK = Link("I1", "C1", "Ownership")
FILTER = ClassFilter("Event", "title", "=", "b")

FROZEN = [
    AssociationDef("Ownership", "Identity", "owner", "Contact", "Contact"),
    CreateObject.make("I1", "Identity", {"name": "a"}),
    UpdateState.make("I1", {"name": "b"}),
    DeleteObject("I1"),
    CreateLink(LINK),
    DeleteLink(LINK),
    InstanceSet(("I1",)),
    ClassAll("Event"),
    FILTER,
    PathExpr(FILTER, ("Participation",)),
]

MUTABLE = [
    ClientDecl("A", "I1", []),
    TxStep([]),
    SyncStep("A"),
    PushStep("A", DeleteObject("I1")),
    AssertConvergedStep("A"),
    AssertDeltaStep("A", DeltaSet(0)),
    Scenario(social_schema()),
]


@pytest.mark.parametrize("value", FROZEN + MUTABLE, ids=lambda v: type(v).__name__)
def test_value_types_hold_no_instance_dict(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(value, "unlisted", 1)


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_value_types_refuse_assignment(value):
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))


def generated(seed: int, count: int) -> list[Scenario]:
    rng = random.Random(seed)
    return [fuzz_module._Generator(rng, FuzzBounds()).build() for _ in range(count)]


def test_generated_clients_share_their_parsed_expressions():
    exprs = [
        expr
        for scenario in generated(1, 2)
        for decl in scenario.clients.values()
        for expr in decl.exprs
    ]
    distinct = {id(expr) for expr in exprs}
    assert len(distinct) == len(set(exprs)) <= 3
    first, second = generated(1, 2)
    a, b = first.clients["A"].exprs, second.clients["A"].exprs
    assert a[0] is b[0] and a[1] is b[1]
    assert a is not b  # each client owns its list


def test_a_shared_expression_and_an_equal_parsed_one_share_a_walk():
    schema = social_schema()
    store = Store(schema)
    store.apply([
        CreateObject.make("I1", "Identity"),
        CreateObject.make("C1", "Contact"),
        CreateLink(LINK),
    ])
    shared = fuzz_module._CONTACTS
    parsed = parse_expression(EXPR_CONTACTS)
    assert parsed is not shared
    walk = relevant_paths(schema, store.data, [shared], user="I1")
    assert len(store.data.walks) == 1
    assert relevant_paths(schema, store.data, [parsed], user="I1") is walk
    assert len(store.data.walks) == 1


def f1_scenario(*steps) -> Scenario:
    """Client A, rooted at I1, over the contacts and events expressions,
    and the given steps after one transaction that builds the part of the
    fixture graph (`conftest.build_f1`) those expressions reach from I1."""
    exprs = [parse_expression(EXPR_CONTACTS), parse_expression(EXPR_EVENTS)]
    build = TxStep([
        CreateObject.make("I1", "Identity", {"name": "ana"}),
        CreateObject.make("I2", "Identity", {"name": "bo"}),
        CreateObject.make("C1", "Contact", {"nick": "bo-cell"}),
        CreateObject.make("E1", "Event", {"title": "picnic"}),
        CreateObject.make("P1", "Participation"),
        CreateLink(LINK),
        CreateLink(Link("C1", "I2", "Reference")),
        CreateLink(Link("I1", "P1", "Attendance")),
        CreateLink(Link("P1", "E1", "Enrollment")),
    ])
    return Scenario(social_schema(), {"A": ClientDecl("A", "I1", exprs)}, [build, *steps])


@pytest.mark.parametrize("mode", ["timestamp", "oracle"])
def test_a_delivered_state_is_the_stores_own(mode):
    """A first sync and an update sync hand the replica the very state
    object the store holds: the delta carries it and the replica keeps it."""
    seen = []

    def on_sync(ctx, index, client, applied, shadow):
        held, store_states = ctx.replicas[client].data.states, ctx.store.data.states
        delivered = {oid for oid, _ in applied.crt_objects} | applied.upd_objects
        for oid in delivered:
            assert applied.states[oid] is store_states[oid]
            assert held[oid] is store_states[oid]
        seen.append((len(applied.crt_objects), sorted(applied.upd_objects)))

    scenario = f1_scenario(
        SyncStep("A"), TxStep([UpdateState.make("I2", {"name": "bob"})]), SyncStep("A")
    )
    assert run_scenario(scenario, mode, on_sync=on_sync) == []
    assert seen == [(5, []), (0, ["I2"])]


def test_a_selected_state_is_the_datas_own():
    scenario = f1_scenario()
    store = Store(scenario.schema)
    store.apply(scenario.steps[0].mutations)
    rel = select_relevant(store.schema, store.data, scenario.clients["A"].exprs, user="I1")
    assert len(rel.states) == 5
    for oid, state in rel.states.items():
        assert state is store.data.states[oid]


def is_state(state) -> bool:
    """Whether a value has a state's one form: a tuple of (key, value)
    pairs, sorted by key, each key once."""
    return (
        type(state) is tuple
        and all(type(pair) is tuple and len(pair) == 2 for pair in state)
        and all(a[0] < b[0] for a, b in zip(state, state[1:]))
    )


@pytest.mark.parametrize("mode", MODES)
def test_every_state_held_in_a_generated_run_has_the_one_form(mode):
    """Over generated runs, every state the store, each replica, each
    delivered delta, each oracle shadow and the oracle's last slices hold
    is a sorted pair tuple, so no dict slips in at a layer's boundary."""
    checked = []

    def on_sync(ctx, index, client, applied, shadow):
        holders = [ctx.store.data.states, applied.states]
        holders += [replica.data.states for replica in ctx.replicas.values()]
        holders += [slice_.states for slice_ in ctx.oracle.last.values()]
        if shadow is not None:
            holders.append(shadow.states)
        for states in holders:
            bad = [state for state in states.values() if not is_state(state)]
            assert bad == []
            checked.append(len(states))

    for scenario in generated(3, 100):
        run_scenario(scenario, mode, on_sync=on_sync)
    assert sum(checked) > 5000


def test_a_generated_scenario_is_held_in_under_ten_kilobytes():
    """Item 14's contract for memory: 100 scenarios from `random.Random(1)`
    hold 13.2 KiB each with a `__dict__` per value and a parsed expression
    per client, 8.1 KiB each with slots and shared expressions."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = generated(1, 100)
        per_scenario = (tracemalloc.get_traced_memory()[0] - base) / len(held)
    finally:
        tracemalloc.stop()
    assert per_scenario <= 10 * 1024
