"""Value types: fixed slots, immutability where it is promised, one parsed
expression shared by every generated client, and what a generated scenario
costs to hold."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest

import relsync.fuzz as fuzz_module
from relsync.delta import DeltaSet
from relsync.expr import ClassAll, ClassFilter, InstanceSet, PathExpr, parse_expression
from relsync.fuzz import EXPR_CONTACTS, FuzzBounds, social_schema
from relsync.model import (
    AssociationDef,
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    UpdateState,
)
from relsync.paths import relevant_paths
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
