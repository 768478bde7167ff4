"""Shared fixtures: the social schema and the canonical fixture graph.

The fixture graph (three identities, one contact, one event, three
participations) is the same one scenarios/social_event.scn builds; tests
that need it committed through the store use `f1_store`, tests that only
need the data shape use `f1_data`.
"""

from __future__ import annotations

import pytest

from relsync.expr import parse_expression
from relsync.fuzz import EXPR_CONTACTS, EXPR_EVENTS, social_schema
from relsync.model import CreateLink, CreateObject, Link
from relsync.store import Store

F1_OBJECTS = {
    "I1": "Identity",
    "I2": "Identity",
    "I3": "Identity",
    "C1": "Contact",
    "E1": "Event",
    "P1": "Participation",
    "P2": "Participation",
    "P3": "Participation",
}

F1_LINKS = {
    Link("I1", "C1", "Ownership"),
    Link("C1", "I2", "Reference"),
    Link("I1", "P1", "Attendance"),
    Link("I2", "P2", "Attendance"),
    Link("I3", "P3", "Attendance"),
    Link("P1", "E1", "Enrollment"),
    Link("P2", "E1", "Enrollment"),
    Link("P3", "E1", "Enrollment"),
}


def build_f1(store: Store) -> Store:
    """Commit the fixture graph in three transactions (ts 1..3)."""
    store.apply([
        CreateObject.make("I1", "Identity", {"name": "ana"}),
        CreateObject.make("I2", "Identity", {"name": "bo"}),
        CreateObject.make("I3", "Identity", {"name": "cy"}),
    ])

    store.apply([
        CreateObject.make("C1", "Contact", {"nick": "bo-cell"}),
        CreateLink(Link("I1", "C1", "Ownership")),
        CreateLink(Link("C1", "I2", "Reference")),
    ])

    store.apply([
        CreateObject.make("E1", "Event", {"title": "picnic"}),
        CreateObject.make("P1", "Participation"),
        CreateObject.make("P2", "Participation"),
        CreateObject.make("P3", "Participation"),
        CreateLink(Link("I1", "P1", "Attendance")),
        CreateLink(Link("P1", "E1", "Enrollment")),
        CreateLink(Link("I2", "P2", "Attendance")),
        CreateLink(Link("P2", "E1", "Enrollment")),
        CreateLink(Link("I3", "P3", "Attendance")),
        CreateLink(Link("P3", "E1", "Enrollment")),
    ])
    return store


@pytest.fixture
def schema():
    return social_schema()


@pytest.fixture
def f1_store(schema):
    return build_f1(Store(schema))


@pytest.fixture
def f1_data(f1_store):
    return f1_store.data


@pytest.fixture
def fixture_exprs():
    return [parse_expression(EXPR_CONTACTS), parse_expression(EXPR_EVENTS)]
