"""Snapshot-diff oracle: set constructions and the reconstruction property."""

from __future__ import annotations

from brute_force import apply_plainly
from conftest import build_f1
from relsync.expr import parse_expression
from relsync.model import (
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    SystemData,
    UpdateState,
    freeze_state,
)
from relsync.oracle import SnapshotOracle, _diff_slices
from relsync.paths import select_relevant
from relsync.store import Store


def slice_of(states: dict, links=()) -> SystemData:
    """A hand-built slice whose objects are the keys of `states`, all of
    class A, each state given as a dict."""
    return SystemData(
        objects={oid: "A" for oid in states},
        links=set(links),
        states={oid: freeze_state(state) for oid, state in states.items()},
    )


class TestGetSets:
    """The set differences `_diff_slices` builds a delta from."""

    def test_crt_is_now_minus_prev(self):
        delta = _diff_slices(slice_of({"a": {}}), slice_of({"a": {}, "b": {}}), 1)
        assert delta.crt_objects == {("b", "A")}

    def test_del_is_prev_minus_now(self):
        delta = _diff_slices(slice_of({"a": {}, "b": {}}), slice_of({"a": {}}), 1)
        assert delta.del_objects == {"b"}

    def test_crt_del_duality(self):
        prev = slice_of({"a": {}, "b": {}}, [Link("a", "b", "R")])
        now = slice_of({"b": {}, "c": {}}, [Link("b", "c", "R")])
        forward, backward = _diff_slices(prev, now, 1), _diff_slices(now, prev, 1)
        assert ({oid for oid, _ in forward.crt_objects}, forward.crt_links) == (
            backward.del_objects,
            backward.del_links,
        )

    def test_upd_needs_presence_on_both_sides_and_changed_state(self):
        prev = slice_of({"a": {"k": 1}, "b": {"k": 2}, "c": {}})
        now = slice_of({"a": {"k": 9}, "b": {"k": 2}, "d": {}})
        # only a: b unchanged, c gone, d is a create
        assert _diff_slices(prev, now, 1).upd_objects == {"a"}


def relevant_now(store, exprs, user="I1") -> SystemData:
    return select_relevant(store.schema, store.data, exprs, user=user)


def data_equal(a: SystemData, b: SystemData) -> bool:
    return a.objects == b.objects and a.links == b.links and a.states == b.states


class TestSnapshotOracle:
    def test_first_sync_is_a_full_download(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        oracle = SnapshotOracle(schema)
        delta = oracle.sync("A", "I1", store.data, store.counter, fixture_exprs)
        rel = relevant_now(store, fixture_exprs)
        assert {oid for oid, _ in delta.crt_objects} == set(rel.objects)
        assert delta.crt_links == rel.links
        assert delta.upd_objects == set() and delta.del_objects == set()
        assert delta.ts_cs == store.counter == 3

    def test_reconstruction_across_changes(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        oracle = SnapshotOracle(schema)
        replica_view = SystemData()

        def sync_and_check():
            delta = oracle.sync("A", "I1", store.data, store.counter, fixture_exprs)
            nonlocal replica_view
            replica_view = apply_plainly(replica_view, delta)
            assert data_equal(replica_view, relevant_now(store, fixture_exprs))

        sync_and_check()

        store.apply([UpdateState.make("I2", {"name": "bob", "mood": "sunny"})])
        sync_and_check()

        store.apply([DeleteObject("C1")])  # I2 stays relevant through the shared event
        sync_and_check()

        store.apply([CreateObject.make("E9", "Event", {"title": "secret"})])
        sync_and_check()  # E9 is not relevant: delta must be empty
        assert oracle.sync(
            "A", "I1", store.data, store.counter, fixture_exprs
        ).is_empty()

    def test_departed_but_alive_objects_are_deleted_client_side(
        self, schema, fixture_exprs
    ):
        store = build_f1(Store(schema))
        oracle = SnapshotOracle(schema)
        oracle.sync("A", "I1", store.data, store.counter, fixture_exprs)
        # unlink P3 from E1: P3 and I3 leave relevance but stay alive
        store.apply([DeleteLink(Link("P3", "E1", "Enrollment"))])
        delta = oracle.sync("A", "I1", store.data, store.counter, fixture_exprs)
        assert delta.del_objects == {"P3", "I3"}
        assert delta.del_links == {
            Link("P3", "E1", "Enrollment"),
            Link("I3", "P3", "Attendance"),
        }
        assert "P3" in store.data.objects  # alive server-side, just irrelevant

    def test_histories_are_per_client(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        oracle = SnapshotOracle(schema)
        oracle.sync("A", "I1", store.data, store.counter, fixture_exprs)
        store.apply([UpdateState.make("I1", {"name": "ana2"})])
        # B has never synced: it gets the full download, A only the update
        delta_b = oracle.sync("B", "I2", store.data, store.counter, fixture_exprs)
        delta_a = oracle.sync("A", "I1", store.data, store.counter, fixture_exprs)
        assert delta_b.crt_objects  # first contact
        assert delta_a.crt_objects == set()
        assert delta_a.upd_objects == {"I1"}

    def test_oracle_ts_equals_commit_counter(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        oracle = SnapshotOracle(schema)
        delta = oracle.sync("A", "I1", store.data, store.counter, fixture_exprs)
        assert delta.ts_cs == 3
        store.apply([UpdateState.make("I1", {"name": "x"})])
        delta = oracle.sync("A", "I1", store.data, store.counter, fixture_exprs)
        assert delta.ts_cs == 4


def test_mutation_helpers_cover_all_kinds(schema):
    # belt-and-braces: the oracle deltas carry exactly the state for crt ∪ upd
    store = Store(schema)
    store.apply(
        [
            CreateObject.make("I1", "Identity", {"name": "ana"}),
            CreateObject.make("I2", "Identity"),
        ]
    )
    oracle = SnapshotOracle(schema)
    exprs = [parse_expression("{user}")]
    delta = oracle.sync("A", "I1", store.data, store.counter, exprs)
    assert delta.states == {"I1": freeze_state({"name": "ana"})}
    store.apply([UpdateState.make("I1", {"name": "bo"})])
    delta = oracle.sync("A", "I1", store.data, store.counter, exprs)
    assert delta.states == {"I1": freeze_state({"name": "bo"})}
    store.apply([DeleteObject("I2")])
    delta = oracle.sync("A", "I1", store.data, store.counter, exprs)
    assert delta.is_empty()  # I2 was never relevant; the diff sees slices only
