"""Timestamp-based sync: modification detection, the first-created-edge
sweep, deletion broadcast, and cursor advancement."""

from __future__ import annotations

import math

from conftest import build_f1
from relsync.changelog import ActionType, ChangeLog
from relsync.expr import parse_expression
from relsync.model import Link
from relsync.paths import Path
from relsync.store import Store
from relsync.sync import (
    SyncCursor,
    has_modification,
    index_of_first_created_element,
    timestamp_sync,
)

OWN = Link("I1", "C1", "Ownership")
REF = Link("C1", "I2", "Reference")


def sync_once(store, cursor, exprs):
    delta = timestamp_sync(cursor, store.data, store.log, exprs, store.schema)
    cursor.ts_ls = delta.ts_cs
    return delta


def crt_ids(delta):
    return {oid for oid, _ in delta.crt_objects}


class TestHasModification:
    def test_boundary_is_strict(self):
        log = ChangeLog()
        log.record("I1", ActionType.CREATE, 5)
        p = Path(("I1",))
        assert not has_modification(p, 5, log)
        assert has_modification(p, 4, log)

    def test_any_element_counts(self):
        log = ChangeLog()
        log.record("I1", ActionType.CREATE, 1)
        log.record("C1", ActionType.CREATE, 1)
        log.record(OWN, ActionType.CREATE, 3)
        p = Path(("I1", "C1"), (OWN,))
        assert has_modification(p, 2, log)  # only the edge is newer
        assert not has_modification(p, 3, log)


class TestFirstCreatedElement:
    def test_edge_index_in_flattened_positions(self):
        log = ChangeLog()
        log.record("I1", ActionType.CREATE, 1)
        log.record("C1", ActionType.CREATE, 1)
        log.record("I2", ActionType.CREATE, 1)
        log.record(OWN, ActionType.CREATE, 1)
        log.record(REF, ActionType.CREATE, 2)
        p = Path(("I1", "C1", "I2"), (OWN, REF))
        # REF sits at flattened index 3 (vertices even, edges odd)
        assert index_of_first_created_element(p, 1, log) == 3
        assert index_of_first_created_element(p, 0, log) == 1

    def test_no_new_edge_yields_infinity(self):
        log = ChangeLog()
        log.record(OWN, ActionType.CREATE, 1)
        p = Path(("I1", "C1"), (OWN,))
        assert index_of_first_created_element(p, 1, log) is math.inf


class TestFirstSync:
    def test_full_download_matches_oracle(self, schema, fixture_exprs):
        from relsync.oracle import SnapshotOracle

        store = build_f1(Store(schema))
        delta = sync_once(store, SyncCursor("I1"), fixture_exprs)
        oracle_delta = SnapshotOracle(schema).sync(
            "A", "I1", store.data, store.counter, fixture_exprs
        )
        assert delta.crt_objects == oracle_delta.crt_objects
        assert delta.crt_links == oracle_delta.crt_links
        assert delta.upd_objects == set()
        assert delta.ts_cs == 3

    def test_zero_length_expression_delivers_the_root(self, schema):
        store = Store(schema)
        tx = store.begin_transaction()
        tx.create("I1", "Identity", {"name": "ana"})
        tx.commit()
        delta = sync_once(store, SyncCursor("I1"), [parse_expression("{user}")])
        assert delta.crt_objects == {("I1", "Identity")}
        assert delta.states == {"I1": {"name": "ana"}}


class TestIncrementalSync:
    def test_idempotent_when_nothing_changed(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        cursor = SyncCursor("I1")
        sync_once(store, cursor, fixture_exprs)
        again = timestamp_sync(cursor, store.data, store.log, fixture_exprs, store.schema)
        assert again.is_empty()
        assert again.ts_cs == cursor.ts_ls

    def test_update_of_relevant_object(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        cursor = SyncCursor("I1")
        sync_once(store, cursor, fixture_exprs)
        tx = store.begin_transaction()
        tx.update("I2", {"name": "bob"})
        tx.commit()
        delta = sync_once(store, cursor, fixture_exprs)
        assert delta.upd_objects == {"I2"}
        assert delta.crt_objects == set()
        assert delta.states == {"I2": {"name": "bob"}}
        assert delta.ts_cs == 4

    def test_new_contact_sweeps_in_old_identity(self, schema, fixture_exprs):
        # I4 exists before the client's last sync but was never relevant;
        # a new contact pointing at it must deliver it as a *create* even
        # though its create-timestamp predates the cursor.
        store = build_f1(Store(schema))
        cursor = SyncCursor("I1")
        tx = store.begin_transaction()
        tx.create("I4", "Identity", {"name": "dee"})
        tx.commit()
        sync_once(store, cursor, fixture_exprs)  # I4 not delivered: irrelevant
        assert cursor.ts_ls == 3  # nothing delivered at ts 4 concerned us

        tx = store.begin_transaction()
        tx.create("C2", "Contact")
        tx.link("I1", "Ownership", "C2")
        tx.link("C2", "Reference", "I4")
        tx.commit()
        delta = sync_once(store, cursor, fixture_exprs)
        assert crt_ids(delta) == {"C2", "I4"}
        assert ("I4", "Identity") in delta.crt_objects
        assert delta.upd_objects == set()  # swept elements never show as updates
        assert delta.crt_links == {
            Link("I1", "C2", "Ownership"),
            Link("C2", "I4", "Reference"),
        }
        assert delta.states["I4"] == {"name": "dee"}
        # the stale root is not re-delivered: the sweep starts at the edge
        assert "I1" not in crt_ids(delta)
        assert delta.ts_cs == 5

    def test_update_plus_sweep_resolves_to_create(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        cursor = SyncCursor("I1")
        sync_once(store, cursor, fixture_exprs)
        tx = store.begin_transaction()
        tx.update("I3", {"name": "cy2"})
        tx.commit()
        tx = store.begin_transaction()
        tx.create("C2", "Contact")
        tx.link("I1", "Ownership", "C2")
        tx.link("C2", "Reference", "I3")
        tx.commit()
        delta = sync_once(store, cursor, fixture_exprs)
        # I3 is both updated (event path) and swept (new contact path);
        # it must arrive exactly once, as a create carrying fresh state
        assert "I3" in crt_ids(delta)
        assert "I3" not in delta.upd_objects
        assert delta.states["I3"] == {"name": "cy2"}


class TestDeletionBroadcast:
    def test_irrelevant_deletion_is_broadcast(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        cursor = SyncCursor("I1")
        sync_once(store, cursor, fixture_exprs)
        tx = store.begin_transaction()
        tx.create("E9", "Event", {"title": "secret"})
        tx.commit()
        tx = store.begin_transaction()
        tx.delete("E9")
        tx.commit()
        delta = sync_once(store, cursor, fixture_exprs)
        assert delta.del_objects == {"E9"}
        assert delta.crt_objects == set()  # created and deleted inside the window
        assert delta.ts_cs == 5  # the tombstone timestamp moves the cursor

    def test_relevant_deletion_carries_cascaded_links(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        cursor = SyncCursor("I1")
        sync_once(store, cursor, fixture_exprs)
        tx = store.begin_transaction()
        tx.delete("C1")
        tx.commit()
        delta = sync_once(store, cursor, fixture_exprs)
        assert delta.del_objects == {"C1"}
        assert delta.del_links == {OWN, REF}
        assert delta.ts_cs == 4

    def test_sync_with_only_deletions_still_advances_cursor(self, schema):
        store = Store(schema)
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.create("E1", "Event")
        tx.commit()
        cursor = SyncCursor("I1")
        exprs = [parse_expression("{user}")]
        sync_once(store, cursor, exprs)
        tx = store.begin_transaction()
        tx.delete("E1")
        tx.commit()
        delta = sync_once(store, cursor, exprs)
        assert not delta.is_empty()
        assert delta.ts_cs == 2 > 1


def test_nonempty_delta_always_advances_cursor(schema, fixture_exprs):
    store = build_f1(Store(schema))
    cursor = SyncCursor("I1")
    seen = []
    for round_no in range(3):
        before = cursor.ts_ls
        delta = sync_once(store, cursor, fixture_exprs)
        if not delta.is_empty():
            assert delta.ts_cs > before
        else:
            assert delta.ts_cs == before
        seen.append(delta)
        tx = store.begin_transaction()
        tx.update("I2", {"round": round_no})
        tx.commit()
