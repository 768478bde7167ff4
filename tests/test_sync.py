"""Timestamp-based sync: the strict cursor boundary, the first-created-edge
sweep, deletion broadcast, cursor advancement, and agreement with the
brute-force reference over generated transaction streams."""

from __future__ import annotations

import random

import pytest

from brute_force import brute_force_timestamp_delta, scanned_creates
from conftest import build_f1
from relsync.changelog import ActionType, ChangeLog
from relsync.expr import parse_expression
from relsync.fuzz import FuzzBounds, _Generator, social_schema
from relsync.model import (
    CreateLink,
    CreateObject,
    DeleteObject,
    Link,
    SystemData,
    UpdateState,
)
from relsync.paths import relevant_paths
from relsync.scenario import PushStep, SyncStep, TxStep
from relsync.store import Store
from relsync.sync import SyncCursor, timestamp_sync
from test_changelog import _CountedWalk

OWN = Link("I1", "C1", "Ownership")
REF = Link("C1", "I2", "Reference")


def sync_once(store, cursor, exprs):
    delta = timestamp_sync(cursor, store.data, store.log, exprs, store.schema)
    cursor.ts_ls = delta.ts_cs
    return delta


def crt_ids(delta):
    return {oid for oid, _ in delta.crt_objects}


CONTACTS = [parse_expression("{user}.Contact.contactIdentity")]


def logged(*entries):
    """A change log holding (element, action, ts) entries, in the given order."""
    log = ChangeLog()
    for element, action, ts in entries:
        log.record(element, action, ts)
    return log


def contact_chain():
    """I1 -OWN- C1 -REF- I2, the shape CONTACTS walks from I1."""
    return SystemData(
        objects={"I1": "Identity", "C1": "Contact", "I2": "Identity"},
        links={OWN, REF},
        states={"I1": {}, "C1": {"nick": "c"}, "I2": {"name": "bo"}},
    )


def sync_at(ts_ls, data, log, exprs=CONTACTS):
    return timestamp_sync(SyncCursor("I1", ts_ls), data, log, exprs, social_schema())


class TestSweepRule:
    def test_element_stamped_at_the_cursor_is_not_resent(self):
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2", OWN)),
            ("C1", ActionType.UPDATE, 5),
            (REF, ActionType.CREATE, 5),
        )
        assert sync_at(5, data, log).is_empty()
        delta = sync_at(4, data, log)
        assert delta.upd_objects == {"C1"}
        assert delta.crt_links == {REF}
        assert crt_ids(delta) == {"I2"}

    def test_root_created_at_the_cursor_is_not_resent(self):
        data = SystemData(objects={"I1": "Identity"}, states={"I1": {}})
        log = logged(("I1", ActionType.CREATE, 5))
        assert sync_at(5, data, log, [parse_expression("{user}")]).is_empty()
        assert crt_ids(sync_at(4, data, log, [parse_expression("{user}")])) == {"I1"}

    def test_only_new_element_an_edge_sweeps_from_that_edge(self):
        # I1, C1 and I2 predate the cursor; only REF is new.  REF and the
        # old I2 behind it go out as creates, the elements before it do not.
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2", OWN)),
            (REF, ActionType.CREATE, 2),
        )
        delta = sync_at(1, data, log)
        assert delta.crt_links == {REF}
        assert delta.crt_objects == {("I2", "Identity")}
        assert delta.upd_objects == set()
        assert delta.states == {"I2": {"name": "bo"}}
        assert delta.ts_cs == 2

    def test_new_first_edge_sweeps_the_whole_tail(self):
        data = contact_chain()
        log = logged(
            ("I1", ActionType.CREATE, 1),
            *((x, ActionType.CREATE, 3) for x in ("C1", "I2", OWN, REF)),
        )
        delta = sync_at(2, data, log)
        assert delta.crt_links == {OWN, REF}
        assert crt_ids(delta) == {"C1", "I2"}
        assert sync_at(3, data, log).is_empty()

    def test_path_without_new_edge_sends_updates_only(self):
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2", OWN, REF)),
            ("C1", ActionType.UPDATE, 2),
            ("I2", ActionType.UPDATE, 2),
        )
        delta = sync_at(1, data, log)
        assert delta.crt_objects == set()
        assert delta.crt_links == set()
        assert delta.upd_objects == {"C1", "I2"}
        assert delta.ts_cs == 2

    def test_two_new_edges_sweep_from_the_first(self):
        # OWN and REF are both new; the sweep starts at OWN, so the old C1
        # between them goes out too, as a create and not as an update
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2")),
            (OWN, ActionType.CREATE, 2),
            (REF, ActionType.CREATE, 2),
            ("C1", ActionType.UPDATE, 2),
        )
        delta = sync_at(1, data, log)
        assert delta.crt_links == {OWN, REF}
        assert crt_ids(delta) == {"C1", "I2"}
        assert delta.upd_objects == set()

    def test_new_edge_does_not_sweep_a_sibling_path(self):
        # I1 -OWN- C1 branches to I2 (old link) and to I3 (new link); the
        # sweep covers the new branch only, so the shared prefix and I2
        # are not resent and I2's update goes out as an update
        new_ref = Link("C1", "I3", "Reference")
        data = contact_chain()
        data.objects["I3"] = "Identity"
        data.states["I3"] = {}
        data.links.add(new_ref)
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2", "I3", OWN, REF)),
            (new_ref, ActionType.CREATE, 2),
            ("I2", ActionType.UPDATE, 2),
        )
        delta = sync_at(1, data, log)
        assert delta.crt_links == {new_ref}
        assert crt_ids(delta) == {"I3"}
        assert delta.upd_objects == {"I2"}


class TestChangedSince:
    """Per action, the sync walks the log's changes since the cursor while
    they are no more than the slice's elements, and past that probes each
    element of the slice instead."""

    def walked(self, log):
        for action in (ActionType.CREATE, ActionType.UPDATE):
            log._stamps[action] = _CountedWalk(dict.items(log._stamps[action]))
        return log._stamps

    def test_long_history_is_probed_per_slice_element(self):
        # 1000 off-path objects created and updated after the chain: the
        # walk gives up one entry past the 5 elements of the slice, or at
        # once when even the oldest entry is newer than the cursor
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2", OWN, REF)),
            ("C1", ActionType.UPDATE, 2),
            *((f"X{i}", action, 3 + i) for i in range(1000) for action in ActionType
              if action is not ActionType.DELETE),
        )
        stamps = self.walked(log)
        delta = sync_at(0, data, log)
        assert crt_ids(delta) == {"I1", "C1", "I2"}
        assert delta.crt_links == {OWN, REF}
        assert delta.upd_objects == set()
        assert stamps[ActionType.CREATE].visited == 1
        assert stamps[ActionType.UPDATE].visited == 1
        # from a later cursor the oldest create is not newer, so that walk
        # starts, and the probe finds C1's update
        stamps = self.walked(log)
        delta = sync_at(1, data, log)
        assert delta.upd_objects == {"C1"} and crt_ids(delta) == set()
        assert stamps[ActionType.CREATE].visited == 1 + 6
        assert stamps[ActionType.UPDATE].visited == 1

    def test_short_history_is_walked(self):
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2", OWN, REF)),
            ("X1", ActionType.CREATE, 2),
            ("I2", ActionType.UPDATE, 3),
        )
        stamps = self.walked(log)
        delta = sync_at(1, data, log)
        assert delta.upd_objects == {"I2"} and crt_ids(delta) == set()
        # CREATE holds more entries than the slice, so it looks at its oldest
        # (I1, not newer) and walks X1 and then REF, which stops it; UPDATE
        # holds one entry and walks I2
        assert stamps[ActionType.CREATE].visited == 1 + 2
        assert stamps[ActionType.UPDATE].visited == 1
        assert delta.crt_links == set() and delta.del_objects == set()


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_matches_brute_force_over_generated_streams(seed):
    # Replay generated transaction streams into a store; after every commit,
    # each client's delta since its last sync must equal the reference's.
    for offset in range(10):
        scenario = _Generator(random.Random(seed + offset), FuzzBounds()).build()
        store = Store(scenario.schema)
        cursors = {name: SyncCursor(d.root) for name, d in scenario.clients.items()}
        for index, step in enumerate(scenario.steps):
            if isinstance(step, SyncStep):
                cursor = cursors[step.client]
                exprs = scenario.clients[step.client].exprs
                sync_once(store, cursor, exprs)
                continue
            if isinstance(step, TxStep):
                store.apply(step.mutations)
            elif isinstance(step, PushStep):
                store.apply([step.mutation])
            else:
                continue
            for name, cursor in cursors.items():
                exprs = scenario.clients[name].exprs
                delta = timestamp_sync(cursor, store.data, store.log, exprs, store.schema)
                want = brute_force_timestamp_delta(
                    store.schema, store.data, store.log, exprs, cursor.user, cursor.ts_ls
                )
                got = (delta.crt_objects, delta.upd_objects, delta.crt_links)
                assert got == want, f"seed {seed + offset} step {index} client {name}"


def assert_creates_as_scanned(schema, data, log, exprs, user, ts_ls):
    """The sync's creates equal the scan-every-path rule's over a fresh
    walk: on a first call and on a second, which reads the walks memoised
    by the first and the link lookups it filled.  Data already holding
    the walks reads them both times."""
    want = scanned_creates(relevant_paths(schema, data.copy(), exprs, user=user), log, ts_ls)
    for _ in range(2):
        delta = timestamp_sync(SyncCursor(user, ts_ls), data, log, exprs, schema)
        assert (crt_ids(delta), delta.crt_links) == want
    return want


class TestFirstNewLinkAgainstScan:
    """The first-new-link rule reads each walk's link lookup; these compare
    it with the rule that scans every path."""

    def test_over_generated_streams(self):
        # after every commit, each client's creates since its own cursor
        # and since the start; the store's live data keeps the walks
        for seed in range(40):
            scenario = _Generator(random.Random(seed), FuzzBounds()).build()
            store = Store(scenario.schema)
            cursors = {name: SyncCursor(d.root) for name, d in scenario.clients.items()}
            for step in scenario.steps:
                if isinstance(step, SyncStep):
                    sync_once(store, cursors[step.client], scenario.clients[step.client].exprs)
                    continue
                if isinstance(step, TxStep):
                    store.apply(step.mutations)
                elif isinstance(step, PushStep):
                    store.apply([step.mutation])
                else:
                    continue
                for name, cursor in cursors.items():
                    exprs = scenario.clients[name].exprs
                    for ts_ls in (cursor.ts_ls, 0):
                        assert_creates_as_scanned(
                            store.schema, store.data, store.log, exprs, cursor.user, ts_ls
                        )

    def test_a_path_holding_two_new_links(self):
        # OWN and REF both new on I1 -OWN- C1 -REF- I2: the sweep starts at OWN
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2")),
            (OWN, ActionType.CREATE, 2),
            (REF, ActionType.CREATE, 2),
        )
        got = assert_creates_as_scanned(social_schema(), data, log, CONTACTS, "I1", 1)
        assert got == ({"C1", "I2"}, {OWN, REF})

    def test_a_new_link_on_paths_of_both_expressions(self):
        # REF is the second link of the first expression's path and the
        # first of the second's
        exprs = CONTACTS + [parse_expression("{C1}.contactIdentity")]
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2", OWN)),
            (REF, ActionType.CREATE, 2),
        )
        got = assert_creates_as_scanned(social_schema(), data, log, exprs, "I1", 1)
        assert got == ({"I2"}, {REF})

    def test_a_new_link_at_the_roots_first_edge(self):
        # only OWN is new; the old C1, REF and I2 behind it go out too
        data = contact_chain()
        log = logged(
            *((x, ActionType.CREATE, 1) for x in ("I1", "C1", "I2", REF)),
            (OWN, ActionType.CREATE, 2),
        )
        got = assert_creates_as_scanned(social_schema(), data, log, CONTACTS, "I1", 1)
        assert got == ({"C1", "I2"}, {OWN, REF})


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
        store.apply([CreateObject.make("I1", "Identity", {"name": "ana"})])
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
        store.apply([UpdateState.make("I2", {"name": "bob"})])
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
        store.apply([CreateObject.make("I4", "Identity", {"name": "dee"})])
        sync_once(store, cursor, fixture_exprs)  # I4 not delivered: irrelevant
        assert cursor.ts_ls == 3  # nothing delivered at ts 4 concerned us

        store.apply([
            CreateObject.make("C2", "Contact"),
            CreateLink(Link("I1", "C2", "Ownership")),
            CreateLink(Link("C2", "I4", "Reference")),
        ])
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
        store.apply([UpdateState.make("I3", {"name": "cy2"})])
        store.apply([
            CreateObject.make("C2", "Contact"),
            CreateLink(Link("I1", "C2", "Ownership")),
            CreateLink(Link("C2", "I3", "Reference")),
        ])
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
        store.apply([CreateObject.make("E9", "Event", {"title": "secret"})])
        store.apply([DeleteObject("E9")])
        delta = sync_once(store, cursor, fixture_exprs)
        assert delta.del_objects == {"E9"}
        assert delta.crt_objects == set()  # created and deleted inside the window
        assert delta.ts_cs == 5  # the tombstone timestamp moves the cursor

    def test_relevant_deletion_carries_cascaded_links(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        cursor = SyncCursor("I1")
        sync_once(store, cursor, fixture_exprs)
        store.apply([DeleteObject("C1")])
        delta = sync_once(store, cursor, fixture_exprs)
        assert delta.del_objects == {"C1"}
        assert delta.del_links == {OWN, REF}
        assert delta.ts_cs == 4

    def test_sync_with_only_deletions_still_advances_cursor(self, schema):
        store = Store(schema)
        store.apply([
            CreateObject.make("I1", "Identity"),
            CreateObject.make("E1", "Event"),
        ])
        cursor = SyncCursor("I1")
        exprs = [parse_expression("{user}")]
        sync_once(store, cursor, exprs)
        store.apply([DeleteObject("E1")])
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
        store.apply([UpdateState.make("I2", {"round": round_no})])
