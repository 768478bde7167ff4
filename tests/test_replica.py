"""Client replica: delta application, GC sweep, local pushes."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import relsync
import relsync.replica as replica_module
from conftest import build_f1
from relsync.delta import DeltaSet
from relsync.errors import (
    AlreadyDeletedError,
    DuplicateIdError,
    IdReuseError,
    OfflinePushError,
    UnknownIdError,
)
from relsync.expr import parse_expression
from relsync.fuzz import FuzzBounds, _Generator
from relsync.model import (
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    UpdateState,
)
from relsync.paths import relevant_paths
from relsync.replica import Replica
from relsync.runner import MODES, run_scenario
from relsync.store import Store
from relsync.sync import timestamp_sync
from test_model import rebuilt_index

OWN = Link("I1", "C1", "Ownership")
REF = Link("C1", "I2", "Reference")


def make_replica(schema, fixture_exprs, name="A", root="I1"):
    return Replica(name=name, root=root, exprs=fixture_exprs, schema=schema)


def full_sync(store, replica):
    delta = timestamp_sync(
        replica.cursor, store.data, store.log, replica.exprs, store.schema
    )
    replica.apply_delta(delta)
    replica.gc_sweep()
    return delta


class TestApplyDelta:
    def test_apply_is_idempotent(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        replica = make_replica(schema, fixture_exprs)
        delta = timestamp_sync(
            replica.cursor, store.data, store.log, replica.exprs, store.schema
        )
        replica.apply_delta(delta)
        once = replica.data.copy()
        replica.apply_delta(delta)
        assert replica.data.objects == once.objects
        assert replica.data.links == once.links
        assert replica.data.states == once.states

    def test_create_upserts_state(self, schema, fixture_exprs):
        replica = make_replica(schema, fixture_exprs)
        d1 = DeltaSet(ts_cs=1)
        d1.crt_objects = {("I1", "Identity")}
        d1.states = {"I1": {"name": "ana"}}
        replica.apply_delta(d1)
        d2 = DeltaSet(ts_cs=2)
        d2.crt_objects = {("I1", "Identity")}
        d2.states = {"I1": {"name": "ana2"}}
        replica.apply_delta(d2)
        assert replica.data.states["I1"] == {"name": "ana2"}
        assert replica.cursor.ts_ls == 2

    def test_create_with_conflicting_class_is_fatal(self, schema, fixture_exprs):
        replica = make_replica(schema, fixture_exprs)
        d1 = DeltaSet(ts_cs=1)
        d1.crt_objects = {("X1", "Identity")}
        replica.apply_delta(d1)
        d2 = DeltaSet(ts_cs=2)
        d2.crt_objects = {("X1", "Event")}
        with pytest.raises(IdReuseError):
            replica.apply_delta(d2)

    def test_dangling_link_is_dropped_with_warning(self, schema, fixture_exprs):
        replica = make_replica(schema, fixture_exprs)
        d = DeltaSet(ts_cs=1)
        d.crt_objects = {("I1", "Identity")}
        d.crt_links = {Link("I1", "C9", "Ownership")}
        replica.apply_delta(d)
        assert replica.data.links == set()
        assert any("dropped link" in w for w in replica.divergence_warnings)

    def test_update_of_unknown_object_is_skipped_with_warning(
        self, schema, fixture_exprs
    ):
        # the update wire format carries no class, so the object cannot be
        # conjured up; it is skipped and the sweep keeps the replica clean
        replica = make_replica(schema, fixture_exprs)
        d = DeltaSet(ts_cs=1)
        d.upd_objects = {"Z9"}
        d.states = {"Z9": {"k": 1}}
        replica.apply_delta(d)
        assert "Z9" not in replica.data.objects
        assert any("skipped update" in w for w in replica.divergence_warnings)

    def test_unknown_deletions_are_ignored_silently(self, schema, fixture_exprs):
        replica = make_replica(schema, fixture_exprs)
        d = DeltaSet(ts_cs=1)
        d.del_objects = {"never-seen"}
        d.del_links = {Link("a", "b", "Ownership")}
        replica.apply_delta(d)
        assert replica.divergence_warnings == []
        assert replica.cursor.ts_ls == 1

    def test_object_delete_takes_local_links_with_it(self, schema, fixture_exprs):
        replica = make_replica(schema, fixture_exprs)
        d = DeltaSet(ts_cs=1)
        d.crt_objects = {("I1", "Identity"), ("C1", "Contact")}
        d.crt_links = {OWN}
        replica.apply_delta(d)
        d2 = DeltaSet(ts_cs=2)
        d2.del_objects = {"C1"}
        replica.apply_delta(d2)
        assert replica.data.links == set()
        assert "C1" not in replica.data.objects


class TestGcSweep:
    def test_contact_deletion_keeps_identity_reachable_via_event(
        self, schema, fixture_exprs
    ):
        store = build_f1(Store(schema))
        replica = make_replica(schema, fixture_exprs)
        full_sync(store, replica)
        store.apply([DeleteObject("C1")])
        full_sync(store, replica)
        # I2 lost its contact path but still attends the shared event
        assert "I2" in replica.data.objects
        assert "C1" not in replica.data.objects

    def test_unlinking_contact_strands_identity_and_gc_removes_it(self, schema):
        exprs = [parse_expression("{user}.Contact.contactIdentity")]
        store = build_f1(Store(schema))
        replica = Replica(name="A", root="I1", exprs=exprs, schema=schema)
        full_sync(store, replica)
        assert set(replica.data.objects) == {"I1", "C1", "I2"}
        store.apply([DeleteLink(REF)])
        delta = full_sync(store, replica)
        # the link deletion is broadcast; I2 itself is *not* deleted
        # server-side, the local sweep has to notice it went dark
        assert delta.del_objects == set()
        assert REF in delta.del_links
        assert set(replica.data.objects) == {"I1", "C1"}

    def test_gc_returns_removed_ids_and_keeps_root(self, schema, fixture_exprs):
        replica = make_replica(schema, fixture_exprs)
        d = DeltaSet(ts_cs=1)
        d.crt_objects = {("I1", "Identity"), ("E5", "Event")}
        replica.apply_delta(d)  # E5 floats free: no path reaches it
        removed = replica.gc_sweep()
        assert removed == {"E5"}
        assert set(replica.data.objects) == {"I1"}

    def test_a_replica_of_no_expression_syncs_and_keeps_its_root_alone(self, schema):
        store = build_f1(Store(schema))
        replica = Replica(name="A", root="I1", exprs=[], schema=schema)
        delta = full_sync(store, replica)
        assert delta.crt_objects == set() and delta.crt_links == set()
        d = DeltaSet(ts_cs=delta.ts_cs)
        d.crt_objects = {("I1", "Identity"), ("E5", "Event")}
        replica.apply_delta(d)
        assert replica.gc_sweep() == {"E5"}
        assert set(replica.data.objects) == {"I1"}

    def test_a_sweep_removes_what_the_replica_created_off_its_paths(self, schema):
        """What the replica creates is a candidate of the next sweep,
        whatever its walks did: here one walk regrows with nothing
        dropped, so only the record of what was created names the event
        nobody attends and the ownership no role follows."""
        exprs = [parse_expression("{user}.Contact.contactIdentity")]
        store = build_f1(Store(schema))
        store.apply([
            CreateObject.make("C2", "Contact"),
            CreateObject.make("I4", "Identity"),
            CreateLink(Link("I1", "C2", "Ownership")),
            CreateLink(Link("C2", "I4", "Reference")),
        ])
        replica = Replica(name="A", root="I1", exprs=exprs, schema=schema)
        full_sync(store, replica)
        assert set(replica.data.objects) == {"I1", "C1", "I2", "C2", "I4"}
        walk = relevant_paths(schema, replica.data, exprs, user="I1")
        stray = Link("I2", "C2", "Ownership")  # C2's node reads it, I2 is a leaf
        replica.push_local_change(CreateObject.make("E9", "Event"), store)
        replica.push_local_change(CreateLink(stray), store)
        assert replica.gc_sweep() == {"E9"}
        assert stray not in replica.data.links
        assert set(replica.data.objects) == {"I1", "C1", "I2", "C2", "I4"}
        assert relevant_paths(schema, replica.data, exprs, user="I1") is walk

    def test_sweep_is_a_fixed_point(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        replica = make_replica(schema, fixture_exprs)
        full_sync(store, replica)
        assert replica.gc_sweep() == set()
        snapshot = replica.data.copy()
        assert replica.gc_sweep() == set()
        assert replica.data.objects == snapshot.objects
        assert replica.data.links == snapshot.links


class TestPush:
    def test_push_updates_server_and_replica(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        replica = make_replica(schema, fixture_exprs)
        full_sync(store, replica)
        ts = replica.push_local_change(
            UpdateState.make("I1", {"name": "ana-on-the-go"}), store
        )
        assert ts == 4
        assert store.data.states["I1"] == {"name": "ana-on-the-go"}
        assert replica.data.states["I1"] == {"name": "ana-on-the-go"}

    def test_offline_push_is_refused(self, schema, fixture_exprs):
        replica = make_replica(schema, fixture_exprs)
        with pytest.raises(OfflinePushError):
            replica.push_local_change(CreateObject.make("X1", "Event"), None)

    def test_push_must_make_sense_locally(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        replica = make_replica(schema, fixture_exprs)
        full_sync(store, replica)
        with pytest.raises(DuplicateIdError):
            replica.push_local_change(CreateObject.make("I1", "Identity"), store)
        with pytest.raises(UnknownIdError):
            replica.push_local_change(UpdateState.make("nope", {}), store)
        with pytest.raises(AlreadyDeletedError):
            replica.push_local_change(DeleteObject("ghost"), store)

    def test_server_rejected_push_changes_neither_replica_nor_server(self, schema, fixture_exprs):
        store = build_f1(Store(schema))
        replica = make_replica(schema, fixture_exprs)
        full_sync(store, replica)
        # X1 exists on the server but is irrelevant to A, so the replica
        # does not know it: locally fine, server says duplicate
        store.apply([CreateObject.make("X1", "Event")])
        with pytest.raises(DuplicateIdError):
            replica.push_local_change(CreateObject.make("X1", "Event"), store)
        assert "X1" not in replica.data.objects
        assert store.counter == 4  # the failed push committed nothing

    @pytest.mark.parametrize(
        "mutation",
        [
            UpdateState.make("C1", {"nick": "gone"}),
            CreateLink(Link("C1", "I3", "Reference")),
        ],
    )
    def test_rejected_push_leaves_data_and_index_as_they_were(
        self, schema, fixture_exprs, mutation
    ):
        store = build_f1(Store(schema))
        replica = make_replica(schema, fixture_exprs)
        full_sync(store, replica)
        # the server drops C1, which the replica has not heard of yet
        store.apply([DeleteObject("C1")])
        dump = replica.dump()
        states = {oid: dict(state) for oid, state in replica.data.states.items()}
        with pytest.raises(AlreadyDeletedError):
            replica.push_local_change(mutation, store)
        assert replica.dump() == dump
        assert replica.data.states == states
        assert replica.data.incident == rebuilt_index(replica.data.links)


@pytest.fixture
def walks(monkeypatch):
    """The calls of the replica's sweep to `relevant_paths`."""
    calls = []
    walk = replica_module.relevant_paths

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(replica_module, "relevant_paths", counted)
    return calls


@pytest.fixture
def synced(schema, fixture_exprs):
    store = build_f1(Store(schema))
    replica = make_replica(schema, fixture_exprs)
    full_sync(store, replica)
    return store, replica


def memoised(replica) -> dict:
    """Each memoised walk of the replica's data, with its serial."""
    return {key: (walk, walk.paths.serial) for key, walk in replica.data.walks.items()}


class TestSweepOfNoChange:
    """A sweep after a change that moved no path walks, finds each of its
    walks the identical memoised object with its serial unchanged, and so
    looks at nothing and removes nothing."""

    def assert_walks_kept(self, replica, before: dict) -> None:
        walks = replica.data.walks
        assert walks.keys() == before.keys()
        for key, (walk, serial) in before.items():
            assert walks[key] is walk and walk.pending is None
            assert walk.paths.serial == serial

    def test_delta_that_changes_nothing_keeps_every_walk(self, synced, walks):
        store, replica = synced
        before = memoised(replica)
        assert full_sync(store, replica).is_empty()
        # a broadcast delete of an element the replica never held
        ghost = DeltaSet(ts_cs=replica.cursor.ts_ls)
        ghost.del_objects = {"ghost"}
        ghost.del_links = {Link("I1", "ghost", "Ownership")}
        replica.apply_delta(ghost)
        assert replica.gc_sweep() == set()
        assert len(walks) == 2  # the empty sync's sweep and this one
        self.assert_walks_kept(replica, before)

    def test_rejected_push_keeps_every_walk(self, synced, walks):
        store, replica = synced
        before = memoised(replica)
        # X1 is on the server but not on the replica: locally fine, and the
        # server rejects it as a duplicate
        store.apply([CreateObject.make("X1", "Event")])
        with pytest.raises(DuplicateIdError):
            replica.push_local_change(CreateObject.make("X1", "Event"), store)
        assert replica.gc_sweep() == set()
        assert len(walks) == 1
        self.assert_walks_kept(replica, before)

    def test_update_no_filter_root_reads_keeps_every_walk(self, synced, walks):
        store, replica = synced
        before = memoised(replica)
        # every root of the fixture expressions is {user}: no walk reads I2
        store.apply([UpdateState.make("I2", {"name": "bo2"})])
        delta = full_sync(store, replica)
        assert delta.upd_objects == {"I2"}
        assert replica.data.states["I2"] == {"name": "bo2"}
        assert len(walks) == 1
        self.assert_walks_kept(replica, before)


class TestSweepSkip:
    """Changes that move a path: the sweep walks and removes what left
    every slice.  (Named for the skip the sweep once took after changes
    that moved none.)"""

    def test_applied_delta_runs_the_sweep(self, synced, walks):
        store, replica = synced
        store.apply([DeleteLink(REF)])
        full_sync(store, replica)
        assert len(walks) == 1
        assert REF not in replica.data.links

    def test_push_runs_the_sweep(self, synced, walks):
        store, replica = synced
        replica.push_local_change(CreateObject.make("E7", "Event"), store)
        assert replica.gc_sweep() == {"E7"}  # no path reaches a lone event
        assert len(walks) == 1

    def test_rejected_push_keeps_an_earlier_push_unswept(self, synced, walks):
        store, replica = synced
        replica.push_local_change(CreateObject.make("E7", "Event"), store)
        store.apply([CreateObject.make("X1", "Event")])
        with pytest.raises(DuplicateIdError):
            replica.push_local_change(CreateObject.make("X1", "Event"), store)
        # the rejected push touched nothing, so the taken push's change is
        # still unswept and the next sweep walks and removes it
        assert replica.gc_sweep() == {"E7"}
        assert len(walks) == 1

    def test_replaced_data_runs_the_sweep(self, synced, walks):
        _, replica = synced
        # a copy holds no walk, so the sweep walks afresh and looks at
        # every held element
        replica.data = replica.data.copy()
        assert replica.gc_sweep() == set()
        assert len(walks) == 1

    def test_update_a_filter_root_reads_runs_the_sweep(self, schema, walks):
        exprs = [parse_expression('Event[title="b"].Participation.Identity')]
        store = build_f1(Store(schema))
        store.apply([UpdateState.make("E1", {"title": "b"})])
        replica = Replica(name="A", root="I1", exprs=exprs, schema=schema)
        full_sync(store, replica)
        assert set(replica.data.objects) == set(store.data.objects) - {"C1"}
        walks.clear()
        # the rename takes the event off the filter, and its subtree with it
        replica.push_local_change(UpdateState.make("E1", {"title": "a"}), store)
        assert replica.gc_sweep() == {"E1", "P1", "P2", "P3", "I2", "I3"}
        assert len(walks) == 1
        assert set(replica.data.objects) == {"I1"}
        assert replica.data.links == set()

    def test_generated_runs_leave_every_synced_replica_swept(self):
        rng = random.Random(1616)
        for _ in range(100):
            scenario = _Generator(rng, FuzzBounds()).build()
            for mode in MODES:
                bad: list[str] = []

                def hook(ctx, index, client, applied, shadow):
                    replica = ctx.replicas[client]
                    data = replica.data
                    on = {replica.root}
                    # walked on a copy: a walk on the replica's own memo
                    # would regrow what its next sweep reads incrementally
                    for path in relevant_paths(
                        replica.schema, data.copy(), replica.exprs, user=replica.root
                    ):
                        on.update(path)
                    stray = (data.objects.keys() | data.links) - on
                    if stray:
                        bad.append(f"{mode} step {index} {client}: {sorted(map(str, stray))}")

                run_scenario(scenario, mode=mode, on_sync=hook)
                assert bad == []


def test_dump_is_sorted_and_stable(schema, fixture_exprs):
    replica = make_replica(schema, fixture_exprs)
    d = DeltaSet(ts_cs=1)
    d.crt_objects = {("I1", "Identity"), ("C1", "Contact")}
    d.crt_links = {OWN}
    d.states = {"I1": {"name": "ana"}, "C1": {}}
    replica.apply_delta(d)
    assert replica.dump() == (
        "obj C1 Contact {}\n"
        "obj I1 Identity {name=\"ana\"}\n"
        "link I1 Ownership C1\n"
    )


# Applies one delta with six dropped links and six skipped updates to an
# empty replica and prints the warnings it collected.
_WARNINGS_SCRIPT = """
import json
from relsync.delta import DeltaSet
from relsync.fuzz import social_schema
from relsync.model import Link
from relsync.replica import Replica

replica = Replica(name="A", root="I1", exprs=[], schema=social_schema())
delta = DeltaSet(ts_cs=1)
delta.crt_links = {Link(f"P{i}", "E1", "Enrollment") for i in range(3)}
delta.crt_links |= {Link("I1", f"C{i}", "Ownership") for i in range(3)}
delta.upd_objects = {f"I{i}" for i in range(6)}
replica.apply_delta(delta)
print(json.dumps(replica.divergence_warnings))
"""


def test_warning_order_does_not_depend_on_the_hash_seed():
    src = str(Path(relsync.__file__).resolve().parent.parent)
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _WARNINGS_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        runs.append(json.loads(out.stdout))
    # links in the order of their text form, then updates by id
    assert runs[0] == runs[1] == [
        *(f"A: dropped link I1 Ownership C{i}: endpoint missing" for i in range(3)),
        *(f"A: dropped link P{i} Enrollment E1: endpoint missing" for i in range(3)),
        *(f"A: skipped update of unknown object I{i}" for i in range(6)),
    ]
