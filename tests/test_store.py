"""Server store: batch checks, commit order, the logical clock."""

from __future__ import annotations

import random
import re
import sys

import pytest

import relsync.fuzz as fuzz_module
import relsync.store as store_module
from relsync.changelog import ActionType
from relsync.errors import (
    AlreadyDeletedError,
    CommitError,
    DuplicateIdError,
    DuplicateLinkError,
    SchemaMismatchError,
    TokenError,
    UnknownIdError,
)
from relsync.model import (
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    SystemData,
    UpdateState,
)
from relsync.paths import relevant_paths
from relsync.scenario import PushStep, TxStep
from relsync.store import Store

from brute_force import validate_all
from conftest import build_f1
from test_model import frozen_view, rebuilt_index


@pytest.fixture
def store(schema):
    return Store(schema)


def contents(store: Store) -> tuple:
    """A copy of everything a rejected batch must leave as it was.  The
    index is copied only once something has built it (reading builds it)."""
    data = store.data
    return (
        dict(data.objects),
        set(data.links),
        {oid: dict(state) for oid, state in data.states.items()},
        None if data._incident is None else dict(data._incident),
        store.log.dump(),
        store.counter,
    )


def rejects(store: Store, batch: list, error: type, match: str | None = None) -> None:
    """Apply a batch that must fail with `error`, and check it changed nothing."""
    before = contents(store)
    with pytest.raises(error, match=match):
        store.apply(batch)
    assert contents(store) == before


def shuffle_kinds(batch: list, rng: random.Random) -> list:
    """The batch in a random order that keeps each kind's own order."""
    queues: dict[type, list] = {}
    for m in reversed(batch):
        queues.setdefault(type(m), []).append(m)
    kinds = [type(m) for m in batch]
    rng.shuffle(kinds)
    return [queues[kind].pop() for kind in kinds]


I1 = CreateObject.make("I1", "Identity")
C1 = CreateObject.make("C1", "Contact")
OWN = Link("I1", "C1", "Ownership")


class TestStaging:
    def test_create_unknown_class(self, store):
        rejects(store, [CreateObject.make("X1", "Spaceship")], SchemaMismatchError,
                "unknown class")

    def test_duplicate_id_within_tx(self, store):
        rejects(store, [I1, CreateObject.make("I1", "Contact")], DuplicateIdError)

    def test_duplicate_id_against_live_data(self, store):
        store.apply([I1])
        rejects(store, [I1], DuplicateIdError)

    def test_ids_are_never_reused(self, store):
        store.apply([I1])
        store.apply([DeleteObject("I1")])
        rejects(store, [I1], DuplicateIdError, "never reused")

    def test_staging_is_order_free_within_tx(self, store):
        # the link may precede the creates it depends on
        assert store.apply([I1, CreateLink(OWN), C1]) == 1
        assert OWN in store.data.links

    def test_a_batch_commits_in_kind_order_whatever_its_list_order(self, store):
        # every mutation here names an object the batch creates after it
        batch = [DeleteObject("C1"), UpdateState.make("C1", {"nick": "x"}),
                 DeleteLink(OWN), CreateLink(OWN), C1, I1]
        assert store.apply(batch) == 1
        assert store.data.objects == {"I1": "Identity"}
        assert store.data.links == set()
        assert store.log.actions("C1") == {ActionType.DELETE: 1}
        assert store.log.actions(OWN) == {ActionType.DELETE: 1}

    def test_link_to_never_created_object_fails_at_commit(self, store):
        # the batch is checked in commit order, so the unknown endpoint is
        # named as soon as the link's check runs
        rejects(store, [I1, CreateLink(Link("I1", "C9", "Ownership"))], UnknownIdError,
                "unknown object C9")
        assert store.counter == 0
        assert store.data.objects == {}
        assert store.apply([I1]) == 1

    def test_link_to_tombstoned_object_fails_at_stage(self, store):
        store.apply([I1, C1])
        store.apply([DeleteObject("C1")])
        rejects(store, [CreateLink(OWN)], AlreadyDeletedError)

    def test_forward_link_with_wrong_classes_fails_at_commit(self, store):
        # backwards, and listed before C1's create
        rejects(store, [I1, CreateLink(Link("C1", "I1", "Ownership")), C1],
                SchemaMismatchError, "do not fit")
        assert store.counter == 0

    def test_backwards_link_rejected(self, store):
        rejects(store, [I1, C1, CreateLink(Link("C1", "I1", "Ownership"))],
                SchemaMismatchError, "do not fit")

    def test_duplicate_link(self, store):
        rejects(store, [I1, C1, CreateLink(OWN), CreateLink(OWN)], DuplicateLinkError)

    def test_unlink_then_relink_in_one_tx_is_rejected(self, store):
        # a batch checks link creates before link deletes, so a re-create
        # cannot see the delete; issue the delete and the create in separate
        # transactions instead
        store.apply([I1, C1, CreateLink(OWN)])
        rejects(store, [DeleteLink(OWN), CreateLink(OWN)], DuplicateLinkError)

    def test_update_of_deleted_object(self, store):
        store.apply([I1])
        store.apply([DeleteObject("I1")])
        rejects(store, [UpdateState.make("I1", {"name": "x"})], AlreadyDeletedError)

    @pytest.mark.parametrize("key", ["a#b", "x y", "a=b", ""])
    def test_a_state_key_must_be_a_token(self, store, key):
        # no scenario, delta or dump line could carry such a key back
        rejects(store, [CreateObject.make("I1", "Identity", {key: 1})], TokenError,
                "attribute name")
        store.apply([I1])
        rejects(store, [UpdateState.make("I1", {"name": "x", key: 1})], TokenError,
                "attribute name")

    def test_double_delete_in_one_tx(self, store):
        store.apply([I1])
        rejects(store, [DeleteObject("I1"), DeleteObject("I1")], AlreadyDeletedError,
                "twice")
        store.apply([C1, CreateLink(OWN)])
        rejects(store, [DeleteLink(OWN), DeleteLink(OWN)], AlreadyDeletedError, "twice")


class TestCommit:
    def test_empty_commit_returns_none_and_leaves_no_trace(self, store):
        assert store.apply([]) is None
        assert store.counter == 0
        assert store.log.dump() == ""

    def test_commit_stamps_every_entry_with_one_timestamp(self, store):
        ts = store.apply([I1, C1, CreateLink(OWN)])
        assert ts == 1
        assert store.log.ts("I1", ActionType.CREATE) == 1
        assert store.log.ts("C1", ActionType.CREATE) == 1
        assert store.log.ts(OWN, ActionType.CREATE) == 1

    def test_counter_follows_commit_order(self, store):
        for i, oid in enumerate(["I1", "I2", "I3"], start=1):
            assert store.apply([CreateObject.make(oid, "Identity")]) == i
        assert store.counter == 3

    def test_delete_cascades_to_links_and_logs_them(self, schema):
        store = build_f1(Store(schema))
        ts = store.apply([DeleteObject("C1")])
        assert "C1" not in store.data.objects
        referenced = Link("C1", "I2", "Reference")
        assert OWN not in store.data.links
        assert referenced not in store.data.links
        assert store.log.ts(OWN, ActionType.DELETE) == ts
        assert store.log.ts(referenced, ActionType.DELETE) == ts

    def test_update_then_delete_collapses_in_log(self, store):
        store.apply([I1])
        store.apply([UpdateState.make("I1", {"name": "x"}), DeleteObject("I1")])
        assert store.log.actions("I1") == {ActionType.DELETE: 2}

    def test_update_replaces_whole_state(self, store):
        store.apply([CreateObject.make("I1", "Identity", {"name": "ana", "age": 3})])
        store.apply([UpdateState.make("I1", {"name": "bo"})])
        assert store.data.states["I1"] == {"name": "bo"}

    def test_list_order_does_not_change_a_commit(self):
        # Each generated tx batch, committed once as listed and once with
        # its kinds shuffled, must leave the same store behind.  List order
        # holds within a kind (two updates of one object), so the shuffle
        # keeps each kind's mutations in their listed order.
        for seed in range(120):
            scenario = fuzz_module._Generator(
                random.Random(seed), fuzz_module.FuzzBounds()
            ).build()
            listed, shuffled = Store(scenario.schema), Store(scenario.schema)
            rng = random.Random(seed)
            for step in scenario.steps:
                if isinstance(step, TxStep):
                    listed.apply(step.mutations)
                    shuffled.apply(shuffle_kinds(step.mutations, rng))
                elif isinstance(step, PushStep):
                    listed.apply([step.mutation])
                    shuffled.apply([step.mutation])
            assert listed.counter > 0
            assert contents(shuffled) == contents(listed), seed


class TestApply:
    def test_apply_commits_a_batch(self, store):
        ts = store.apply([CreateObject.make("I1", "Identity", {"name": "ana"})])
        assert ts == 1
        assert store.data.states["I1"] == {"name": "ana"}

    def test_apply_failure_releases_writer_and_changes_nothing(self, store):
        rejects(store, [I1, CreateObject.make("X1", "Spaceship")], SchemaMismatchError)
        assert store.counter == 0
        assert store.data.objects == {}
        # the store takes the next batch
        assert store.apply([I1]) == 1

    def test_snapshot_is_isolated_from_later_commits(self, store):
        store.apply([CreateObject.make("I1", "Identity")])
        snap = store.data
        store.apply([CreateObject.make("I2", "Identity")])
        assert "I2" not in snap.objects
        assert "I2" in store.data.objects

    def test_held_snapshot_keeps_its_paths(self, store, fixture_exprs):
        build_f1(store)
        snap = store.data
        # a copy: the walks move on with the live data, regrown in place
        paths = frozenset(relevant_paths(store.schema, snap, fixture_exprs, user="I1"))
        # link creates and deletes and an object delete, on the vertices of
        # those paths, each commit deriving from the last
        store.apply([
            DeleteLink(Link("C1", "I2", "Reference")),
            CreateLink(Link("C1", "I3", "Reference")),
        ])
        store.apply([CreateObject.make("P4", "Participation"),
                     CreateLink(Link("I1", "P4", "Attendance")),
                     CreateLink(Link("P4", "E1", "Enrollment"))])
        store.apply([DeleteObject("P2"), DeleteLink(Link("I3", "P3", "Attendance"))])
        live = relevant_paths(store.schema, store.data, fixture_exprs, user="I1")
        assert frozenset(live) != paths
        assert frozenset(relevant_paths(store.schema, snap, fixture_exprs, user="I1")) == paths


# A batch of each kind on the fixture graph: case -> batch.
SHARING_CASES = {
    "update-only": [UpdateState.make("I1", {"name": "al"})],
    "create-object-only": [CreateObject.make("I4", "Identity")],
    "link-only": [
        DeleteLink(Link("C1", "I2", "Reference")), CreateLink(Link("C1", "I3", "Reference"))
    ],
    "update-and-link": [
        UpdateState.make("I1", {"name": "al"}), CreateLink(Link("C1", "I3", "Reference"))
    ],
    "delete-object": [DeleteObject("P3")],
}


@pytest.mark.parametrize("case", SHARING_CASES)
def test_a_commit_copies_no_container(store, case):
    """The new version holds the very containers the live version held,
    index and memo included, and the replaced version none."""
    build_f1(store)
    previous = store.data
    previous.incident  # built, so the commit has an index to hand on
    names = ("objects", "links", "states", "_incident", "walks")
    held = {name: vars(previous)[name] for name in names}
    store.apply(SHARING_CASES[case])
    assert store.data is not previous
    for name, container in held.items():
        assert vars(store.data)[name] is container, name
    assert "objects" not in vars(previous)


@pytest.mark.parametrize("indexed", [True, False])
@pytest.mark.parametrize("case", SHARING_CASES)
def test_a_held_snapshot_survives_a_commit_of_each_kind(store, case, indexed):
    """With the snapshot's index built before the commit, the new version
    takes it over and the rebuilt snapshot copies it; without, the rebuilt
    snapshot builds its own on this read."""
    batch = SHARING_CASES[case]
    build_f1(store)
    snap = store.data
    if indexed:
        snap.incident
    view = frozen_view(snap.copy())
    store.apply(batch)
    assert store.data is not snap
    # a read of the index rebuilds the snapshot as any other read does
    assert (snap._incident is not None) == indexed
    assert "objects" in vars(snap)
    assert frozen_view(snap) == view
    assert snap.incident == rebuilt_index(snap.links)


def test_a_rejected_update_only_batch_leaves_the_live_states_alone(store):
    build_f1(store)
    states = store.data.states
    before = {oid: dict(state) for oid, state in states.items()}
    rejects(store, [UpdateState.make("I1", {"name": "al"}), UpdateState.make("X9", {})],
            UnknownIdError)
    assert store.data.states is states
    assert states == before


# Mutations that fail at staging, each once every mutation of a lower
# rank in the commit order is staged.
_FAILING = (
    UpdateState.make("gone", {}),
    DeleteLink(Link("gone", "lost", "Ownership")),
    DeleteObject("gone"),
)


def test_a_rejected_twin_of_every_generated_batch_changes_nothing(monkeypatch):
    """Each batch of generated streams gets two rejected twins before it
    commits: one fails at `stage_mutation` partway through, after the
    batch's mutations that sort before the failing one; the other fails
    at `validate_schema` once all of it is staged.  Each twin must leave
    the data, its index, every memoised walk (the very entry) and the
    change log as they were, and no walk stale."""
    checked = store_module.validate_schema
    forced = False
    reached = 0

    def validate(schema, data, touched):
        nonlocal reached
        if forced:  # the batch is staged: count the walks it reached
            reached += any(data.walks.get(key) is not walk for key, walk in walks.items())
        return checked(schema, data, touched) + (["forced violation"] if forced else [])

    monkeypatch.setattr(store_module, "validate_schema", validate)
    rng = random.Random(5)
    twins = 0
    for seed in range(40):
        scenario = fuzz_module._Generator(random.Random(seed), fuzz_module.FuzzBounds()).build()
        store = Store(scenario.schema)
        for step in scenario.steps:
            if isinstance(step, TxStep):
                batch = step.mutations
            elif isinstance(step, PushStep):
                batch = [step.mutation]
            else:
                continue
            data = store.data
            for decl in scenario.clients.values():
                relevant_paths(scenario.schema, data, decl.exprs, user=decl.root)
            view, walks, log = frozen_view(data), dict(data.walks), store.log.dump()
            for twin in (batch + [rng.choice(_FAILING)], batch):
                forced = twin is batch
                with pytest.raises(CommitError if forced else UnknownIdError):
                    store.apply(twin)
                forced = False
                twins += 1
                assert store.data is data
                assert frozen_view(data) == view
                assert data.incident == rebuilt_index(data.links)
                assert data.walks.keys() == walks.keys()
                assert all(data.walks[key] is walk for key, walk in walks.items())
                assert store.log.dump() == log
                assert fuzz_module.stale_walks(data) == []
            store.apply(batch)
    assert twins > 1000
    assert reached > 100  # batches whose staging replaced or dropped a walk


def test_a_one_mutation_commit_costs_the_same_on_a_store_eight_times_larger():
    """A commit of one mutation of each kind makes as many Python calls on
    a store of 8N objects as on one of N (the delete cascades through a
    built index).  It copies no container: the new version holds the very
    ones the replaced version held, and that one holds none."""

    def calls(n: int) -> list[int]:
        store = Store(fuzz_module.social_schema())
        batch = []
        for i in range(n):
            batch += [
                CreateObject.make(f"I{i}", "Identity"),
                CreateObject.make(f"C{i}", "Contact"),
                CreateLink(Link(f"I{i}", f"C{i}", "Ownership")),
            ]
        store.apply(batch)
        store.data.incident  # so the delete below cascades through it
        names = ("objects", "links", "states", "_incident")
        counts = []
        for mutation in (
            CreateObject.make("I", "Identity"),
            UpdateState.make("I3", {"name": "al"}),
            CreateLink(Link("C0", "I1", "Reference")),
            DeleteLink(Link("I4", "C4", "Ownership")),
            DeleteObject("I2"),
        ):
            previous = store.data
            held = {name: vars(previous)[name] for name in names}
            made = 0

            def count(frame, event, arg):
                nonlocal made
                made += event == "call"

            sys.setprofile(count)
            try:
                store.apply([mutation])
            finally:
                sys.setprofile(None)
            counts.append(made)
            assert "objects" not in vars(previous)
            assert all(vars(store.data)[name] is held[name] for name in held)
        return counts

    assert calls(250) == calls(2000)


def test_was_deleted(store):
    store.apply([I1])
    assert not store.log.is_deleted("I1")
    store.apply([DeleteObject("I1")])
    assert "I1" not in store.data.objects
    assert store.log.is_deleted("I1")


# Faults in SystemData.apply that commit's scoped check must catch.  Each
# takes the unpatched apply and returns a patched one.

def _delete_keeps_an_unreported_link(apply):
    def faulty(data, m):
        cascade = apply(data, m)
        if isinstance(m, DeleteObject):
            kept = max(cascade)
            cascade.remove(kept)
            apply(data, CreateLink(kept))
        return cascade
    return faulty


def _delete_keeps_a_cascaded_link(apply):
    def faulty(data, m):
        cascade = apply(data, m)
        if isinstance(m, DeleteObject):
            apply(data, CreateLink(max(cascade)))  # yet reports it deleted
        return cascade
    return faulty


def _delete_keeps_the_state(apply):
    def faulty(data, m):
        if not isinstance(m, DeleteObject):
            return apply(data, m)
        state = data.states[m.object_id]
        cascade = apply(data, m)
        data.states[m.object_id] = state
        return cascade
    return faulty


def _create_leaves_no_state(apply):
    def faulty(data, m):
        cascade = apply(data, m)
        if isinstance(m, CreateObject):
            del data.states[m.object_id]
        return cascade
    return faulty


C1_DELETE = DeleteObject("C1")
# the larger of the two links C1's delete cascades to
C1_KEPT = str(max(Link("I1", "C1", "Ownership"), Link("C1", "I2", "Reference")))


class _CountingDict(dict):
    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class _CountingSet(set):
    lookups = 0

    def __contains__(self, item):
        self.lookups += 1
        return super().__contains__(item)


class TestScopedValidation:
    """Commit validates only what its batch touched; these check that the
    touched elements still cover every way a batch can break the data."""

    @pytest.mark.parametrize(
        "fault, index_built, mutation, named",
        [
            # found only through the deleted object's index entry
            (_delete_keeps_an_unreported_link, True, C1_DELETE, C1_KEPT),
            # found only because cascaded links count as touched
            (_delete_keeps_a_cascaded_link, False, C1_DELETE, C1_KEPT),
            (_delete_keeps_the_state, False, C1_DELETE, "state C1"),
            (_create_leaves_no_state, False, CreateObject.make("I9", "Identity"), "object I9"),
        ],
    )
    def test_a_faulty_apply_fails_the_commit_and_changes_nothing(
        self, store, monkeypatch, fault, index_built, mutation, named
    ):
        build_f1(store)
        if index_built:
            store.data.incident  # a sync reads it; commits then keep it
        data, counter, log = store.data, store.counter, store.log.dump()
        before = contents(store)
        assert (data._incident is not None) == index_built
        monkeypatch.setattr(SystemData, "apply", fault(SystemData.apply))
        with pytest.raises(CommitError, match=re.escape(named)):
            store.apply([mutation])
        assert store.data is data
        assert store.counter == counter
        assert store.log.dump() == log
        assert contents(store) == before

    def test_every_commit_of_a_fuzz_stream_leaves_the_store_valid(self):
        # The scoped check is sound only while the data each batch starts
        # from is valid as a whole; half the stores cascade through the index.
        for seed in range(120):
            scenario = fuzz_module._Generator(
                random.Random(seed), fuzz_module.FuzzBounds()
            ).build()
            store = Store(scenario.schema)
            for step in scenario.steps:
                if isinstance(step, TxStep):
                    store.apply(step.mutations)
                elif isinstance(step, PushStep):
                    store.apply([step.mutation])
                else:
                    continue
                if seed % 2:
                    store.data.incident
                violations = validate_all(store.schema, store.data)
                assert violations == [], (seed, violations)

    def test_commit_checks_cost_what_the_batch_touched(self):
        def lookups(n: int) -> int:
            store = Store(fuzz_module.social_schema())
            batch = []
            for i in range(n):
                batch += [
                    CreateObject.make(f"I{i}", "Identity"),
                    CreateObject.make(f"C{i}", "Contact"),
                    CreateLink(Link(f"I{i}", f"C{i}", "Ownership")),
                ]
            store.apply(batch)
            store.data.incident  # so the delete below cascades through it
            assocs = store.schema.assocs = _CountingDict(store.schema.assocs)
            classes = store.schema.classes = _CountingSet(store.schema.classes)
            store.apply([CreateLink(Link("C0", "I1", "Reference"))])
            store.apply([DeleteObject("I2")])
            store.apply([CreateObject.make("I", "Identity"), UpdateState.make("I3", {})])
            return assocs.lookups + classes.lookups

        small, large = lookups(1000), lookups(2000)
        assert small == large <= 10

