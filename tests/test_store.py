"""Server store: transactional staging, commit order, the logical clock."""

from __future__ import annotations

import pytest

from relsync.changelog import ActionType
from relsync.errors import (
    AlreadyDeletedError,
    DuplicateIdError,
    DuplicateLinkError,
    SchemaMismatchError,
    TransactionError,
    UnknownIdError,
)
from relsync.model import (
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    UpdateState,
)
from relsync.paths import relevant_paths
from relsync.store import Store

from conftest import build_f1


@pytest.fixture
def store(schema):
    return Store(schema)


class TestStaging:
    def test_create_unknown_class(self, store):
        tx = store.begin_transaction()
        with pytest.raises(SchemaMismatchError, match="unknown class"):
            tx.create("X1", "Spaceship")

    def test_duplicate_id_within_tx(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        with pytest.raises(DuplicateIdError):
            tx.create("I1", "Contact")

    def test_duplicate_id_against_live_data(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.commit()
        tx = store.begin_transaction()
        with pytest.raises(DuplicateIdError):
            tx.create("I1", "Identity")

    def test_ids_are_never_reused(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.commit()
        tx = store.begin_transaction()
        tx.delete("I1")
        tx.commit()
        tx = store.begin_transaction()
        with pytest.raises(DuplicateIdError, match="never reused"):
            tx.create("I1", "Identity")

    def test_staging_is_order_free_within_tx(self, store):
        # the link may precede the creates it depends on
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.link("I1", "Ownership", "C1")
        tx.create("C1", "Contact")
        assert tx.commit() == 1
        assert Link("I1", "C1", "Ownership") in store.data.links

    def test_link_to_never_created_object_fails_at_commit(self, store):
        # forward references are provisionally accepted at stage time, so
        # the unknown endpoint only surfaces when the batch is resolved
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.link("I1", "Ownership", "C9")
        with pytest.raises(UnknownIdError, match="C9"):
            tx.commit()
        assert store.counter == 0
        assert store.data.objects == {}
        store.begin_transaction().abort()  # writer slot was released

    def test_link_to_tombstoned_object_fails_at_stage(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.create("C1", "Contact")
        tx.commit()
        tx = store.begin_transaction()
        tx.delete("C1")
        tx.commit()
        tx = store.begin_transaction()
        with pytest.raises(AlreadyDeletedError):
            tx.link("I1", "Ownership", "C1")

    def test_forward_link_with_wrong_classes_fails_at_commit(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.link("C1", "Ownership", "I1")  # backwards, but C1 not staged yet
        tx.create("C1", "Contact")
        with pytest.raises(SchemaMismatchError, match="do not fit"):
            tx.commit()
        assert store.counter == 0

    def test_backwards_link_rejected(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.create("C1", "Contact")
        with pytest.raises(SchemaMismatchError, match="do not fit"):
            tx.link("C1", "Ownership", "I1")

    def test_duplicate_link(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.create("C1", "Contact")
        tx.link("I1", "Ownership", "C1")
        with pytest.raises(DuplicateLinkError):
            tx.link("I1", "Ownership", "C1")

    def test_unlink_then_relink_in_one_tx_is_rejected(self, store):
        # staging checks are order-free, so a re-create cannot see the
        # staged delete; issue the delete and the create in separate
        # transactions instead
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.create("C1", "Contact")
        tx.link("I1", "Ownership", "C1")
        tx.commit()
        tx = store.begin_transaction()
        tx.unlink("I1", "Ownership", "C1")
        with pytest.raises(DuplicateLinkError):
            tx.link("I1", "Ownership", "C1")

    def test_update_of_deleted_object(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.commit()
        tx = store.begin_transaction()
        tx.delete("I1")
        tx.commit()
        tx = store.begin_transaction()
        with pytest.raises(AlreadyDeletedError):
            tx.update("I1", {"name": "x"})

    def test_double_delete_in_one_tx(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.commit()
        tx = store.begin_transaction()
        tx.delete("I1")
        with pytest.raises(AlreadyDeletedError, match="twice"):
            tx.delete("I1")

    def test_failed_stage_leaves_tx_usable(self, store):
        tx = store.begin_transaction()
        with pytest.raises(SchemaMismatchError):
            tx.create("X1", "Spaceship")
        tx.create("I1", "Identity")
        assert tx.commit() == 1


class TestCommit:
    def test_empty_commit_returns_none_and_leaves_no_trace(self, store):
        tx = store.begin_transaction()
        assert tx.commit() is None
        assert store.counter == 0
        assert store.log.dump() == ""

    def test_commit_stamps_every_entry_with_one_timestamp(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.create("C1", "Contact")
        tx.link("I1", "Ownership", "C1")
        ts = tx.commit()
        assert ts == 1
        link = Link("I1", "C1", "Ownership")
        assert store.log.ts("I1", ActionType.CREATE) == 1
        assert store.log.ts("C1", ActionType.CREATE) == 1
        assert store.log.ts(link, ActionType.CREATE) == 1

    def test_counter_follows_commit_order(self, store):
        for i, oid in enumerate(["I1", "I2", "I3"], start=1):
            tx = store.begin_transaction()
            tx.create(oid, "Identity")
            assert tx.commit() == i
        assert store.counter == 3

    def test_delete_cascades_to_links_and_logs_them(self, schema):
        store = build_f1(Store(schema))
        tx = store.begin_transaction()
        tx.delete("C1")
        ts = tx.commit()
        assert "C1" not in store.data.objects
        owned = Link("I1", "C1", "Ownership")
        referenced = Link("C1", "I2", "Reference")
        assert owned not in store.data.links
        assert referenced not in store.data.links
        assert store.log.ts(owned, ActionType.DELETE) == ts
        assert store.log.ts(referenced, ActionType.DELETE) == ts

    def test_update_then_delete_collapses_in_log(self, store):
        store.apply([CreateObject.make("I1", "Identity")])
        tx = store.begin_transaction()
        tx.update("I1", {"name": "x"})
        tx.delete("I1")
        tx.commit()
        assert store.log.actions("I1") == {ActionType.DELETE: 2}

    def test_update_replaces_whole_state(self, store):
        store.apply([CreateObject.make("I1", "Identity", {"name": "ana", "age": 3})])
        store.apply([UpdateState.make("I1", {"name": "bo"})])
        assert store.data.states["I1"] == {"name": "bo"}


class TestSingleWriter:
    def test_second_begin_while_open_is_rejected(self, store):
        store.begin_transaction()
        with pytest.raises(TransactionError, match="single writer"):
            store.begin_transaction()

    def test_abort_frees_the_writer_slot(self, store):
        tx = store.begin_transaction()
        tx.create("I1", "Identity")
        tx.abort()
        tx = store.begin_transaction()
        assert tx.commit() is None
        assert "I1" not in store.data.objects

    def test_finished_tx_rejects_further_use(self, store):
        tx = store.begin_transaction()
        tx.commit()
        with pytest.raises(TransactionError, match="finished"):
            tx.create("I1", "Identity")
        with pytest.raises(TransactionError, match="finished"):
            tx.commit()


class TestApply:
    def test_apply_commits_a_batch(self, store):
        ts = store.apply([CreateObject.make("I1", "Identity", {"name": "ana"})])
        assert ts == 1
        assert store.data.states["I1"] == {"name": "ana"}

    def test_apply_failure_releases_writer_and_changes_nothing(self, store):
        with pytest.raises(SchemaMismatchError):
            store.apply(
                [
                    CreateObject.make("I1", "Identity"),
                    CreateObject.make("X1", "Spaceship"),
                ]
            )
        assert store.counter == 0
        assert store.data.objects == {}
        # writer slot must be free again
        store.begin_transaction().abort()

    def test_snapshot_is_isolated_from_later_commits(self, store):
        store.apply([CreateObject.make("I1", "Identity")])
        snap = store.snapshot()
        store.apply([CreateObject.make("I2", "Identity")])
        assert "I2" not in snap.objects
        assert "I2" in store.snapshot().objects

    def test_held_snapshot_keeps_its_paths(self, store, fixture_exprs):
        build_f1(store)
        snap = store.snapshot()
        user = {"user": "I1"}
        paths = relevant_paths(store.schema, snap, fixture_exprs, user)
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
        assert relevant_paths(store.schema, store.data, fixture_exprs, user) != paths
        assert relevant_paths(store.schema, snap, fixture_exprs, user) == paths


def test_was_deleted(store):
    store.apply([CreateObject.make("I1", "Identity")])
    assert not store.was_deleted("I1")
    tx = store.begin_transaction()
    tx.delete("I1")
    tx.commit()
    assert store.was_deleted("I1")
