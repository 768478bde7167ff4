"""Change log: last-wins entries, tombstones, monotonic clock."""

from __future__ import annotations

import random

import pytest

from relsync.changelog import ActionType, ChangeLog
from relsync.errors import NonMonotonicTimestampError
from relsync.model import Link

L = Link("a", "b", "R")


def test_timestamps_must_not_go_backwards():
    log = ChangeLog()
    log.record("o1", ActionType.CREATE, 2)
    with pytest.raises(NonMonotonicTimestampError):
        log.record("o2", ActionType.CREATE, 1)


def test_equal_timestamp_allowed_for_same_transaction():
    log = ChangeLog()
    log.record("o1", ActionType.CREATE, 1)
    log.record("o2", ActionType.CREATE, 1)
    assert log.max_ts == 1


def test_last_action_wins_per_element_and_kind():
    log = ChangeLog()
    log.record("o1", ActionType.UPDATE, 1)
    log.record("o1", ActionType.UPDATE, 4)
    assert log.ts("o1", ActionType.UPDATE) == 4
    assert len(log.actions("o1")) == 1


def test_delete_collapses_to_tombstone():
    log = ChangeLog()
    log.record("o1", ActionType.CREATE, 1)
    log.record("o1", ActionType.UPDATE, 2)
    log.record("o1", ActionType.DELETE, 3)
    assert log.actions("o1") == {ActionType.DELETE: 3}
    assert log.is_deleted("o1")


def test_link_recreate_purges_tombstone():
    log = ChangeLog()
    log.record(L, ActionType.CREATE, 1)
    log.record(L, ActionType.DELETE, 2)
    log.record(L, ActionType.CREATE, 3)
    # one delta must never say both "add this link" and "remove it"
    assert log.actions(L) == {ActionType.CREATE: 3}
    assert not log.is_deleted(L)


def test_object_tombstones_are_permanent():
    # the store never reuses object ids, so the log keeps object tombstones
    # forever; only link creates supersede a matching tombstone
    log = ChangeLog()
    log.record("o1", ActionType.CREATE, 1)
    log.record("o1", ActionType.DELETE, 2)
    log.record("o1", ActionType.CREATE, 3)
    assert log.is_deleted("o1")
    assert log.actions("o1") == {ActionType.CREATE: 3, ActionType.DELETE: 2}


def test_element_never_has_more_entries_than_create_update_delete():
    log = ChangeLog()
    for ts, action in enumerate(
        [ActionType.CREATE, ActionType.UPDATE, ActionType.UPDATE, ActionType.DELETE],
        start=1,
    ):
        log.record("o1", action, ts)
        assert 1 <= len(log.actions("o1")) <= 3


def test_deletions_since_is_strict():
    log = ChangeLog()
    log.record("o1", ActionType.DELETE, 5)
    log.record(L, ActionType.DELETE, 6)
    assert log.deletions_since(6) == (set(), set())
    assert log.deletions_since(5) == (set(), {L})
    assert log.deletions_since(4) == ({"o1"}, {L})


def test_rerecorded_element_moves_to_the_newest_end():
    log = ChangeLog()
    log.record("o1", ActionType.UPDATE, 1)
    log.record("o2", ActionType.UPDATE, 2)
    log.record("o1", ActionType.UPDATE, 3)
    assert log.since(ActionType.UPDATE, 0) == ["o1", "o2"]
    assert log.since(ActionType.UPDATE, 2) == ["o1"]
    # a re-created link leaves the deletes; its next delete is the newest
    log.record(L, ActionType.DELETE, 4)
    log.record("o2", ActionType.DELETE, 5)
    log.record(L, ActionType.CREATE, 6)
    assert log.since(ActionType.DELETE, 0) == ["o2"]
    log.record(L, ActionType.DELETE, 7)
    assert log.since(ActionType.DELETE, 0) == [L, "o2"]
    assert log.deletions_since(5) == (set(), {L})


def test_dump_is_sorted_and_canonical():
    log = ChangeLog()
    log.record("o1", ActionType.CREATE, 1)
    log.record(L, ActionType.CREATE, 2)
    log.record("o1", ActionType.UPDATE, 3)
    assert log.dump() == "1 create o1\n2 create a R b\n3 update o1\n"


# -- randomized equivalence against a brute-force replay ------------------------

OBJECTS = ["o1", "o2", "o3"]
LINKS = [Link("o1", "o2", "R"), Link("o2", "o1", "R"), Link("o1", "o3", "S")]


def _random_records(rng: random.Random, steps: int):
    """(element, action, ts) records with a monotonic clock: objects get
    creates, updates and deletes; links get creates and deletes."""
    records, ts = [], 1
    for _ in range(steps):
        ts += rng.random() < 0.6  # repeats model one transaction
        if rng.random() < 0.5:
            element = rng.choice(OBJECTS)
            action = rng.choice(list(ActionType))
        else:
            element = rng.choice(LINKS)
            action = rng.choice([ActionType.CREATE, ActionType.DELETE])
        records.append((element, action, ts))
    return records


def _replayed_actions(records, element) -> dict[ActionType, int]:
    """What the log should hold for one element, read off the whole history:
    a delete drops earlier creates and updates, and a later link create
    drops the delete."""
    held: dict[ActionType, int] = {}
    for elem, action, ts in records:
        if elem != element:
            continue
        if action is ActionType.DELETE:
            held.pop(ActionType.CREATE, None)
            held.pop(ActionType.UPDATE, None)
        elif action is ActionType.CREATE and isinstance(element, Link):
            held.pop(ActionType.DELETE, None)
        held[action] = ts
    return held


def _shown(element) -> str:
    return f"{element.src} {element.assoc} {element.dst}" if isinstance(element, Link) else element


@pytest.mark.parametrize("seed", range(40))
def test_log_matches_brute_force_replay(seed):
    rng = random.Random(seed)
    records = _random_records(rng, rng.randint(1, 60))
    log = ChangeLog()
    for record in records:
        log.record(*record)

    expected = {e: _replayed_actions(records, e) for e in OBJECTS + LINKS}
    for element, held in expected.items():
        assert log.actions(element) == held
        assert log.is_deleted(element) == (ActionType.DELETE in held)
        for action in ActionType:
            assert log.ts(element, action) == held.get(action)

    max_ts = records[-1][2]
    assert log.max_ts == max_ts
    for t in range(max_ts + 1):
        for action in ActionType:
            found = log.since(action, t)
            assert set(found) == {
                e for e, held in expected.items() if held.get(action, -1) > t
            }
            stamps = [log.ts(e, action) for e in found]
            assert len(found) == len(set(found))
            assert stamps == sorted(stamps, reverse=True)  # newest first
            for limit in {0, 1, len(found) - 1, len(found)} - {-1}:
                capped = log.since(action, t, limit=limit)
                assert capped == (found if len(found) <= limit else None)
        deleted = {
            e for e, held in expected.items() if held.get(ActionType.DELETE, -1) > t
        }
        assert log.deletions_since(t) == (
            {e for e in deleted if not isinstance(e, Link)},
            {e for e in deleted if isinstance(e, Link)},
        )

    rows = sorted(
        (ts, action.value, _shown(e))
        for e, held in expected.items()
        for action, ts in held.items()
    )
    assert log.dump() == "".join(f"{ts} {a} {s}\n" for ts, a, s in rows)


def test_random_histories_reach_the_resurrection_cases():
    # the replay test only means something if its histories re-create a
    # link after its delete and create an object after its delete
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        records = _random_records(rng, rng.randint(1, 60))
        deleted = set()
        for element, action, _ in records:
            if action is ActionType.DELETE:
                deleted.add(element)
            elif action is ActionType.CREATE and element in deleted:
                seen.add(isinstance(element, Link))
    assert seen == {True, False}


class _NoScan(dict):
    """A dict that refuses to be walked, to catch whole-log scans."""

    def _refuse(self, *args):
        raise AssertionError("the change log was scanned")

    __iter__ = items = keys = values = _refuse


class _CountedWalk(_NoScan):
    """A _NoScan dict that lets a walk start from either end and counts the
    entries it visits."""

    visited = 0

    def _counted(self, entries):
        for element in entries:
            self.visited += 1
            yield element

    def __iter__(self):
        return self._counted(dict.__iter__(self))

    def __reversed__(self):
        return self._counted(dict.__reversed__(self))


def test_lookups_never_scan_the_whole_log():
    log = ChangeLog()
    log.record("o1", ActionType.CREATE, 1)
    log.record(L, ActionType.CREATE, 1)
    log.record("o1", ActionType.UPDATE, 2)
    log.record("o2", ActionType.CREATE, 2)
    log.record("o2", ActionType.DELETE, 3)
    log.record(L, ActionType.DELETE, 4)
    log._stamps = {action: _NoScan(stamps) for action, stamps in log._stamps.items()}

    assert log.ts("o1", ActionType.UPDATE) == 2
    assert log.actions("o1") == {ActionType.CREATE: 1, ActionType.UPDATE: 2}
    assert log.actions(L) == {ActionType.DELETE: 4}
    assert log.is_deleted("o2")
    assert log.deletions_since(2) == ({"o2"}, {L})
    assert log.deletions_since(3) == (set(), {L})
    assert log.since(ActionType.CREATE, 0) == ["o1"]  # o2 deleted, L deleted
    assert log.since(ActionType.UPDATE, 2) == []

    # A walk from the newest end visits the k entries stamped after the
    # cursor and the one older entry that stops it, however long the log.
    log = ChangeLog()
    for ts in range(1, 1001):
        log.record(f"o{ts}", ActionType.UPDATE, ts)
        log.record(f"d{ts}", ActionType.DELETE, ts)
    plain = dict(log._stamps)
    for k in (0, 1, 10, 999, 1000):
        for action in (ActionType.UPDATE, ActionType.DELETE):
            log._stamps[action] = _CountedWalk(plain[action])
        assert len(log.since(ActionType.UPDATE, 1000 - k)) == k
        assert len(log.deletions_since(1000 - k)[0]) == k
        for action in (ActionType.UPDATE, ActionType.DELETE):
            assert 1 <= log._stamps[action].visited <= k + 1
    # With a limit, the walk gives up on the first entry past it, and does
    # not start when even the oldest entry is newer than the cursor.
    for limit in (0, 1, 10, 998):
        for cursor, visited in ((1, 1 + limit + 1), (0, 1)):
            log._stamps[ActionType.UPDATE] = _CountedWalk(plain[ActionType.UPDATE])
            assert log.since(ActionType.UPDATE, cursor, limit=limit) is None
            assert log._stamps[ActionType.UPDATE].visited == visited
    log._stamps[ActionType.UPDATE] = _CountedWalk(plain[ActionType.UPDATE])
    assert len(log.since(ActionType.UPDATE, 990, limit=10)) == 10
    assert log._stamps[ActionType.UPDATE].visited == 1 + 11
