"""Change log: per-element last-action timestamps plus deletion tombstones.

The log keeps, for every element (object id or link triple), the logical
timestamp of its most recent create, update, and delete.  Recording a
delete purges the element's create/update entries so only the tombstone
remains — deleted elements must stay announceable to late-syncing clients
without dragging their full history along.  Timestamps are logical: equal
timestamps mean "same transaction", larger means "committed later".

The log holds one dict per action type, element -> timestamp, so every
question hashes only the element.  Cost of each question, for a log of n
entries: `ts` and `is_deleted` are one dict probe, `actions` is three;
`deletions_since` is O(log n + k), a bisection of the tombstone list plus
one step per tombstone recorded after the cursor.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import NonMonotonicTimestampError
from .model import Link

# An element is an object (by id) or a link (by its identity triple).
Element = str | Link


class ActionType(enum.Enum):
    CREATE = "create"
    UPDATE = "update"
    DELETE = "delete"

    # Enum hashes by name in Python code; members are singletons compared
    # by identity, so the C-level identity hash agrees with `==` and keeps
    # the per-action dict probe in `ts` off the interpreter.
    __hash__ = object.__hash__


@dataclass
class ChangeLog:
    # action -> element -> timestamp of the element's latest such action
    _stamps: dict[ActionType, dict[Element, int]] = field(
        default_factory=lambda: {action: {} for action in ActionType}
    )
    # (ts, element) of every delete, in record order and so in timestamp
    # order; an entry is stale once its element's DELETE stamp no longer
    # holds its ts (a re-created link, or a later delete)
    _tombstones: list[tuple[int, Element]] = field(default_factory=list)
    _max_ts: int = 0

    @property
    def max_ts(self) -> int:
        return self._max_ts

    def record(self, element: Element, action: ActionType, ts: int) -> None:
        if ts < self._max_ts:
            raise NonMonotonicTimestampError(
                f"timestamp {ts} is behind the log's latest {self._max_ts}"
            )
        self._max_ts = ts
        stamps = self._stamps
        if action is ActionType.DELETE:
            # Collapse to a tombstone: id and delete time only.
            stamps[ActionType.CREATE].pop(element, None)
            stamps[ActionType.UPDATE].pop(element, None)
            self._tombstones.append((ts, element))
        elif action is ActionType.CREATE and isinstance(element, Link):
            # Links are identified by their triple, so the same link can be
            # re-created after a delete.  The new create supersedes the
            # tombstone; without this, one delta could tell a client to both
            # add and remove the link.  Object ids are never reused, so
            # object creates cannot hit a tombstone.
            stamps[ActionType.DELETE].pop(element, None)
        stamps[action][element] = ts

    def ts(self, element: Element, action: ActionType) -> int | None:
        return self._stamps[action].get(element)

    def actions(self, element: Element) -> dict[ActionType, int]:
        return {
            action: stamps[element]
            for action, stamps in self._stamps.items()
            if element in stamps
        }

    def is_deleted(self, element: Element) -> bool:
        return element in self._stamps[ActionType.DELETE]

    def deletions_since(self, ts_ls: int) -> tuple[set[str], set[Link]]:
        """Elements deleted strictly after ts_ls: (object ids, links)."""
        objects: set[str] = set()
        links: set[Link] = set()
        deleted = self._stamps[ActionType.DELETE]
        start = bisect_right(self._tombstones, ts_ls, key=itemgetter(0))
        for ts, element in self._tombstones[start:]:
            if deleted.get(element) != ts:
                continue  # re-created, or deleted again later
            if isinstance(element, Link):
                links.add(element)
            else:
                objects.add(element)
        return objects, links

    def dump(self) -> str:
        """Canonical rendering: one `<ts> <action> <element>` line per entry,
        ordered by timestamp, then action name, then element."""
        rows = sorted(
            (ts, action.value, str(element))
            for action, stamps in self._stamps.items()
            for element, ts in stamps.items()
        )
        return "".join(f"{ts} {action} {shown}\n" for ts, action, shown in rows)


__all__ = ["ActionType", "ChangeLog", "Element"]
