"""Change log: per-element last-action timestamps plus deletion tombstones.

The log keeps, for every element (object id or link triple), the logical
timestamp of its most recent create, update, and delete.  Recording a
delete purges the element's create/update entries so only the tombstone
remains — deleted elements must stay announceable to late-syncing clients
without dragging their full history along.  Timestamps are logical: equal
timestamps mean "same transaction", larger means "committed later".

Cost of each question, for a log of n entries: `ts`, `actions`,
`latest_ts` and `is_deleted` are O(1) dict probes; `deletions_since` is
O(log n + k), a bisection of the tombstone list plus one step per tombstone
recorded after the cursor.
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


_ACTIONS = tuple(ActionType)


@dataclass
class ChangeLog:
    # (element, action) -> timestamp of the latest such action
    _entries: dict[tuple[Element, ActionType], int] = field(default_factory=dict)
    # (ts, element) of every delete, in record order and so in timestamp
    # order; an entry is stale once its element's DELETE entry no longer
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
        if action is ActionType.DELETE:
            # Collapse to a tombstone: id and delete time only.
            self._entries.pop((element, ActionType.CREATE), None)
            self._entries.pop((element, ActionType.UPDATE), None)
            self._tombstones.append((ts, element))
        elif action is ActionType.CREATE and isinstance(element, Link):
            # Links are identified by their triple, so the same link can be
            # re-created after a delete.  The new create supersedes the
            # tombstone; without this, one delta could tell a client to both
            # add and remove the link.  Object ids are never reused, so
            # object creates cannot hit a tombstone.
            self._entries.pop((element, ActionType.DELETE), None)
        self._entries[(element, action)] = ts

    def ts(self, element: Element, action: ActionType) -> int | None:
        return self._entries.get((element, action))

    def actions(self, element: Element) -> dict[ActionType, int]:
        entries = self._entries
        return {
            action: entries[(element, action)]
            for action in _ACTIONS
            if (element, action) in entries
        }

    def latest_ts(self, element: Element) -> int | None:
        stamps = self.actions(element)
        return max(stamps.values()) if stamps else None

    def is_deleted(self, element: Element) -> bool:
        return (element, ActionType.DELETE) in self._entries

    def deletions_since(self, ts_ls: int) -> tuple[set[str], set[Link]]:
        """Elements deleted strictly after ts_ls: (object ids, links)."""
        objects: set[str] = set()
        links: set[Link] = set()
        start = bisect_right(self._tombstones, ts_ls, key=itemgetter(0))
        for ts, element in self._tombstones[start:]:
            if self._entries.get((element, ActionType.DELETE)) != ts:
                continue  # re-created, or deleted again later
            if isinstance(element, Link):
                links.add(element)
            else:
                objects.add(element)
        return objects, links

    def dump(self) -> str:
        """Canonical rendering: one `<ts> <action> <element>` line per entry,
        ordered by timestamp, then action name, then element."""
        rows = []
        for (element, action), ts in self._entries.items():
            rows.append((ts, action.value, str(element)))
        rows.sort()
        return "".join(f"{ts} {action} {shown}\n" for ts, action, shown in rows)


__all__ = ["ActionType", "ChangeLog", "Element"]
