"""Change log: per-element last-action timestamps plus deletion tombstones.

The log keeps, for every element (object id or link triple), the logical
timestamp of its most recent create, update, and delete.  Recording a
delete purges the element's create/update entries so only the tombstone
remains — deleted elements must stay announceable to late-syncing clients
without dragging their full history along.  Timestamps are logical: equal
timestamps mean "same transaction", larger means "committed later".

The log holds one dict per action type, element -> timestamp, so every
question hashes only the element.  Recording moves the element to the end
of its dict and the clock never goes backwards, so insertion order is
timestamp order.  `ts` and `is_deleted` are one dict probe, `actions` is
three; `since` and `deletions_since` walk back from the newest entry to the
first older one (or past a limit), O(k+1) for k entries after the cursor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NonMonotonicTimestampError
from .model import ActionType, Link

# An element is an object (by id) or a link (by its identity triple).
Element = str | Link


@dataclass
class ChangeLog:
    # action -> element -> ts of the element's latest such action, oldest first
    _stamps: dict[ActionType, dict[Element, int]] = field(
        default_factory=lambda: {action: {} for action in ActionType}
    )
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
        elif action is ActionType.CREATE and isinstance(element, Link):
            # Links are identified by their triple, so the same link can be
            # re-created after a delete.  The new create supersedes the
            # tombstone; without this, one delta could tell a client to both
            # add and remove the link.  Object ids are never reused, so
            # object creates cannot hit a tombstone.
            stamps[ActionType.DELETE].pop(element, None)
        stamps[action].pop(element, None)  # re-inserted at the newest end
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

    def since(
        self, action: ActionType, ts_ls: int, limit: int | None = None
    ) -> list[Element] | None:
        """Elements whose latest `action` is stamped after ts_ls, newest first,
        or None if more than `limit` are (seen without a walk if all are)."""
        stamps = self._stamps[action]
        if limit is not None and len(stamps) > limit:
            if stamps[next(iter(stamps))] > ts_ls:
                return None
        found: list[Element] = []
        for element in reversed(stamps):
            if stamps[element] <= ts_ls:
                break
            if len(found) == limit:
                return None
            found.append(element)
        return found

    def deletions_since(self, ts_ls: int) -> tuple[set[str], set[Link]]:
        """Elements deleted strictly after ts_ls: (object ids, links)."""
        deleted = set(self.since(ActionType.DELETE, ts_ls))
        links = {e for e in deleted if isinstance(e, Link)}
        return deleted - links, links

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
