"""The walk memo: every memoised expression walk of one `SystemData`, and
the one rule that keeps each exact across mutations.

The memo maps a key, (expression, schema, `{user}` binding), to a `Walk`.
The binding is None unless the root names `{user}`, so a `{user}`-free
expression has one walk per data, whichever client asks.  A walk keeps
one part per start vertex: the paths grown from that start, and its
tips, the vertices whose links the growth read.

The rule.  `SystemData.apply` hands every mutation to `WalkMemo.forget`,
with the vertices it touched (a link's two ends, a created id, a deleted
id and the ends of its cascaded links; none for an update) and, for an
object mutation, the object's id, class and states before and after
(None where the object does not exist, which no root admits).
- A start whose part's tips meet the touched vertices becomes pending.
- Where the root admits the object on one side of the change only (each
  root kind's `admits`, in `expr.py`), the object becomes a pending
  start, or its start goes.  An instance or class root ignores states,
  so on an object present on both sides only a filter root's verdict can
  flip, and only such a root is asked.
- A walk left with no part is dropped: an entry that keeps nothing would
  only cost each later mutation a check.
`paths.evaluate` then grows the pending starts alone and composes the
walk from its parts; a first walk grows every start and, under a class
or filter root, scans the objects for them.  A create never changes an
existing object's class (the store refuses a used id, and the replica a
re-create under another class), so the class the rule tests is the one
the scan tested.

An entry is never edited: `forget` and `evaluate` replace it.  So a
shallow copy of the memo taken before a store batch is the memo as it
was, which a rejected batch gets back (see `store.Transaction`).  The
element sets and link lookups of its path sets are only ever added to,
each derived from the paths alone.
"""

from __future__ import annotations

from collections.abc import Set
from typing import NamedTuple


class Walk(NamedTuple):
    """One memoised walk.

    - parts: each start mapped to its part, or to None while the start is
      pending.  A part is what growing the walk from that start gave: a
      `paths.PathSet` of its paths, and its tips.
    - paths: the `PathSet` over every part's paths (a walk of one start is
      that start's part), or None while a start is pending.
    - reads: the tips of every part, united when the parts were composed.

    Every walk of every sync may store one, so entries are built with
    `tuple.__new__(Walk, ...)`, which skips the Python-level `__new__`."""

    paths: frozenset | None
    reads: Set[str]
    parts: dict


class WalkMemo(dict):
    """(expression, schema, user or None) -> its `Walk`."""

    def forget(
        self,
        touched: Set[str],
        oid: str | None,
        cls: str | None,
        old: dict | None,
        new: dict | None,
    ) -> None:
        """Replace every walk a mutation reached, by the rule above: one
        that touched the vertices `touched` and, for an object mutation,
        took object `oid` of class `cls` from state `old` to state `new`."""
        disjoint = touched.isdisjoint
        both = old is not None and new is not None
        reached = []
        for key, walk in self.items():
            if cls is not None and (not both or key[0].root.reads_state):
                root, user = key[0].root, key[2]
                now = new is not None and root.admits(oid, cls, new, user)
                if now != (old is not None and root.admits(oid, cls, old, user)):
                    reached.append((key, walk, now))
                    continue
            if not disjoint(walk.reads):
                reached.append((key, walk, None))
        for key, (_, reads, parts), admitted in reached:
            starts = dict(parts)
            for start, part in parts.items():
                if part is not None and not disjoint(part[1]):
                    starts[start] = None
            if admitted:
                starts[oid] = None
            elif admitted is not None:
                starts.pop(oid, None)
            if any(starts.values()):
                self[key] = tuple.__new__(Walk, (None, reads, starts))
            else:
                del self[key]


__all__ = ["Walk", "WalkMemo"]
