"""The walk memo: every memoised expression walk of one `SystemData`, and
the one rule that keeps each exact across mutations.

The memo maps a key, (expression, schema, `{user}` binding), to a `Walk`.
The binding is None unless the root names `{user}`, so a `{user}`-free
expression has one walk per data, whichever client asks.  A walk keeps
its paths as a prefix tree (see `paths.PathSet`) of nodes `[parent, link,
vertex, *children]`, one per path prefix, rooted at each start vertex.  A
node with a segment left to match reads its vertex and is listed under
that vertex in the walk's read map, whose entries are tuples of nodes.

The rule.  `SystemData.apply` hands every mutation to `WalkMemo.forget`,
with the links it created or deleted (a delete's cascade included) and,
for an object mutation, the object's id, class and states before and
after (None where the object does not exist, which no root admits).
- Whether a link is a node's child depends only on the link, the node's
  path and the class of the link's far end, and a class never changes
  while a link holds the object.  So a node's children change only
  through a link created or deleted at its vertex, and a walk is reached
  when such a link touches a vertex it read.
- Where the root admits the object on one side of the change only (each
  root kind's `admits`, in `expr.py`), the object becomes a start, or
  its start goes.  An instance or class root ignores states, so on an
  object present on both sides only a filter root's verdict can flip,
  and only such a root is asked.  A read vertex is a start or is reached
  through a link, so the object's own id matters only through this flip.
- A walk whose record holds more links than it read vertices is dropped:
  the record is bounded by the tree, and a regrowth from it would cost
  about what a first walk costs.
A reached walk keeps its tree and becomes pending: its record lists the
links of each mutation since whose links touched a vertex it read, and
each start flipped in or out since.  `paths.evaluate` then regrows it in
place: it drops the starts that went, re-tests each touched link alone
at each node that read one of its ends, dropping or adding that one
child, and grows the new children and starts.  A first walk grows every
start and, under a class or filter root, scans the objects for them.  A
create never changes an existing object's class (the store refuses a
used id, and the replica a re-create under another class), so the class
the rule tests is the one the scan tested.

Only a walk edits a tree, and no walk runs while a store batch stages:
`forget` replaces an entry and never edits one, nor the record it holds.
So the shallow copy of the memo that a store batch takes before it
stages holds the trees as they were, which a rejected batch gets back
(see `store.Transaction`).
"""

from __future__ import annotations

from collections.abc import Set
from itertools import chain
from operator import itemgetter
from typing import NamedTuple


_NO_FLIPS: dict = {}
# the record of a walk that no mutation has reached yet
_UNREACHED = ((), _NO_FLIPS)
_ENDS = itemgetter(0, 1)


class Walk(NamedTuple):
    """One memoised walk.

    - paths: the `paths.PathSet` the walk grew, a view over its tree,
      read map and element counts.
    - pending: None while `paths` is exact.  After a mutation reached the
      walk, (links, flips): the links each mutation since created or
      deleted, where one of them touches a vertex in `read`, and each
      start they flipped in or out -> whether the root admits it now.
      It never holds more links than `read` has vertices.  The next
      `evaluate` regrows the tree from it in place.
    - read: the vertices the tree read, its read map's keys.

    Every walk of every sync may store one, so entries are built with
    `tuple.__new__(Walk, ...)`, which skips the Python-level `__new__`."""

    paths: Set
    pending: tuple | None
    read: Set[str]


class WalkMemo(dict):
    """(expression, schema, user or None) -> its `Walk`."""

    def forget(
        self,
        links: tuple,
        oid: str | None,
        cls: str | None,
        old: tuple | None,
        new: tuple | None,
    ) -> None:
        """Record a mutation on every walk it reached, by the rule above:
        one that created or deleted `links` and, for an object mutation,
        took object `oid` of class `cls` from state `old` to state `new`,
        each a `model.State`, the tuple the data held or holds."""
        both = old is not None and new is not None
        if len(links) == 1:
            touched = links[0][:2]  # a link mutation's two ends
        else:  # no link, or a delete's cascade
            touched = links and set(chain.from_iterable(map(_ENDS, links)))
        reached = []
        for key, walk in self.items():
            if cls is not None and (not both or key[0].root.reads_state):
                root, user = key[0].root, key[2]
                now = new is not None and root.admits(oid, cls, new, user)
                if now != (old is not None and root.admits(oid, cls, old, user)):
                    reached.append((key, walk, now))
                    continue
            if touched and not walk[2].isdisjoint(touched):  # its read vertices
                reached.append((key, walk, None))
        for key, (paths, pending, read), admitted in reached:
            held, flips = pending or _UNREACHED
            # a regrowth re-tests a link only at a vertex the walk read, so
            # a walk reached by a flip alone records none
            if admitted is None or not read.isdisjoint(touched):
                held += links
            if admitted is not None:
                flips = {**flips, oid: admitted}
            if len(held) > len(read):
                del self[key]
                continue
            self[key] = tuple.__new__(Walk, (paths, (held, flips), read))


__all__ = ["Walk", "WalkMemo"]
