"""The walk memo: every memoised expression walk of one `SystemData`, and
the one rule that keeps each exact across mutations.

The memo maps a key, (expression, schema, `{user}` binding), to a `Walk`.
The binding is None unless the root names `{user}`, so a `{user}`-free
expression has one walk per data, whichever client asks.  A walk keeps
its paths as a prefix tree (see `paths.PathSet`): one node per path
prefix, rooted at each start vertex.  A node whose vertex the walk read,
one that had a segment left to match, is listed under that vertex in
the walk's read map.

The rule.  `SystemData.apply` hands every mutation to `WalkMemo.forget`,
with the vertices it touched (a link's two ends, a created id, a deleted
id and the ends of its cascaded links; none for an update) and, for an
object mutation, the object's id, class and states before and after
(None where the object does not exist, which no root admits).
- Every node that read a touched vertex is marked.  Given the path to
  it, a node's children depend only on its vertex's links and on the
  classes of their far ends, and a far end's class changes only through
  a delete, which touches the vertex it hangs from; so every node that
  is not marked keeps its children.
- Where the root admits the object on one side of the change only (each
  root kind's `admits`, in `expr.py`), the object becomes a start, or
  its start goes.  An instance or class root ignores states, so on an
  object present on both sides only a filter root's verdict can flip,
  and only such a root is asked.
- A walk left with no start is dropped, and so is one that read a vertex
  and whose every read vertex was touched, every node of it that read
  marked: an entry that keeps nothing a regrowth would reuse would only
  cost each later mutation a check.
A reached walk keeps its tree and becomes pending: it records its start
set and the touched vertices, which with the kept read map name the
marked nodes.  `paths.evaluate` then re-expands the marked nodes alone,
grows the new starts and drops the gone ones; a first walk grows every
start and, under a class or filter root, scans the objects for them.  A
create never changes an existing object's class (the store refuses a
used id, and the replica a re-create under another class), so the class
the rule tests is the one the scan tested.

An entry is never edited: `forget` and `evaluate` replace it, and a
regrown tree shares every untouched subtree with the one before.  So a
shallow copy of the memo taken before a store batch is the memo as it
was, which a rejected batch gets back (see `store.Transaction`).
"""

from __future__ import annotations

from collections.abc import Set
from typing import NamedTuple


_NONE_TOUCHED: frozenset = frozenset()


class Walk(NamedTuple):
    """One memoised walk.

    - paths: the `paths.PathSet` the walk last grew, with its tree, read
      map and element counts.
    - pending: None while `paths` is exact.  After a mutation reached the
      walk, (starts, touched): the start vertices now, and every vertex
      the mutations since touched.  The marked nodes are the ones the read
      map lists under those vertices; the next `evaluate` re-expands them.
    - read: the vertices the tree read, its read map's keys.

    Every walk of every sync may store one, so entries are built with
    `tuple.__new__(Walk, ...)`, which skips the Python-level `__new__`."""

    paths: frozenset
    pending: tuple | None
    read: Set[str]


class WalkMemo(dict):
    """(expression, schema, user or None) -> its `Walk`.

    `unions` maps a user to the `PathSet` that `paths.relevant_paths`
    last made of that user's walks for several expressions, kept while
    those walks stand; it is made on first use."""

    unions: dict | None = None

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
        both = old is not None and new is not None
        reached = []
        for key, walk in self.items():
            if cls is not None and (not both or key[0].root.reads_state):
                root, user = key[0].root, key[2]
                now = new is not None and root.admits(oid, cls, new, user)
                if now != (old is not None and root.admits(oid, cls, old, user)):
                    reached.append((key, walk, now))
                    continue
            if not walk[2].isdisjoint(touched):  # its read vertices
                reached.append((key, walk, None))
        for key, (paths, pending, read), admitted in reached:
            starts, seen = pending or (paths.roots, _NONE_TOUCHED)
            if admitted is None:
                if touched <= seen:
                    continue  # pending as it would be made again
            else:
                starts = dict.fromkeys(starts)
                if admitted:
                    starts[oid] = None
                else:
                    starts.pop(oid, None)
            seen = seen.union(touched)
            # kept while it has a start and a read vertex not yet touched
            if starts and (len(seen) < len(read) or not read or not seen.issuperset(read)):
                self[key] = tuple.__new__(Walk, (paths, (starts, seen), read))
            else:
                del self[key]


__all__ = ["Walk", "WalkMemo"]
