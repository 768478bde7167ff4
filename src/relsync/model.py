"""Typed object-graph data model: schema, system data, links, and mutations.

System data is the triple of objects (id -> class), links (typed triples),
and per-object attribute states.  A schema constrains which classes exist
and which class pairs each association may join.  Mutations are the only
way the store changes system data; they are plain values so scenarios,
replicas, and the fuzzer can all build them.  Every mutation is applied
through `SystemData.apply`, after whatever checks its caller makes: the
store's commit, the replica's local edits, delta application and garbage
sweep, and the fuzzer's model of the server.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import TokenError
from .memo import WalkMemo

# Attribute values are flat scalars; states compare by exact equality.
Scalar = str | int | bool
State = dict[str, Scalar]

# Tokens appear in the scenario DSL, expression syntax, and canonical dumps,
# so they must be free of whitespace and of the punctuation those formats
# reserve: `#` starts a scenario comment, `<>!=` spell comparators.  The
# expression reader ends a name at the first character this matches.
RESERVED_CHAR = re.compile(r'[\s.{}\[\]"=,:<>!#]')


def validate_token(name: str, what: str = "name") -> str:
    if not name:
        raise TokenError(f"{what} must be a nonempty token")
    if RESERVED_CHAR.search(name):
        raise TokenError(f"{what} {name!r} contains whitespace or reserved punctuation")
    return name


@dataclass(frozen=True)
class AssociationDef:
    """A link type joining two classes, with a role name for each end.

    `role_a` names objects of `class_a` as seen from the `class_b` side,
    and symmetrically for `role_b`.  A self-association (class_a == class_b)
    must use two distinct roles or traversal direction would be ambiguous.
    """

    name: str
    class_a: str
    role_a: str
    class_b: str
    role_b: str

    def __post_init__(self):
        for value, what in (
            (self.name, "association name"),
            (self.class_a, "class name"),
            (self.class_b, "class name"),
            (self.role_a, "role name"),
            (self.role_b, "role name"),
        ):
            validate_token(value, what)
        if self.class_a == self.class_b and self.role_a == self.role_b:
            raise TokenError(
                f"self-association {self.name!r} needs two distinct roles"
            )


class Link(NamedTuple):
    """A typed link; identity is the full (src, dst, association) triple.

    A named tuple, so hashing, equality and ordering run in C; links sort
    by (src, dst, assoc).  Its text form, `src assoc dst`, is the one every
    dump, delta and message shows; `link_text_order` sorts in that order."""

    src: str
    dst: str
    assoc: str

    def __str__(self) -> str:
        return f"{self.src} {self.assoc} {self.dst}"

    def touches(self, object_id: str) -> bool:
        return object_id == self.src or object_id == self.dst


def link_text_order(link: Link) -> tuple[str, str, str]:
    """Sort key putting links in the order of their text form."""
    return (link.src, link.assoc, link.dst)


class Schema:
    """Classes plus named associations; validates system data against both."""

    def __init__(self, classes: set[str], assocs: list[AssociationDef] | None = None):
        self.classes: set[str] = set()
        self.assocs: dict[str, AssociationDef] = {}
        # (association, role, end is the link's src) -> class of that end;
        # one probe tells whether a link's far end carries a role
        self.ends: dict[tuple[str, str, bool], str] = {}
        for cls in classes:
            self.add_class(cls)
        for assoc in assocs or []:
            self.add_assoc(assoc)

    def add_class(self, name: str) -> None:
        validate_token(name, "class name")
        if name in self.classes:
            raise TokenError(f"duplicate class {name!r}")
        self.classes.add(name)

    def add_assoc(self, assoc: AssociationDef) -> None:
        if assoc.name in self.assocs:
            raise TokenError(f"duplicate association {assoc.name!r}")
        for cls in (assoc.class_a, assoc.class_b):
            if cls not in self.classes:
                raise TokenError(
                    f"association {assoc.name!r} references unknown class {cls!r}"
                )
        self.assocs[assoc.name] = assoc
        self.ends[(assoc.name, assoc.role_a, True)] = assoc.class_a
        self.ends[(assoc.name, assoc.role_b, False)] = assoc.class_b


# What a replaced store version rebuilds on the first read of one of them.
_CONTAINERS = frozenset({"objects", "links", "states", "walks", "_incident"})


@dataclass(init=False)
class SystemData:
    """The full content of one store: objects, links, and states.

    Invariants: every link endpoint is a live object, and every live object
    has a state entry (possibly empty).  The store keeps them: each commit
    runs `validate_schema` on the elements its batch touched, which is
    enough because the data was valid before the batch.

    One index and one memo are derived from the data; once read, each is
    kept exact by `apply`, the one way the data changes:
    - `incident` maps each vertex to the links touching it.  It is built
      from `links` the first time something reads it; `apply` replaces the
      tuples of a link's ends, so a rebuilt version (below) shares every
      tuple it copied.
    - `walks`, a `memo.WalkMemo`, memoises expression walks; `apply`
      hands it each mutation, by the rule in `memo.py`.

    A store commit applies its batch to the live data in place, then hands
    the containers to a fresh version (`supersede`).  The version it
    replaced keeps only a link to that one and the commit's undo journal,
    and the first read of any of its containers rebuilds it (`_rebuild`):
    a copy of the nearest newer version that still holds its data, with
    the journals in between undone through `apply`.  A state dict is
    replaced, never edited, so the copy shares them.  A replaced version
    that nobody reads costs its journal alone.
    """

    objects: dict[str, str]
    links: set[Link]
    states: dict[str, State]

    def __init__(
        self,
        objects: dict[str, str] | None = None,
        links: set[Link] | None = None,
        states: dict[str, State] | None = None,
    ) -> None:
        self.objects = {} if objects is None else objects
        self.links = set() if links is None else links
        self.states = {} if states is None else states
        self.walks = WalkMemo()
        # vertex -> links touching it; None until first read
        self._incident: dict[str, tuple[Link, ...]] | None = None

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks, as a replaced
        # version lacks its containers.
        if name in _CONTAINERS and "_newer" in vars(self):
            self._rebuild()
            return vars(self)[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def incident(self) -> dict[str, tuple[Link, ...]]:
        """vertex -> the links touching it, a tuple in link order, which for
        a vertex's few links takes a fraction of a frozenset's memory; a
        vertex without links has no entry.  A self-link is listed once,
        under its one vertex."""
        index = self._incident
        if index is None:
            building: dict[str, set[Link]] = {}
            for link in self.links:
                building.setdefault(link.src, set()).add(link)
                building.setdefault(link.dst, set()).add(link)
            index = self._incident = {v: tuple(sorted(s)) for v, s in building.items()}
        return index

    def copy(self) -> SystemData:
        """An independent copy, states included; the index is rebuilt on
        the copy's first read."""
        return SystemData(
            objects=dict(self.objects),
            links=set(self.links),
            states={oid: dict(state) for oid, state in self.states.items()},
        )

    def supersede(self, log: list[tuple[str | Link, ActionType]], prior: list) -> SystemData:
        """The next version, for a commit that applied its batch to this
        data: a fresh object that takes every container, index and memo
        included.  This one keeps only a link to it and the batch's undo
        journal (see `undo`) until something reads it."""
        following = SystemData.__new__(SystemData)
        following.__dict__ = self.__dict__  # every attribute, whole
        self.__dict__ = {"_newer": following, "_journal": (log, prior)}
        return following

    def _rebuild(self) -> None:
        """Hold this replaced version's data again: copy the nearest newer
        version that holds its own, then undo the commits in between,
        newest first.  The copy shares that version's state dicts and
        per-vertex link sets; its walk memo starts empty."""
        journals = []
        version = self
        while "_newer" in vars(version):
            journals.append(version._journal)
            version = version._newer
        index = version._incident
        SystemData.__init__(self, dict(version.objects), set(version.links), dict(version.states))
        if index is not None:  # the delete that undoes a create then scans no links
            self._incident = dict(index)
        state = vars(self)
        del state["_newer"], state["_journal"]
        for log, prior in reversed(journals):
            self.undo(log, prior)

    def undo(self, log: list[tuple[str | Link, ActionType]], prior: list) -> None:
        """Undo a batch applied to this data, its last mutation first.  The
        journal is `log`, each element the batch wrote with its action, the
        links a delete cascaded away included, and `prior`, in staging
        order, the state each update replaced and the (class, state) each
        object delete removed.  Each inverse goes through `apply`."""
        replaced = reversed(prior)
        for element, action in reversed(log):
            if isinstance(element, Link):
                if action is ActionType.CREATE:
                    self.apply(DeleteLink(element))
                else:
                    self.apply(CreateLink(element))
            elif action is ActionType.CREATE:
                self.apply(DeleteObject(element))
            elif action is ActionType.UPDATE:
                self.apply(UpdateState.make(element, next(replaced)))
            else:
                cls, state = next(replaced)
                self.apply(CreateObject.make(element, cls, state))

    def apply(self, mutation: Mutation) -> list[Link]:
        """Apply a mutation without checking it; returns the links an object
        delete cascaded away (empty for every other kind).  An object takes
        its links with it, so no link is left dangling.  Once the index has
        been read it finds them in O(degree); until then one scan of the
        links costs what building the index would, and data that nobody
        walks (a fuzzer's model, a bulk load) never pays for the index.

        Each kind changes the data and the index, then hands the walk
        memo what `WalkMemo.forget` asks: the links it created or deleted,
        and the object it changed; data that holds no walk skips the
        call."""
        if isinstance(mutation, CreateObject):
            # a create of a held object (a replica's re-delivered create)
            # replaces its state: both states are present
            oid, cls = mutation.object_id, mutation.class_name
            old = self.states.get(oid) if oid in self.objects else None
            self.objects[oid] = cls
            new = self.states[oid] = mutation.state_dict()
            if self.walks:  # a create touches no link: only a root can see it
                self.walks.forget(_NO_LINKS, oid, cls, old, new)
        elif isinstance(mutation, (CreateLink, DeleteLink)):
            link = mutation.link
            index = self._incident
            if isinstance(mutation, CreateLink):
                self.links.add(link)
                if index is not None:
                    _index_link(index, link)
            else:
                self.links.discard(link)
                if index is not None:
                    _unindex_link(index, link)
            if self.walks:
                self.walks.forget((link,), None, None, None, None)
        elif isinstance(mutation, UpdateState):
            oid, new = mutation.object_id, mutation.state_dict()
            if self.walks:
                self.walks.forget(_NO_LINKS, oid, self.objects.get(oid), self.states.get(oid), new)
            self.states[oid] = new
        elif isinstance(mutation, DeleteObject):
            oid = mutation.object_id
            index = self._incident
            if index is None:
                cascade = [link for link in self.links if link.touches(oid)]
            else:
                cascade = list(index.pop(oid, _NO_LINKS))
                for link in cascade:
                    _unindex_link(index, link)
            self.links.difference_update(cascade)
            cls, old = self.objects.pop(oid), self.states.pop(oid, {})
            if self.walks:
                self.walks.forget(tuple(cascade), oid, cls, old, None)
            return cascade
        else:  # pragma: no cover - exhaustive over the Mutation union
            raise TypeError(f"not a mutation: {mutation!r}")
        return []


_NO_LINKS: tuple[Link, ...] = ()


def _index_link(index: dict[str, tuple[Link, ...]], link: Link) -> None:
    """Add a link under both its ends, replacing each end's tuple."""
    src, dst = link.src, link.dst
    index[src] = tuple(sorted(index.get(src, _NO_LINKS) + (link,)))
    if dst != src:
        index[dst] = tuple(sorted(index.get(dst, _NO_LINKS) + (link,)))


def _unindex_link(index: dict[str, tuple[Link, ...]], link: Link) -> None:
    """Remove a link from under both its ends, replacing each end's tuple
    and dropping an end left without links.  An end already gone is
    skipped."""
    for vertex in {link.src, link.dst}:
        held = index.get(vertex)
        if held is not None and link in held:
            if len(held) == 1:
                del index[vertex]
            else:
                at = held.index(link)
                index[vertex] = held[:at] + held[at + 1:]


# Mutations -----------------------------------------------------------------

class ActionType(enum.Enum):
    """What a mutation did to an element, as the change log records it."""

    CREATE = "create"
    UPDATE = "update"
    DELETE = "delete"

    # Enum hashes by name in Python code; members are singletons compared
    # by identity, so the C-level identity hash agrees with `==` and keeps
    # the per-action dict probe in `ChangeLog.ts` off the interpreter.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class CreateObject:
    object_id: str
    class_name: str
    state: tuple[tuple[str, Scalar], ...]

    @staticmethod
    def make(object_id: str, class_name: str, state: State | None = None) -> CreateObject:
        return CreateObject(object_id, class_name, _freeze_state(state or {}))

    def state_dict(self) -> State:
        return dict(self.state)


@dataclass(frozen=True)
class UpdateState:
    object_id: str
    state: tuple[tuple[str, Scalar], ...]

    @staticmethod
    def make(object_id: str, state: State) -> UpdateState:
        return UpdateState(object_id, _freeze_state(state))

    def state_dict(self) -> State:
        return dict(self.state)


@dataclass(frozen=True)
class DeleteObject:
    object_id: str


@dataclass(frozen=True)
class CreateLink:
    link: Link


@dataclass(frozen=True)
class DeleteLink:
    link: Link


Mutation = CreateObject | UpdateState | DeleteObject | CreateLink | DeleteLink

def _freeze_state(state: State) -> tuple[tuple[str, Scalar], ...]:
    return tuple(sorted(state.items()))


# Validation ----------------------------------------------------------------

def validate_schema(
    schema: Schema, data: SystemData, touched: Iterable[str | Link]
) -> list[str]:
    """The sorted violations of the schema among the touched elements
    (object ids and links) of the data.

    Each element gets the same checks: a live object's class is known and
    it has a state; a live link's association is known, both its ends are
    live and their classes fit it; a deleted object has no state left and,
    once the index has been built, no link under it (until then `apply`
    found its cascade by scanning every link).  Checking a commit's touched
    elements alone is enough when the data was valid before the batch,
    because nothing the batch did not touch can have changed: an object's
    class never changes, an endpoint vanishes only through a `DeleteObject`
    in the batch, and the links that delete cascaded away are touched too.
    """
    objects, states, links = data.objects, data.states, data.links
    object_ids: list[str] = []
    checked_links: list[Link] = []
    for element in dict.fromkeys(touched):
        (checked_links if isinstance(element, Link) else object_ids).append(element)
    index = data._incident
    violations: list[str] = []
    for oid in object_ids:
        cls = objects.get(oid)
        if cls is not None and cls not in schema.classes:
            violations.append(f"object {oid}: unknown class {cls!r}")
    for link in checked_links:
        if link not in links:
            continue  # deleted: nothing of it is left to check
        assoc = schema.assocs.get(link.assoc)
        if assoc is None:
            violations.append(f"link {link}: unknown association")
            continue
        src_cls = objects.get(link.src)
        dst_cls = objects.get(link.dst)
        if src_cls is None or dst_cls is None:
            violations.append(f"link {link}: dangling endpoint")
            continue
        if src_cls != assoc.class_a or dst_cls != assoc.class_b:
            violations.append(
                f"link {link}: link class mismatch "
                f"({src_cls}-{dst_cls} vs {assoc.class_a}-{assoc.class_b})"
            )
    for oid in object_ids:
        if oid in objects:
            if oid not in states:
                violations.append(f"object {oid}: missing state entry")
            continue
        if oid in states:
            violations.append(f"state {oid}: no such object")
        if index is not None:
            for link in index.get(oid, _NO_LINKS):
                violations.append(f"link {link}: dangling endpoint")
    # a link left under a deleted object may also be touched itself
    return sorted(set(violations))


__all__ = [
    "ActionType",
    "AssociationDef",
    "CreateLink",
    "CreateObject",
    "DeleteLink",
    "DeleteObject",
    "Link",
    "Mutation",
    "Scalar",
    "Schema",
    "State",
    "SystemData",
    "UpdateState",
    "link_text_order",
    "validate_schema",
    "validate_token",
]
