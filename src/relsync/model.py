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

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import TokenError

# Attribute values are flat scalars; states compare by exact equality.
Scalar = str | int | bool
State = dict[str, Scalar]

# Tokens appear in the scenario DSL, expression syntax, and canonical dumps,
# so they must be free of the punctuation those formats reserve.
_TOKEN_FORBIDDEN = re.compile(r'[\s.{}\[\]"=,:]')


def validate_token(name: str, what: str = "name") -> str:
    if not name:
        raise TokenError(f"{what} must be a nonempty token")
    if _TOKEN_FORBIDDEN.search(name):
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


@dataclass
class SystemData:
    """The full content of one store: objects, links, and states.

    Invariants: every link endpoint is a live object, and every live object
    has a state entry (possibly empty).  The store keeps them: each commit
    runs `validate_schema` on the elements its batch touched, which is
    enough because the version it derives from already held them.

    Three indexes are derived from the data; once read, each is kept
    exact by `apply`, the one way the data changes:
    - `incident` maps each vertex to the links touching it.  It is built
      from `links` the first time something reads it; `apply` replaces the
      frozensets of a link's ends.  `derive` copies the dict and shares
      every frozenset.
    - `members(cls)` is the frozenset of ids of a class's objects, filled
      per class on first read.  `apply` drops a class's entry when it
      creates or deletes one of its objects, and never edits a set, so
      `derive` copies the dict and shares every set.  A create never
      changes an existing object's class: the store refuses a used id, and
      the replica a re-create under another class.
    - `walks` memoises the paths of expressions that do not name
      `{user}`, keyed by expression and schema (see `paths.evaluate`; the
      path budget is the constant `paths.MAX_PATHS`, so no part of the
      key).  Every `apply` clears it, `derive` starts the next version
      without one, and a commit clears the memo of the version it
      replaces, so a superseded version holds none.

    Store versions made by `derive` also share every state dict with the
    version they came from, so none is ever edited in place: `apply`
    replaces a state.
    """

    objects: dict[str, str] = field(default_factory=dict)
    links: set[Link] = field(default_factory=set)
    states: dict[str, State] = field(default_factory=dict)
    # (expression, schema) -> the expression's paths
    walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # vertex -> links touching it; None until first read
    _incident: dict[str, frozenset[Link]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # class -> ids of its objects; an entry is filled on first read
    _members: dict[str, frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def incident(self) -> dict[str, frozenset[Link]]:
        """vertex -> the links touching it; a vertex without links has no
        entry.  A self-link is listed once, under its one vertex."""
        index = self._incident
        if index is None:
            building: dict[str, set[Link]] = {}
            for link in self.links:
                building.setdefault(link.src, set()).add(link)
                building.setdefault(link.dst, set()).add(link)
            index = self._incident = {v: frozenset(s) for v, s in building.items()}
        return index

    def members(self, class_name: str) -> frozenset[str]:
        """The ids of the class's objects; one scan of the objects on the
        first read after a create or delete of the class."""
        ids = self._members.get(class_name)
        if ids is None:
            ids = self._members[class_name] = frozenset(
                oid for oid, cls in self.objects.items() if cls == class_name
            )
        return ids

    def copy(self) -> SystemData:
        """An independent copy, states included; the index is rebuilt on
        the copy's first read."""
        return SystemData(
            objects=dict(self.objects),
            links=set(self.links),
            states={oid: dict(state) for oid, state in self.states.items()},
        )

    def derive(self) -> SystemData:
        """The next version, for a commit to apply to: fresh dicts and link
        set, sharing this version's state dicts, per-vertex link sets and
        per-class id sets, with no walks memoised."""
        following = SystemData(dict(self.objects), set(self.links), dict(self.states))
        if self._incident is not None:
            following._incident = dict(self._incident)
        following._members = dict(self._members)
        return following

    def apply(self, mutation: Mutation) -> list[Link]:
        """Apply a mutation without checking it; returns the links an object
        delete cascaded away (empty for every other kind).  An object takes
        its links with it, so no link is left dangling.  Once the index has
        been read it finds them in O(degree); until then one scan of the
        links costs what building the index would, and data that nobody
        walks (a fuzzer's model, a bulk load) never pays for the index."""
        self.walks.clear()
        if isinstance(mutation, CreateObject):
            self.objects[mutation.object_id] = mutation.class_name
            self.states[mutation.object_id] = mutation.state_dict()
            self._members.pop(mutation.class_name, None)
        elif isinstance(mutation, CreateLink):
            self.links.add(mutation.link)
            if self._incident is not None:
                _index_link(self._incident, mutation.link)
        elif isinstance(mutation, UpdateState):
            self.states[mutation.object_id] = mutation.state_dict()
        elif isinstance(mutation, DeleteLink):
            self.links.discard(mutation.link)
            if self._incident is not None:
                _unindex_link(self._incident, mutation.link)
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
            self._members.pop(self.objects.pop(oid), None)
            self.states.pop(oid, None)
            return cascade
        else:  # pragma: no cover - exhaustive over the Mutation union
            raise TypeError(f"not a mutation: {mutation!r}")
        return []


_NO_LINKS: frozenset[Link] = frozenset()


def _index_link(index: dict[str, frozenset[Link]], link: Link) -> None:
    """Add a link under both its ends, replacing each end's set."""
    index[link.src] = index.get(link.src, _NO_LINKS) | {link}
    if link.dst != link.src:
        index[link.dst] = index.get(link.dst, _NO_LINKS) | {link}


def _unindex_link(index: dict[str, frozenset[Link]], link: Link) -> None:
    """Remove a link from under both its ends, replacing each end's set and
    dropping an end left without links.  An end already gone is skipped."""
    for vertex in {link.src, link.dst}:
        held = index.get(vertex)
        if held is not None and link in held:
            if len(held) == 1:
                del index[vertex]
            else:
                index[vertex] = held - {link}


# Mutations -----------------------------------------------------------------

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
    elements alone is enough when the version it derives from was valid,
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
