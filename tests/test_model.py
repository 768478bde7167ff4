"""Data model: tokens, schema, links, validation, sub-data."""

from __future__ import annotations

import importlib
import pkgutil
import random

import pytest

import relsync
from brute_force import is_subdata, validate_all
from relsync.errors import TokenError, UnknownIdError
from relsync.model import (
    AssociationDef,
    CreateLink,
    CreateObject,
    DeleteLink,
    DeleteObject,
    Link,
    Schema,
    SystemData,
    UpdateState,
    validate_schema,
    validate_token,
)
from relsync.store import Store


class TestTokens:
    def test_plain_names_pass(self):
        for name in ("I1", "Contact", "bo-cell", "a_b", "x", "Ümlaut"):
            assert validate_token(name) == name

    @pytest.mark.parametrize(
        "bad",
        [
            "", "a b", "a.b", "a{b", "a}b", "a[b", "a]b", 'a"b', "a=b", "a,b", "a:b", "a\tb",
            "a#b", "a<b", "a>b", "a!b",
        ],
    )
    def test_reserved_punctuation_rejected(self, bad):
        with pytest.raises(TokenError):
            validate_token(bad)


class TestSchema:
    def test_duplicate_class_rejected(self):
        schema = Schema({"A"})
        with pytest.raises(TokenError, match="duplicate class"):
            schema.add_class("A")

    def test_assoc_needs_known_classes(self):
        schema = Schema({"A"})
        with pytest.raises(TokenError, match="unknown class"):
            schema.add_assoc(AssociationDef("R", "A", "left", "B", "right"))

    def test_duplicate_assoc_rejected(self):
        schema = Schema({"A", "B"})
        schema.add_assoc(AssociationDef("R", "A", "left", "B", "right"))
        with pytest.raises(TokenError, match="duplicate association"):
            schema.add_assoc(AssociationDef("R", "B", "x", "A", "y"))

    def test_self_association_requires_distinct_roles(self):
        with pytest.raises(TokenError):
            AssociationDef("Pair", "A", "peer", "A", "peer")
        # distinct roles are fine
        AssociationDef("Pair", "A", "older", "A", "younger")


class TestLink:
    def test_link_is_ordered(self):
        assert Link("a", "b", "R") != Link("b", "a", "R")

    def test_touches(self):
        link = Link("a", "b", "R")
        assert link.touches("a") and link.touches("b") and not link.touches("c")

    def test_self_link_touches_its_one_end(self):
        link = Link("a", "a", "R")
        assert link.touches("a")

    def test_equality_and_hash_are_by_the_triple(self):
        assert Link("a", "b", "R") == Link("a", "b", "R")
        assert hash(Link("a", "b", "R")) == hash(Link("a", "b", "R"))
        assert len({Link("a", "b", "R"), Link("a", "b", "R")}) == 1
        assert Link("a", "b", "R") != Link("a", "b", "S")
        assert Link("a", "b", "R") != Link("a", "c", "R")

    def test_links_sort_by_src_then_dst_then_assoc(self):
        links = {
            Link("b", "a", "R"),
            Link("a", "c", "R"),
            Link("a", "b", "S"),
            Link("a", "b", "R"),
        }
        assert sorted(links) == [
            Link("a", "b", "R"),
            Link("a", "b", "S"),
            Link("a", "c", "R"),
            Link("b", "a", "R"),
        ]


class TestMutations:
    def test_create_state_is_frozen_but_recoverable(self):
        m = CreateObject.make("o1", "A", {"k": 1, "flag": True})
        assert m.state_dict() == {"k": 1, "flag": True}
        # frozen: usable as dict keys / set members
        assert len({m, CreateObject.make("o1", "A", {"flag": True, "k": 1})}) == 1

    def test_update_state_roundtrip(self):
        m = UpdateState.make("o1", {"k": "v"})
        assert m.state_dict() == {"k": "v"}


class TestApply:
    def test_creates_and_update(self):
        data = SystemData()
        assert data.apply(CreateObject.make("a", "A", {"k": 1})) == []
        assert data.apply(CreateObject.make("b", "B")) == []
        assert data.apply(CreateLink(Link("a", "b", "R"))) == []
        assert data.apply(UpdateState.make("a", {"k": 2})) == []
        assert data == SystemData(
            objects={"a": "A", "b": "B"},
            links={Link("a", "b", "R")},
            states={"a": {"k": 2}, "b": {}},
        )

    def test_delete_link_keeps_its_endpoints(self):
        data = SystemData(
            objects={"a": "A", "b": "B"},
            links={Link("a", "b", "R")},
            states={"a": {}, "b": {}},
        )
        assert data.apply(DeleteLink(Link("a", "b", "R"))) == []
        assert data == SystemData(objects={"a": "A", "b": "B"}, states={"a": {}, "b": {}})

    def test_delete_object_returns_exactly_its_incident_links(self):
        incident = [Link("a", "b", "R"), Link("c", "a", "R"), Link("a", "a", "S")]
        data = SystemData(
            objects={"a": "A", "b": "B", "c": "B"},
            links={*incident, Link("b", "c", "R")},
            states={"a": {"k": 1}, "b": {}, "c": {}},
        )
        cascade = data.apply(DeleteObject("a"))
        # the self-link is returned once, not once per end
        assert sorted(cascade) == sorted(incident)
        assert data == SystemData(
            objects={"b": "B", "c": "B"},
            links={Link("b", "c", "R")},
            states={"b": {}, "c": {}},
        )


class TestValidation:
    def setup_method(self):
        self.schema = Schema(
            {"A", "B"}, [AssociationDef("R", "A", "left", "B", "right")]
        )

    def ok(self, data):
        return validate_all(self.schema, data)

    def test_valid_data_has_no_violations(self):
        data = SystemData(
            objects={"a": "A", "b": "B"},
            links={Link("a", "b", "R")},
            states={"a": {}, "b": {"k": 1}},
        )
        assert self.ok(data) == []

    def test_unknown_class(self):
        data = SystemData(objects={"a": "Z"}, states={"a": {}})
        violations = self.ok(data)
        assert violations and "unknown class" in violations[0]

    def test_unknown_association(self):
        data = SystemData(
            objects={"a": "A", "b": "B"},
            links={Link("a", "b", "Nope")},
            states={"a": {}, "b": {}},
        )
        assert any("unknown association" in v for v in self.ok(data))

    def test_dangling_endpoint(self):
        data = SystemData(
            objects={"a": "A"}, links={Link("a", "ghost", "R")}, states={"a": {}}
        )
        assert any("dangling" in v for v in self.ok(data))

    def test_link_class_mismatch(self):
        # R joins A to B; a B->A link is backwards
        data = SystemData(
            objects={"a": "A", "b": "B"},
            links={Link("b", "a", "R")},
            states={"a": {}, "b": {}},
        )
        assert any("mismatch" in v for v in self.ok(data))

    def test_state_bookkeeping(self):
        data = SystemData(objects={"a": "A"}, states={"b": {}})
        violations = self.ok(data)
        assert any("missing state" in v for v in violations)
        assert any("no such object" in v for v in violations)


# Each is invalid in a different way (see TestValidation), with every
# violation a check of all its elements reports.
INVALID_DATA = [
    (SystemData(objects={"a": "Z"}, states={"a": {}}), ["object a: unknown class 'Z'"]),
    (
        SystemData(
            objects={"a": "A", "b": "B"},
            links={Link("a", "b", "Nope"), Link("b", "a", "R")},
            states={"a": {}, "b": {}},
        ),
        [
            "link a Nope b: unknown association",
            "link b R a: link class mismatch (B-A vs A-B)",
        ],
    ),
    (
        SystemData(objects={"a": "A"}, links={Link("a", "ghost", "R")}, states={"a": {}}),
        ["link a R ghost: dangling endpoint"],
    ),
    (
        SystemData(objects={"a": "A"}, states={"b": {}}),
        ["object a: missing state entry", "state b: no such object"],
    ),
]


@pytest.mark.parametrize(
    "data, expected", INVALID_DATA, ids=[f"data{i}" for i in range(len(INVALID_DATA))]
)
def test_scoped_check_reports_what_the_whole_check_does(data, expected):
    schema = Schema({"A", "B"}, [AssociationDef("R", "A", "left", "B", "right")])
    # repeats are checked once
    everything = [*data.links, *data.objects, *data.states, *data.objects]
    assert validate_schema(schema, data, everything) == expected
    assert validate_schema(schema, data, []) == []


def test_scoped_check_finds_links_left_under_a_deleted_object():
    schema = Schema({"A", "B"}, [AssociationDef("R", "A", "left", "B", "right")])
    data = SystemData(objects={"a": "A"}, links={Link("a", "b", "R")}, states={"a": {}})
    # with no index yet, apply's cascade scan is what finds such links
    assert validate_schema(schema, data, ["b"]) == []
    data.incident
    violations = validate_schema(schema, data, ["b", Link("a", "b", "R")])
    assert violations == ["link a R b: dangling endpoint"]


class TestSubdata:
    def test_restriction_is_subdata(self):
        d1 = SystemData(
            objects={"a": "A", "b": "B"},
            links={Link("a", "b", "R")},
            states={"a": {"k": 1}, "b": {}},
        )
        d2 = SystemData(objects={"a": "A"}, links=set(), states={"a": {"k": 1}})
        assert is_subdata(d2, d1)
        assert is_subdata(d1, d1)

    def test_class_change_is_not_subdata(self):
        d1 = SystemData(objects={"a": "A"}, states={"a": {}})
        d2 = SystemData(objects={"a": "B"}, states={"a": {}})
        assert not is_subdata(d2, d1)

    def test_state_drift_is_not_subdata(self):
        d1 = SystemData(objects={"a": "A"}, states={"a": {"k": 1}})
        d2 = SystemData(objects={"a": "A"}, states={"a": {"k": 2}})
        assert not is_subdata(d2, d1)

    def test_extra_link_is_not_subdata(self):
        d1 = SystemData(objects={"a": "A", "b": "B"}, states={"a": {}, "b": {}})
        d2 = d1.copy()
        d2.links.add(Link("a", "b", "R"))
        assert not is_subdata(d2, d1)

    def test_copy_is_deep_for_states(self):
        d1 = SystemData(objects={"a": "A"}, states={"a": {"k": 1}})
        d2 = d1.copy()
        d2.states["a"]["k"] = 2
        assert d1.states["a"]["k"] == 1


def rebuilt_index(links) -> dict[str, tuple[Link, ...]]:
    """vertex -> links touching it, in link order, built from scratch."""
    index: dict[str, set[Link]] = {}
    for link in links:
        for vertex in {link.src, link.dst}:
            index.setdefault(vertex, set()).add(link)
    return {vertex: tuple(sorted(held)) for vertex, held in index.items()}


def frozen_view(data: SystemData) -> tuple:
    """Everything a held version must keep, copied out of it."""
    return (
        dict(data.objects),
        frozenset(data.links),
        {oid: dict(state) for oid, state in data.states.items()},
        dict(data.incident),
    )


# Classes A and B, and two associations (R and S) for each ordered pair of
# them, so a link of either name fits any two objects; the pairs of one
# class allow self-links.
CHAIN_SCHEMA = Schema(
    {"A", "B"},
    [
        AssociationDef(f"{name}{a}{b}", a, "src", b, "dst")
        for name in "RS" for a in "AB" for b in "AB"
    ],
)


def random_mutation(rng: random.Random, data: SystemData, dropped: list[Link], fresh):
    """One mutation of `CHAIN_SCHEMA` that the data accepts: creates,
    self-links, updates, link deletes, object deletes (mostly of linked
    objects) and re-creates of a link deleted earlier whose ends are still
    live."""
    live = sorted(data.objects)
    linked = sorted({end for link in data.links for end in (link.src, link.dst)})
    revivable = [l for l in dropped if l.src in data.objects and l.dst in data.objects
                 and l not in data.links]
    kind = rng.choice(["create", "create", "link", "link", "self", "update",
                       "unlink", "delete", "relink"])
    if kind == "relink" and revivable:
        return CreateLink(rng.choice(revivable))
    if kind == "unlink" and data.links:
        return DeleteLink(rng.choice(sorted(data.links)))
    if kind == "delete" and live:
        return DeleteObject(rng.choice(linked if linked and rng.random() < 0.8 else live))
    if kind == "update" and live:
        return UpdateState.make(rng.choice(live), {"k": rng.randrange(5)})
    if kind in ("link", "self") and live:
        src = rng.choice(live)
        dst = src if kind == "self" else rng.choice(live)
        assoc = rng.choice("RS") + data.objects[src] + data.objects[dst]
        link = Link(src, dst, assoc)
        if link not in data.links:
            return CreateLink(link)
    return CreateObject.make(next(fresh), rng.choice(["A", "B"]), {"k": 0})


@pytest.mark.parametrize("seed", range(20))
def test_version_chain_keeps_every_index_right(seed):
    """A chain of store commits with every version held: each version's
    index matches its links, and no later commit changes a version already
    made.  Each batch is drawn on a draft copy of the live data, and about
    one in four first gets a rejected twin.  Versions are read now and then
    and all of them at the end, in random order, so some are first read
    across rejected batches, some are rebuilt through a newer version that
    was rebuilt before, and some are never read until the end."""
    rng = random.Random(seed)
    fresh = (f"o{i}" for i in range(10**6))
    store = Store(CHAIN_SCHEMA)
    versions: list[SystemData] = [store.data]
    views: list[tuple] = [frozen_view(SystemData())]
    read: set[int] = set()
    dropped: list[Link] = []
    kinds: set[str] = set()

    def read_back(i: int) -> None:
        version = versions[i]
        if i not in read and version is not store.data:
            assert "objects" not in vars(version)  # a replaced version holds no data
            rebuilt_newer = any(j > i for j in read)
            kinds.add("through a rebuilt version" if rebuilt_newer else "from the live version")
        read.add(i)
        assert version.incident == rebuilt_index(version.links)
        assert frozen_view(version) == views[i]

    for _ in range(60):
        draft = store.data.copy()
        if rng.random() < 0.5:
            draft.incident  # the draft's cascades go through its index
        if rng.random() < 0.5:
            store.data.incident  # and the store's
        batch: list = []
        for _ in range(rng.randrange(1, 6)):
            m = random_mutation(rng, draft, dropped, fresh)
            if isinstance(m, CreateLink) and DeleteLink(m.link) in batch:
                continue  # the store would stage the create first
            before = set(draft.links)
            cascade = draft.apply(m)
            batch.append(m)
            if isinstance(m, DeleteObject):
                assert len(cascade) == len(set(cascade))
                assert set(cascade) == {l for l in before if l.touches(m.object_id)}
                dropped += cascade
                kinds.add("delete-with-links" if cascade else "delete")
            elif isinstance(m, DeleteLink):
                dropped.append(m.link)
            elif isinstance(m, CreateLink):
                kinds.add("self-link" if m.link.src == m.link.dst else "link")
                if m.link in dropped:
                    kinds.add("re-created link")
        if rng.random() < 0.25:
            # every mutation is staged before the last one fails
            with pytest.raises(UnknownIdError):
                store.apply(batch + [DeleteObject("gone")])
            kinds.add("rejected batch")
        store.apply(batch)
        data = store.data
        assert (data.objects, data.links, data.states) == (draft.objects, draft.links, draft.states)
        versions.append(data)
        views.append(frozen_view(draft))
        if rng.random() < 0.3:
            read_back(rng.randrange(len(versions)))
    order = list(range(len(versions)))
    rng.shuffle(order)
    for i in order:
        read_back(i)
    assert {
        "self-link", "delete-with-links", "re-created link", "rejected batch",
        "from the live version", "through a rebuilt version",
    } <= kinds


_MODULES = ["relsync"] + [
    f"relsync.{info.name}" for info in pkgutil.iter_modules(relsync.__path__)
]


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []
