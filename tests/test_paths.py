"""Path derivation: role traversal, dead-end retention, prefix-freeness,
and equivalence with the brute-force enumerator."""

from __future__ import annotations

import random
import sys

import pytest

import relsync.paths as paths_module
from brute_force import (
    as_pairs,
    brute_force_paths,
    is_path,
    is_sub_path,
    is_subdata,
    random_instance,
)
from conftest import F1_LINKS, F1_OBJECTS
from relsync.errors import PathBudgetError, UnboundVariableError, UnknownClassError
from relsync.expr import parse_expression
from relsync.model import (
    AssociationDef,
    CreateLink,
    DeleteLink,
    Link,
    Schema,
    SystemData,
    freeze_state,
)
from relsync.paths import (
    TypedGraph,
    evaluate,
    relevant_paths,
    select_relevant,
)

OWN = Link("I1", "C1", "Ownership")
REF = Link("C1", "I2", "Reference")
AT1 = Link("I1", "P1", "Attendance")
AT2 = Link("I2", "P2", "Attendance")
AT3 = Link("I3", "P3", "Attendance")
EN1 = Link("P1", "E1", "Enrollment")
EN2 = Link("P2", "E1", "Enrollment")
EN3 = Link("P3", "E1", "Enrollment")


@pytest.fixture
def g(schema, f1_data):
    return TypedGraph(f1_data, schema)


class TestFixtureDerivation:
    def test_contact_expression(self, schema, f1_data, g):
        expr = parse_expression("{user}.Contact.contactIdentity")
        got = evaluate(expr, g, user="I1")
        assert frozenset(got) == {("I1", OWN, "C1", REF, "I2")}

    def test_event_expression(self, schema, f1_data, g):
        expr = parse_expression("{user}.Participation.Event.Participation.Identity")
        got = evaluate(expr, g, user="I1")
        assert frozenset(got) == {
            ("I1", AT1, "P1", EN1, "E1", EN2, "P2", AT2, "I2"),
            ("I1", AT1, "P1", EN1, "E1", EN3, "P3", AT3, "I3"),
        }

    def test_matches_brute_force_on_fixture(self, schema, f1_data, fixture_exprs):
        for expr in fixture_exprs:
            g = TypedGraph(f1_data, schema)
            assert as_pairs(evaluate(expr, g, user="I1")) == brute_force_paths(
                schema, f1_data, expr, "I1"
            )

    def test_select_relevant_covers_whole_fixture(self, schema, f1_data, fixture_exprs):
        rel = select_relevant(schema, f1_data, fixture_exprs, user="I1")
        assert rel.objects == F1_OBJECTS
        assert rel.links == F1_LINKS

    def test_expression_selection_extends_friends_only_slice(
        self, schema, f1_data, fixture_exprs
    ):
        # A hand-computed contact-book slice: the user, their contacts, the
        # identities behind them, the user's participations and events, and
        # participations of *befriended* identities on those events.  The
        # path expressions are strictly wider: they also pull in co-attending
        # strangers (P3) and their identities (I3).
        friends_only = {"I1", "C1", "I2", "P1", "E1", "P2"}
        rel = select_relevant(schema, f1_data, fixture_exprs, user="I1")
        assert set(rel.objects) == friends_only | {"P3", "I3"}


class TestDeadEnds:
    def test_dead_end_path_is_retained(self, schema, f1_data):
        data = f1_data.copy()
        data.links.discard(REF)  # C1 no longer references anyone
        g = TypedGraph(data, schema)
        expr = parse_expression("{user}.Contact.contactIdentity")
        assert frozenset(evaluate(expr, g, user="I1")) == {("I1", OWN, "C1")}

    def test_root_only_dead_end(self, schema, f1_data, g):
        expr = parse_expression("{user}.Contact.contactIdentity")
        assert frozenset(evaluate(expr, g, user="I3")) == {("I3",)}

    def test_zero_length_expression(self, schema, f1_data, g):
        expr = parse_expression("{user}")
        assert frozenset(evaluate(expr, g, user="I1")) == {("I1",)}

    def test_mixed_full_and_dead_end_paths(self, schema, f1_data):
        data = f1_data.copy()
        data.objects["C2"] = "Contact"
        data.states["C2"] = ()
        own2 = Link("I1", "C2", "Ownership")
        data.links.add(own2)  # C2 references nobody
        g = TypedGraph(data, schema)
        expr = parse_expression("{user}.Contact.contactIdentity")
        assert frozenset(evaluate(expr, g, user="I1")) == {
            ("I1", OWN, "C1", REF, "I2"),
            ("I1", own2, "C2"),
        }

    def test_result_is_prefix_free(self, schema, f1_data, fixture_exprs, g):
        for expr in fixture_exprs:
            paths = evaluate(expr, g, user="I1")
            for p in paths:
                for q in paths:
                    assert not is_sub_path(p, q, g, proper=True)


class TestRoles:
    def test_far_end_role_names(self, g):
        # role names belong to the far vertex's end of the association
        assert frozenset(evaluate(parse_expression("{I1}.Contact"), g)) == {("I1", OWN, "C1")}
        assert frozenset(evaluate(parse_expression("{C1}.owner"), g)) == {("C1", OWN, "I1")}
        # a wrong or unknown role dead-ends at the root
        assert frozenset(evaluate(parse_expression("{I1}.owner"), g)) == {("I1",)}
        assert frozenset(evaluate(parse_expression("{C1}.Contact"), g)) == {("C1",)}
        assert frozenset(evaluate(parse_expression("{I1}.nosuchrole"), g)) == {("I1",)}

    def test_unknown_association_never_matches(self, schema, f1_data):
        data = f1_data.copy()
        data.links.discard(OWN)
        data.links.add(Link("I1", "C1", "Bogus"))  # undeclared association
        g = TypedGraph(data, schema)
        assert frozenset(evaluate(parse_expression("{I1}.Contact"), g)) == {("I1",)}
        assert frozenset(evaluate(parse_expression("{C1}.owner"), g)) == {("C1",)}

    def test_self_association_distinguishes_direction(self):
        schema = Schema(
            {"Person"},
            [AssociationDef("Parenthood", "Person", "parent", "Person", "child")],
        )
        link = Link("A", "B", "Parenthood")
        data = SystemData(
            objects={"A": "Person", "B": "Person"},
            links={link},
            states={"A": (), "B": ()},
        )
        g = TypedGraph(data, schema)
        down = evaluate(parse_expression("{A}.child"), g)
        up = evaluate(parse_expression("{B}.parent"), g)
        wrong = evaluate(parse_expression("{A}.parent"), g)
        assert frozenset(down) == {("A", link, "B")}
        assert frozenset(up) == {("B", link, "A")}
        assert frozenset(wrong) == {("A",)}  # dead end: A is not anyone's child


class TestPathPredicates:
    def test_evaluated_paths_interleave_vertices_and_links(self, f1_data, g):
        expr = parse_expression("{user}.Participation.Event.Participation.Identity")
        paths = evaluate(expr, g, user="I1")
        assert paths
        for p in paths:
            # the walk v0, e0, v1, …, vn: vertices at even indices, links
            # at odd ones, each link joining its two neighbours
            assert len(p) % 2 == 1 and p[0] == "I1"
            for i, element in enumerate(p):
                assert isinstance(element, Link) == (i % 2 == 1)
                if i % 2:
                    assert {element.src, element.dst} == {p[i - 1], p[i + 1]}

    def test_path_shape_validation(self, g):
        # a walk ends on a vertex, so it has one more vertex than links
        assert not is_path(("I1", OWN, "C1", REF), g)
        assert not is_path(("I1", "C1"), g)
        assert not is_path((), g)
        assert not is_path((OWN,), g)  # a link where a vertex belongs

    def test_is_path(self, g):
        assert is_path(("I1", OWN, "C1", REF, "I2"), g)
        assert not is_path(("I1", REF, "C1"), g)  # wrong edge
        assert not is_path(("I1", OWN, "I2"), g)  # wrong endpoint
        assert not is_path(("ghost",), g)

    def test_is_sub_path(self, g):
        whole = ("I1", OWN, "C1", REF, "I2")
        head = ("I1", OWN, "C1")
        assert is_sub_path(head, whole, g)
        assert is_sub_path(whole, whole, g)
        assert not is_sub_path(whole, whole, g, proper=True)
        assert is_sub_path(head, whole, g, proper=True)
        assert not is_sub_path(whole, head, g)


class TestRootSemantics:
    def test_unbound_user_variable(self, schema, f1_data, g):
        expr = parse_expression("{user}.Contact")
        with pytest.raises(UnboundVariableError):
            evaluate(expr, g)

    def test_unknown_class_root(self, schema, f1_data, g):
        expr = parse_expression("Spaceship.Contact")
        with pytest.raises(UnknownClassError):
            evaluate(expr, g)

    def test_missing_instance_refs_match_nothing(self, schema, f1_data, g):
        expr = parse_expression("{ghost,I1}")
        assert frozenset(evaluate(expr, g, user="I1")) == {("I1",)}

    def test_class_and_filter_roots(self, schema, f1_data, g):
        all_ids = evaluate(parse_expression("Identity"), g)
        assert {p[0] for p in all_ids} == {"I1", "I2", "I3"}
        ana = evaluate(parse_expression('Identity[name="ana"]'), g)
        assert {p[0] for p in ana} == {"I1"}


def test_budget_overflow_raises(schema, f1_data, monkeypatch):
    g = TypedGraph(f1_data, schema)
    expr = parse_expression("{user}.Participation.Event.Participation.Identity")
    monkeypatch.setattr(paths_module, "MAX_PATHS", 1)
    with pytest.raises(PathBudgetError):
        evaluate(expr, g, user="I1")


def test_budget_boundary_is_exact(monkeypatch):
    # The result count only grows during evaluation and ends at the size of
    # the result set, so a budget of exactly that size passes and one less
    # raises.  The walk memo does not key on the budget, so each walk below
    # starts from an empty one.
    rng = random.Random(4242)
    overflowed = 0
    for trial in range(200):
        schema, data, expr, user = random_instance(rng, max_objects=10)
        g = TypedGraph(data, schema)
        full = evaluate(expr, g, user=user)
        data.walks.clear()
        monkeypatch.setattr(paths_module, "MAX_PATHS", len(full))
        assert frozenset(evaluate(expr, g, user=user)) == frozenset(full), trial
        if full:
            data.walks.clear()
            monkeypatch.setattr(paths_module, "MAX_PATHS", len(full) - 1)
            with pytest.raises(PathBudgetError):
                evaluate(expr, g, user=user)
            overflowed += 1
        monkeypatch.undo()
    assert overflowed > 100


def _tree_nodes(walk) -> list:
    """Every node of a walk's prefix tree."""
    nodes = list(walk.roots.values())
    for node in nodes:  # grows as it goes
        nodes += node[paths_module._CHILDREN:]
    return nodes


def test_a_walk_deeper_than_the_recursion_limit():
    # A chain N0 -> N1 -> ... -> Nn walked by n `.next` segments, more than
    # the interpreter would allow as nested calls, first and after regrowths.
    n = sys.getrecursionlimit() + 500
    schema = Schema({"Node"}, [AssociationDef("Succession", "Node", "prev", "Node", "next")])
    ids = [f"N{i}" for i in range(n + 1)]
    chain = [Link(ids[i], ids[i + 1], "Succession") for i in range(n)]
    data = SystemData(
        objects=dict.fromkeys(ids, "Node"), links=set(chain), states={v: () for v in ids}
    )
    expr = parse_expression("{user}" + ".next" * n)
    walk = evaluate(expr, TypedGraph(data, schema), user="N0")
    path = next(iter(walk))
    assert len(walk) == 1 and len(path) == 2 * n + 1 and path[-1] == ids[-1]
    middle = chain[n // 2]
    for mutation in DeleteLink(middle), CreateLink(middle):
        data.apply(mutation)
        regrown = evaluate(expr, TypedGraph(data, schema), user="N0")
        fresh = evaluate(expr, TypedGraph(data.copy(), schema), user="N0")
        assert regrown is walk  # regrown in place
        assert frozenset(regrown) == frozenset(fresh)
        assert regrown.agrees_with(fresh)
    assert len(next(iter(walk))) == 2 * n + 1
    twin = walk.copy()
    assert twin.agrees_with(walk)
    assert not {id(node) for node in _tree_nodes(twin)} & {id(node) for node in _tree_nodes(walk)}


class TestBruteForceEquivalence:
    def test_random_trials_match_enumerator(self):
        rng = random.Random(20260817)
        for trial in range(150):
            schema, data, expr, user = random_instance(rng, max_objects=8)
            g = TypedGraph(data, schema)
            got = as_pairs(evaluate(expr, g, user=user))
            want = brute_force_paths(schema, data, expr, user)
            assert got == want, f"trial {trial}: {expr} diverged"

    def test_evaluation_is_deterministic(self):
        rng = random.Random(7)
        schema, data, expr, user = random_instance(rng, max_objects=8)
        g = TypedGraph(data, schema)
        runs = {frozenset(evaluate(expr, g, user=user)) for _ in range(5)}
        assert len(runs) == 1


class TestSelection:
    def test_selection_is_subdata(self):
        rng = random.Random(99)
        for _ in range(200):
            schema, data, expr, user = random_instance(rng, max_objects=12)
            rel = select_relevant(schema, data, [expr], user=user)
            assert is_subdata(rel, data)

    def test_selected_states_are_copies(self, schema, f1_data, fixture_exprs):
        rel = select_relevant(schema, f1_data, fixture_exprs, user="I1")
        # a state cannot be edited in place, and replacing one in the
        # selection leaves the data's
        with pytest.raises(TypeError):
            rel.states["I1"][0] = ("name", "tampered")
        rel.states["I1"] = freeze_state({"name": "tampered"})
        assert dict(f1_data.states["I1"])["name"] == "ana"

    def test_relevant_paths_unions_expressions(self, schema, f1_data, fixture_exprs):
        both = relevant_paths(schema, f1_data, fixture_exprs, user="I1")
        single = {
            p
            for expr in fixture_exprs
            for p in relevant_paths(schema, f1_data, [expr], user="I1")
        }
        assert frozenset(both) == frozenset(single)

    def test_a_union_counts_a_shared_path_once(self, schema, f1_data, fixture_exprs):
        twice = [fixture_exprs[0], fixture_exprs[0]]
        paths = relevant_paths(schema, f1_data, twice, user="I1")
        assert len(paths) == len(frozenset(paths)) == len(paths.parts[0])
        # C1 references nobody, so both walks hold the path I1 -Ownership- C1
        data = f1_data.copy()
        data.links.discard(REF)
        exprs = [
            parse_expression("{user}.Contact"),
            parse_expression("{user}.Contact.contactIdentity"),
        ]
        paths = relevant_paths(schema, data, exprs, user="I1")
        assert [frozenset(part) for part in paths.parts] == [{("I1", OWN, "C1")}] * 2
        assert len(paths) == len(frozenset(paths)) == 1
