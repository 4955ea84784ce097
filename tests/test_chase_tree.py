"""Tests for the chase tree (Section 4, Definitions 5/6, Proposition 2)."""

import pytest

from repro.core import parse_database, parse_theory
from repro.core.terms import Constant
from repro.chase import build_chase_tree, tree_decomposition, verify_proposition2
from repro.chase.runner import ChaseBudget
from repro.guardedness import normalize

PUBLICATION_THEORY = """
Publication(x) -> exists k1, k2. Keywords(x, k1, k2)
Keywords(x, k1, k2) -> hasTopic(x, k1)
hasTopic(x,z), hasAuthor(x,u), hasAuthor(y,u), hasTopic(y,z2), Scientific(z2), citedIn(y,x) -> Scientific(z)
hasAuthor(x,y), hasTopic(x,z), Scientific(z) -> Q(y)
"""

PUBLICATION_DATA = (
    "Publication(p1). Publication(p2). citedIn(p1,p2). hasAuthor(p1,a1). "
    "hasAuthor(p2,a1). hasAuthor(p2,a2). hasTopic(p1,t1). Scientific(t1)."
)


@pytest.fixture()
def publication():
    theory = normalize(parse_theory(PUBLICATION_THEORY)).theory
    database = parse_database(PUBLICATION_DATA)
    tree, chased = build_chase_tree(theory, database)
    return theory, database, tree, chased


class TestFigure2:
    def test_root_holds_input_atoms(self, publication):
        _, database, tree, _ = publication
        assert set(database) <= tree.root.atoms

    def test_two_keyword_subtrees(self, publication):
        """Figure 2: one child node per publication's Keywords atoms."""
        _, _, tree, _ = publication
        children = tree.root.children
        assert len(children) == 2
        for child in children:
            assert any(atom.relation == "Keywords" for atom in child.atoms)

    def test_ground_q_atoms_in_root(self, publication):
        _, _, tree, _ = publication
        q_atoms = {atom for atom in tree.root.atoms if atom.relation == "Q"}
        names = {atom.args[0].name for atom in q_atoms}
        assert names == {"a1", "a2"}

    def test_all_chase_atoms_in_tree(self, publication):
        _, _, tree, chased = publication
        assert tree.all_atoms() == set(chased.atoms())

    def test_render_contains_root_marker(self, publication):
        _, _, tree, _ = publication
        assert tree.render().startswith("[0]")


class TestProposition2:
    def test_invariants_on_publication_example(self, publication):
        theory, database, tree, _ = publication
        checks = verify_proposition2(tree, theory, database)
        assert checks == {"P1": True, "P2": True, "P3": True}

    def test_non_root_nodes_bounded_by_max_arity(self, publication):
        theory, _, tree, _ = publication
        max_arity = theory.max_arity()
        for node in tree.nodes[1:]:
            assert len(node.terms()) <= max_arity

    def test_unique_minimal_nodes_for_atom_term_sets(self, publication):
        _, _, tree, _ = publication
        for node in tree.nodes:
            for atom in node.atoms:
                assert len(tree.minimal_nodes(atom.terms())) == 1

    def test_empty_termset_minimal_is_root(self, publication):
        _, _, tree, _ = publication
        assert tree.minimal_node(set()) is tree.root


class TestTreeDecomposition:
    def test_decomposition_shape(self, publication):
        theory, database, tree, _ = publication
        edges, bags, width = tree_decomposition(tree)
        assert len(edges) == len(tree.nodes) - 1
        # width ≤ max(|terms(D)| + k, m) - 1 per the remark after Prop. 2
        database_terms = len(database.terms())
        assert width <= max(database_terms, theory.max_arity()) - 1 + 1

    def test_every_atom_within_a_bag(self, publication):
        _, _, tree, chased = publication
        _, bags, _ = tree_decomposition(tree)
        for atom in chased:
            assert any(atom.terms() <= bag for bag in bags.values())

    def test_connectedness_of_term_occurrences(self, publication):
        """Each term's bags form a connected subtree (the tree-decomposition
        condition guaranteed by P3)."""
        _, _, tree, _ = publication
        for term in {t for node in tree.nodes for t in node.terms()}:
            holders = [node for node in tree.nodes if term in node.terms()]
            # connected iff all holders but one have their parent holding too
            roots = [
                node
                for node in holders
                if node.parent is None or term not in node.parent.terms()
            ]
            assert len(roots) == 1


class TestPreconditions:
    def test_requires_normal_theory(self):
        theory = parse_theory("P(x) -> R(x), S(x)")  # multi-head, not normal
        with pytest.raises(ValueError):
            build_chase_tree(theory, parse_database("P(a)."))

    def test_requires_frontier_guarded(self):
        theory = parse_theory("E(x,y), E(y,z) -> T(x,z)")  # not FG
        with pytest.raises(ValueError):
            build_chase_tree(theory, parse_database("E(a,b)."))


class TestFactsInRoot:
    def test_theory_facts_added_to_root(self):
        theory = normalize(
            parse_theory('-> Scientific("t0")\nhasTopic(x,z), Scientific(z) -> Good(x)')
        ).theory
        database = parse_database("hasTopic(p, t0).")
        tree, _ = build_chase_tree(theory, database)
        assert Constant("t0") in tree.root.terms()


class TestBudgets:
    def test_max_depth_stops_an_infinite_chase(self):
        # The chase of E(a,b) is an infinite E-path.  The trigger skipped
        # for depth must not come back in every later round.
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        database = parse_database("E(a,b).")
        tree, chased = build_chase_tree(
            theory, database, budget=ChaseBudget(max_depth=1)
        )
        assert len(chased) == 2
        assert len(tree.all_atoms()) == 2
