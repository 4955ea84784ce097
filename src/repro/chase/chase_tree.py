"""Chase trees (Section 4, Definitions 5 and 6).

The chase of a database w.r.t. a *normal frontier-guarded* theory can be
arranged as a tree whose root stores the atoms over the original constants
and whose non-root nodes store atoms over at most ``m`` terms, ``m`` being
the maximal relation arity (Proposition 2).  The FG→NG translation of
Section 5 is proved correct against this representation, and Proposition 2
also yields a tree decomposition of the chase of width
``max(|terms(D)| + k, m)``.

This module constructs the chase tree alongside an oblivious chase run and
offers validators for the Proposition 2 invariants (P1)–(P3) plus the tree
decomposition extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.atoms import Atom
from ..core.database import Database
from ..core.terms import Constant, Term
from ..core.theory import Theory
from ..guardedness.classify import is_frontier_guarded_rule
from ..guardedness.normalize import is_normal
from ..robustness.errors import InvalidTheoryError
from ..robustness.governor import ResourceGovernor, resolve_governor
from .runner import ChaseBudget, _TriggerLoop

__all__ = [
    "ChaseTreeNode",
    "ChaseTree",
    "build_chase_tree",
    "verify_proposition2",
    "tree_decomposition",
]


@dataclass
class ChaseTreeNode:
    """A node of the chase tree — a set of atoms plus tree links."""

    index: int
    atoms: set[Atom] = field(default_factory=set)
    parent: Optional["ChaseTreeNode"] = None
    children: list["ChaseTreeNode"] = field(default_factory=list)

    def terms(self) -> set[Term]:
        result: set[Term] = set()
        for atom in self.atoms:
            result |= atom.terms()
        return result

    def depth(self) -> int:
        node, depth = self, 0
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def __repr__(self) -> str:
        return f"ChaseTreeNode#{self.index}({len(self.atoms)} atoms)"


class ChaseTree:
    """The tree of Definition 6."""

    def __init__(self, root_atoms: Iterable[Atom]) -> None:
        self.root = ChaseTreeNode(index=0, atoms=set(root_atoms))
        self.nodes: list[ChaseTreeNode] = [self.root]

    # ------------------------------------------------------------------
    def minimal_nodes(self, terms: set[Term]) -> list[ChaseTreeNode]:
        """All ``C``-minimal nodes (Definition 5): nodes containing ``C``
        whose parent does not contain ``C``.  Proposition 2 (P3) promises at
        most one; :func:`verify_proposition2` checks it."""
        minimal = []
        for node in self.nodes:
            if terms <= node.terms():
                parent = node.parent
                if parent is None or not terms <= parent.terms():
                    minimal.append(node)
        return minimal

    def minimal_node(self, terms: set[Term]) -> Optional[ChaseTreeNode]:
        candidates = self.minimal_nodes(terms)
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------
    def insert_atom(self, atom: Atom, frontier_image: set[Term]) -> ChaseTreeNode:
        """Insert a chase-produced atom per (C1)/(C2) of Definition 6.

        ``frontier_image`` is ``{h(x) : x ∈ fvars(σ)}`` for the applied rule
        and homomorphism — the anchor used when a new node is created."""
        atom_terms = atom.terms()
        target = self.minimal_node(atom_terms)
        if target is not None:  # (C1)
            target.atoms.add(atom)
            return target
        anchor = self.minimal_node(frontier_image)  # (C2)
        if anchor is None:
            # The frontier image involves fresh nulls not yet in the tree;
            # cannot happen for a proper chase order, but fall back to root.
            anchor = self.root
        node = ChaseTreeNode(index=len(self.nodes), atoms={atom}, parent=anchor)
        anchor.children.append(node)
        self.nodes.append(node)
        return node

    # ------------------------------------------------------------------
    def all_atoms(self) -> set[Atom]:
        atoms: set[Atom] = set()
        for node in self.nodes:
            atoms |= node.atoms
        return atoms

    def render(self, max_atoms_per_node: int = 8) -> str:
        """ASCII rendering (used by the Figure 2 example)."""
        lines: list[str] = []

        def visit(node: ChaseTreeNode, indent: str) -> None:
            shown = sorted(node.atoms)[:max_atoms_per_node]
            label = ", ".join(str(atom) for atom in shown)
            if len(node.atoms) > max_atoms_per_node:
                label += f", … (+{len(node.atoms) - max_atoms_per_node})"
            lines.append(f"{indent}[{node.index}] {label}")
            for child in node.children:
                visit(child, indent + "    ")

        visit(self.root, "")
        return "\n".join(lines)


def build_chase_tree(
    theory: Theory,
    database: Database,
    *,
    budget: Optional[ChaseBudget] = None,
    governor: Optional[ResourceGovernor] = None,
) -> tuple[ChaseTree, Database]:
    """Run the oblivious chase of a normal frontier-guarded theory and build
    the chase tree of Definition 6.  Returns ``(tree, chase_database)``.

    Requires a normal theory (singleton heads; existential rules guarded)
    whose rules are frontier-guarded.  When the budget or governor cuts
    the run short the partial tree is returned: every inserted atom still
    satisfies the (C1)/(C2) placement of Definition 6, so the
    Proposition 2 invariants hold on the truncated tree."""
    if not is_normal(theory):
        raise InvalidTheoryError(
            "chase trees are defined for normal theories (Prop. 1)"
        )
    for rule in theory:
        if not is_frontier_guarded_rule(rule):
            raise InvalidTheoryError(f"rule is not frontier-guarded: {rule}")

    root_atoms = set(database)
    for rule in theory:
        if rule.is_fact():
            root_atoms.add(rule.head[0])

    tree = ChaseTree(root_atoms)
    engine = _TriggerLoop(
        theory,
        database,
        policy="oblivious",
        budget=budget or ChaseBudget(),
        null_prefix="n",
        allow_negation=False,
        governor=resolve_governor(governor),
    )

    # Drive the engine trigger-by-trigger, mirroring each produced atom into
    # the tree.  We reuse the engine's bookkeeping but intercept additions.
    truncated = False
    while not truncated:
        if engine._limit_reason(tick=False) is not None:
            break
        triggers = engine._enumerate_triggers(None)
        if not triggers:
            break
        engine.rounds += 1
        for rule_index, rule, assignment in triggers:
            if engine._limit_reason(tick=True) is not None:
                truncated = True
                break
            before = set(engine.database.atoms())
            engine._apply(rule_index, rule, assignment)
            new_atoms = set(engine.database.atoms()) - before
            frontier_image = {assignment[v] for v in rule.frontier()}
            for atom in sorted(new_atoms):
                if atom not in tree.all_atoms():
                    tree.insert_atom(atom, frontier_image)
    return tree, engine.database


def verify_proposition2(
    tree: ChaseTree,
    theory: Theory,
    database: Database,
) -> dict[str, bool]:
    """Check the invariants (P1)–(P3) of Proposition 2 on a built tree."""
    max_arity = theory.max_arity()
    rule_constants = {
        rule.head[0].args[0]
        for rule in theory
        if rule.is_fact() and rule.head[0].arity == 1
    }
    all_rule_constants: set[Constant] = set()
    for rule in theory:
        all_rule_constants |= rule.constants()

    database_terms = set()
    for atom in database:
        database_terms |= atom.terms()

    p1 = len(tree.root.terms()) <= len(database_terms) + len(all_rule_constants)
    p2 = all(
        len(node.terms()) <= max_arity for node in tree.nodes if node is not tree.root
    )

    # P3: for every set C of terms realized by some node there is at most
    # one C-minimal node.  Checking all subsets is exponential; we check the
    # per-atom term sets and all singleton term sets, which is what the
    # constructions rely on.
    p3 = True
    candidate_sets: list[set[Term]] = []
    seen_terms: set[Term] = set()
    for node in tree.nodes:
        for atom in node.atoms:
            candidate_sets.append(atom.terms())
        seen_terms |= node.terms()
    candidate_sets.extend({term} for term in seen_terms)
    for terms in candidate_sets:
        if len(tree.minimal_nodes(terms)) > 1:
            p3 = False
            break
    return {"P1": p1, "P2": p2, "P3": p3}


def tree_decomposition(tree: ChaseTree):
    """Extract the tree decomposition ``(T, L)`` described after Prop. 2.

    Returns ``(edges, bags, width)`` where ``edges`` is a list of node-index
    pairs, ``bags`` maps node index → set of terms, and ``width`` is
    ``max |bag| - 1``."""
    edges = [
        (node.parent.index, node.index)
        for node in tree.nodes
        if node.parent is not None
    ]
    bags = {node.index: node.terms() for node in tree.nodes}
    width = max((len(bag) for bag in bags.values()), default=1) - 1
    return edges, bags, width
