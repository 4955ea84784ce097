"""Classifiers for the guardedness lattice (Definitions 1–3, Figure 1).

Per-rule predicates::

    guarded            uvars(σ) ⊆ vars(α) for some body atom α
    frontier-guarded   fvars(σ) ⊆ vars(α) for some body atom α
    weakly guarded     uvars(σ) ∩ unsafe(σ,Σ) ⊆ vars(α) for some body atom α
    weakly f-guarded   fvars(σ) ∩ unsafe(σ,Σ) ⊆ vars(α) for some body atom α
    nearly guarded     guarded, or unsafe(σ,Σ) = evars(σ) = ∅
    nearly f-guarded   frontier-guarded, or unsafe(σ,Σ) = evars(σ) = ∅

All variable sets range over *argument* variables of positive body atoms;
annotation variables are exempt (safely annotated theories carry only safe
payload there).  For stratified theories, guards are sought among positive
body atoms and ``unsafe`` is computed on the negation-free reduct
(Section 8).

The ``classify`` entry point labels a theory with every class of Figure 1
it belongs to, plus ``datalog``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.atoms import Atom
from ..core.rules import Rule
from ..core.terms import Variable
from ..core.theory import Theory
from .affected import Position, affected_positions, unsafe_variables

__all__ = [
    "GuardGap",
    "guard_gap",
    "positive_reduct",
    "guard_atoms",
    "frontier_guard_atoms",
    "frontier_guard",
    "is_guarded_rule",
    "is_frontier_guarded_rule",
    "is_weakly_guarded_rule",
    "is_weakly_frontier_guarded_rule",
    "is_nearly_guarded_rule",
    "is_nearly_frontier_guarded_rule",
    "is_guarded",
    "is_frontier_guarded",
    "is_weakly_guarded",
    "is_weakly_frontier_guarded",
    "is_nearly_guarded",
    "is_nearly_frontier_guarded",
    "Classification",
    "classify",
    "CLASS_NAMES",
]

CLASS_NAMES = (
    "datalog",
    "guarded",
    "frontier-guarded",
    "weakly-guarded",
    "weakly-frontier-guarded",
    "nearly-guarded",
    "nearly-frontier-guarded",
)


def _atoms_covering(rule: Rule, required: set[Variable]) -> list[Atom]:
    """Positive body atoms whose argument variables cover ``required``."""
    return [
        atom
        for atom in rule.positive_body()
        if required <= atom.argument_variables()
    ]


def guard_atoms(rule: Rule) -> list[Atom]:
    """All body atoms that guard the rule (cover all universal variables)."""
    return _atoms_covering(rule, _argument_uvars(rule))


def frontier_guard_atoms(rule: Rule) -> list[Atom]:
    """All body atoms covering the (argument) frontier."""
    return _atoms_covering(rule, rule.argument_frontier())


def frontier_guard(rule: Rule) -> Optional[Atom]:
    """``fg(σ)`` — an arbitrary but fixed frontier guard (Definition 1).

    We fix the lexicographically least candidate so translations are
    deterministic.  Returns None for non-frontier-guarded rules."""
    candidates = frontier_guard_atoms(rule)
    return min(candidates) if candidates else None


def _argument_uvars(rule: Rule) -> set[Variable]:
    """Universal variables occurring in argument positions of the positive
    body (annotation-only variables are exempt from guarding)."""
    result: set[Variable] = set()
    for atom in rule.positive_body():
        result |= atom.argument_variables()
    return result


def is_guarded_rule(rule: Rule) -> bool:
    required = _argument_uvars(rule)
    if not required:
        # A rule without universal variables is trivially guarded.
        return True
    return bool(_atoms_covering(rule, required))


def is_frontier_guarded_rule(rule: Rule) -> bool:
    required = rule.argument_frontier()
    if not required:
        return True
    return bool(_atoms_covering(rule, required))


def is_weakly_guarded_rule(
    rule: Rule, theory: Theory, ap: Optional[set[Position]] = None
) -> bool:
    unsafe = unsafe_variables(rule, theory, ap)
    required = _argument_uvars(rule) & unsafe
    if not required:
        return True
    return bool(_atoms_covering(rule, required))


def is_weakly_frontier_guarded_rule(
    rule: Rule, theory: Theory, ap: Optional[set[Position]] = None
) -> bool:
    unsafe = unsafe_variables(rule, theory, ap)
    required = rule.argument_frontier() & unsafe
    if not required:
        return True
    return bool(_atoms_covering(rule, required))


def is_nearly_guarded_rule(
    rule: Rule, theory: Theory, ap: Optional[set[Position]] = None
) -> bool:
    if is_guarded_rule(rule):
        return True
    return not rule.exist_vars and not unsafe_variables(rule, theory, ap)


def is_nearly_frontier_guarded_rule(
    rule: Rule, theory: Theory, ap: Optional[set[Position]] = None
) -> bool:
    if is_frontier_guarded_rule(rule):
        return True
    return not rule.exist_vars and not unsafe_variables(rule, theory, ap)


def positive_reduct(theory: Theory) -> Theory:
    """Drop negative literals — unsafe variables are defined on this reduct
    for stratified theories (Section 8)."""
    if not theory.has_negation():
        return theory
    return theory.map_rules(
        lambda rule: Rule(rule.positive_body(), rule.head, rule.exist_vars)
    )


@dataclass(frozen=True)
class GuardGap:
    """Why no single body atom guards a required variable set.

    ``required`` is the variable set a guard would have to cover;
    ``per_atom_missing`` lists, for every positive body atom, the required
    variables it fails to contain.  The gap is machine-checkable: each
    atom's ``missing`` entry must be non-empty, and re-deriving the
    missing set from the rule must reproduce it.
    """

    required: tuple[str, ...]
    per_atom_missing: tuple[tuple[str, tuple[str, ...]], ...]

    def to_dict(self) -> dict:
        return {
            "required": list(self.required),
            "atoms": [
                {"atom": atom, "missing": list(missing)}
                for atom, missing in self.per_atom_missing
            ],
        }


def guard_gap(rule: Rule, required: set[Variable]) -> Optional[GuardGap]:
    """Explanation variant of the ``_atoms_covering`` guard checks.

    Returns ``None`` when some positive body atom covers ``required``
    (or the set is empty — trivially guarded); otherwise a
    :class:`GuardGap` recording, per body atom, which required variables
    it misses."""
    if not required:
        return None
    if _atoms_covering(rule, required):
        return None
    per_atom = tuple(
        (
            str(atom),
            tuple(sorted(v.name for v in required - atom.argument_variables())),
        )
        for atom in rule.positive_body()
    )
    return GuardGap(tuple(sorted(v.name for v in required)), per_atom)


def is_guarded(theory: Theory) -> bool:
    return all(is_guarded_rule(rule) for rule in theory)


def is_frontier_guarded(theory: Theory) -> bool:
    return all(is_frontier_guarded_rule(rule) for rule in theory)


def is_weakly_guarded(theory: Theory) -> bool:
    reduct = positive_reduct(theory)
    ap = affected_positions(reduct)
    return all(is_weakly_guarded_rule(rule, reduct, ap) for rule in theory)


def is_weakly_frontier_guarded(theory: Theory) -> bool:
    reduct = positive_reduct(theory)
    ap = affected_positions(reduct)
    return all(is_weakly_frontier_guarded_rule(rule, reduct, ap) for rule in theory)


def is_nearly_guarded(theory: Theory) -> bool:
    reduct = positive_reduct(theory)
    ap = affected_positions(reduct)
    return all(is_nearly_guarded_rule(rule, reduct, ap) for rule in theory)


def is_nearly_frontier_guarded(theory: Theory) -> bool:
    reduct = positive_reduct(theory)
    ap = affected_positions(reduct)
    return all(is_nearly_frontier_guarded_rule(rule, reduct, ap) for rule in theory)


@dataclass(frozen=True)
class Classification:
    """Membership of a theory in each class of Figure 1."""

    datalog: bool
    guarded: bool
    frontier_guarded: bool
    weakly_guarded: bool
    weakly_frontier_guarded: bool
    nearly_guarded: bool
    nearly_frontier_guarded: bool

    def names(self) -> tuple[str, ...]:
        labels = []
        if self.datalog:
            labels.append("datalog")
        if self.guarded:
            labels.append("guarded")
        if self.frontier_guarded:
            labels.append("frontier-guarded")
        if self.weakly_guarded:
            labels.append("weakly-guarded")
        if self.weakly_frontier_guarded:
            labels.append("weakly-frontier-guarded")
        if self.nearly_guarded:
            labels.append("nearly-guarded")
        if self.nearly_frontier_guarded:
            labels.append("nearly-frontier-guarded")
        return tuple(labels)


def classify(theory: Theory) -> Classification:
    """Label a theory with every Figure-1 class it syntactically belongs to."""
    reduct = positive_reduct(theory)
    ap = affected_positions(reduct)
    return Classification(
        datalog=theory.is_datalog(),
        guarded=is_guarded(theory),
        frontier_guarded=is_frontier_guarded(theory),
        weakly_guarded=all(
            is_weakly_guarded_rule(rule, reduct, ap) for rule in theory
        ),
        weakly_frontier_guarded=all(
            is_weakly_frontier_guarded_rule(rule, reduct, ap) for rule in theory
        ),
        nearly_guarded=all(
            is_nearly_guarded_rule(rule, reduct, ap) for rule in theory
        ),
        nearly_frontier_guarded=all(
            is_nearly_frontier_guarded_rule(rule, reduct, ap) for rule in theory
        ),
    )
