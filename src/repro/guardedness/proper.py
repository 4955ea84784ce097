"""Proper theories (Definition 16).

A weakly frontier-guarded theory is *proper* when, in every relation, the
affected positions form a prefix: ``(R, i) ∉ ap(Σ)`` implies
``(R, i+1) ∉ ap(Σ)``.  Any theory becomes proper by permuting argument
positions relation by relation; the permutations must also be applied to
databases before querying and undone on output atoms.

This module computes the per-relation permutations, applies them to
theories, databases and atoms, and exposes the inverse transformation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.atoms import Atom
from ..core.database import Database
from ..core.rules import Rule
from ..core.theory import Theory
from .affected import Position, affected_positions

__all__ = ["ProperForm", "make_proper", "is_proper"]


@dataclass(frozen=True)
class ProperForm:
    """A properised theory plus the permutations that produced it.

    ``permutations[R][j] = i`` means: position ``j`` of the proper relation
    holds what position ``i`` of the original relation held."""

    theory: Theory
    permutations: Mapping[str, tuple[int, ...]]

    # ------------------------------------------------------------------
    def apply_to_atom(self, atom: Atom) -> Atom:
        permutation = self.permutations.get(atom.relation)
        if permutation is None:
            return atom
        return Atom(
            atom.relation,
            tuple(atom.args[i] for i in permutation),
            atom.annotation,
        )

    def undo_on_atom(self, atom: Atom) -> Atom:
        permutation = self.permutations.get(atom.relation)
        if permutation is None:
            return atom
        restored: list = [None] * len(permutation)
        for new_index, old_index in enumerate(permutation):
            restored[old_index] = atom.args[new_index]
        return Atom(atom.relation, tuple(restored), atom.annotation)

    def apply_to_database(self, database: Database) -> Database:
        return Database(self.apply_to_atom(atom) for atom in database)

    def undo_on_database(self, database: Database) -> Database:
        return Database(self.undo_on_atom(atom) for atom in database)


def _permute_rule(rule: Rule, permutations: Mapping[str, tuple[int, ...]]) -> Rule:
    def convert(atom: Atom) -> Atom:
        permutation = permutations.get(atom.relation)
        if permutation is None:
            return atom
        return Atom(
            atom.relation,
            tuple(atom.args[i] for i in permutation),
            atom.annotation,
        )

    body = tuple(
        literal.__class__(convert(literal.atom))
        if hasattr(literal, "atom")
        else convert(literal)
        for literal in rule.body
    )
    head = tuple(convert(atom) for atom in rule.head)
    return Rule(body, head, rule.exist_vars)


def make_proper(theory: Theory, ap: set[Position] | None = None) -> ProperForm:
    """Reorder relation positions so affected positions form a prefix.

    The reordering is stable: affected positions keep their relative order,
    then non-affected positions keep theirs (the paper's log-space
    transformation).  ``ap`` overrides the affected-position set (used with
    the coherent closure by the Theorem 2 translation)."""
    if ap is None:
        ap = affected_positions(theory)
    permutations: dict[str, tuple[int, ...]] = {}
    for name, arity, _annot in sorted(theory.relation_keys()):
        affected = [i for i in range(arity) if (name, i) in ap]
        unaffected = [i for i in range(arity) if (name, i) not in ap]
        order = tuple(affected + unaffected)
        if order != tuple(range(arity)):
            permutations[name] = order
    permuted = Theory(_permute_rule(rule, permutations) for rule in theory)
    return ProperForm(permuted, permutations)


def is_proper(theory: Theory, ap: set[Position] | None = None) -> bool:
    """Definition 16 check."""
    if ap is None:
        ap = affected_positions(theory)
    for name, arity, _annot in theory.relation_keys():
        seen_unaffected = False
        for index in range(arity):
            if (name, index) in ap:
                if seen_unaffected:
                    return False
            else:
                seen_unaffected = True
    return True
