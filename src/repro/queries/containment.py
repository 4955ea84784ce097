"""Conjunctive-query containment and equivalence.

Classic Chandra–Merlin: ``q1 ⊆ q2`` iff there is a homomorphism from
``q2`` into the *canonical database* of ``q1`` mapping answer variables to
answer variables pointwise.  Used by the expressiveness experiments to
compare query reformulations, and generally handy next to a CQ type.
"""

from __future__ import annotations

from ..core.database import Database
from ..core.homomorphism import first_homomorphism
from ..core.terms import Null, Term, Variable
from .cq import ConjunctiveQuery

__all__ = ["canonical_database", "cq_contained_in", "cq_equivalent", "minimize_cq"]


def canonical_database(cq: ConjunctiveQuery) -> tuple[Database, dict[Variable, Term]]:
    """Freeze the query: variables become fresh labeled nulls.

    Returns the database and the variable → frozen-term mapping."""
    frozen: dict[Variable, Term] = {}
    for index, variable in enumerate(
        sorted(
            {v for atom in cq.atoms for v in atom.variables()},
            key=lambda v: v.name,
        )
    ):
        frozen[variable] = Null(f"frz{index}")
    atoms = [atom.substitute(dict(frozen)) for atom in cq.atoms]
    return Database(atoms), frozen


def cq_contained_in(first: ConjunctiveQuery, second: ConjunctiveQuery) -> bool:
    """``first ⊆ second`` — every answer of ``first`` is one of ``second``
    on every database (Chandra–Merlin)."""
    if first.arity != second.arity:
        raise ValueError("containment requires equal arities")
    frozen_db, frozen = canonical_database(first)
    # answer variables must map pointwise onto the frozen answer tuple;
    # a repeated variable in `second` must receive a consistent image
    bound: dict[Variable, Term] = {}
    for second_var, first_var in zip(
        second.answer_variables, first.answer_variables
    ):
        target = frozen[first_var]
        if bound.get(second_var, target) != target:
            return False
        bound[second_var] = target
    assignment = first_homomorphism(second.atoms, frozen_db, partial=bound)
    return assignment is not None


def cq_equivalent(first: ConjunctiveQuery, second: ConjunctiveQuery) -> bool:
    return cq_contained_in(first, second) and cq_contained_in(second, first)


def minimize_cq(cq: ConjunctiveQuery) -> ConjunctiveQuery:
    """A minimal equivalent CQ (drop atoms while equivalence holds).

    The result is the query's core up to renaming — the canonical form
    for equivalence checks."""
    atoms = list(cq.atoms)
    changed = True
    while changed:
        changed = False
        for index in range(len(atoms)):
            candidate_atoms = atoms[:index] + atoms[index + 1 :]
            if not candidate_atoms:
                continue
            try:
                candidate = ConjunctiveQuery(cq.answer_variables, tuple(candidate_atoms))
            except ValueError:
                continue  # dropping the atom would unbind an answer variable
            if cq_equivalent(cq, candidate):
                atoms = candidate_atoms
                changed = True
                break
    return ConjunctiveQuery(cq.answer_variables, tuple(atoms))
