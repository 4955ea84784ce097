"""Cores of databases with nulls.

The *core* of a database is its smallest retract: a homomorphically
equivalent sub-database with no proper endomorphism into itself.  Cores
are the canonical representatives of homomorphic-equivalence classes —
two chase results represent the same certain knowledge iff their cores
are isomorphic.  The paper compares chases "up to homomorphic
equivalence" throughout; cores make those comparisons canonical and keep
oblivious-chase results small.

Computing cores is NP-hard in general; the implementation below is the
standard greedy folding loop (try to map each null onto another term,
retract, repeat), exact and fine at test scale.
"""

from __future__ import annotations

from typing import Optional

from ..core.database import Database
from ..core.homomorphism import first_homomorphism
from ..core.terms import Null, Term, Variable
from ..robustness.errors import ConvergenceError

__all__ = ["core_of", "is_core", "cores_isomorphic"]


def _fold(database: Database, victim: Null) -> Optional[dict[Term, Term]]:
    """A *shrinking* endomorphism eliminating ``victim``: the victim maps
    to a different term while every other null is fixed.  Fixing the
    others guarantees the image is a proper sub-database, so the greedy
    loop strictly shrinks."""
    nulls = sorted(database.nulls(), key=lambda n: n.name)
    variables = {null: Variable(f"__core_{i}") for i, null in enumerate(nulls)}
    pattern = [atom.substitute(dict(variables)) for atom in database]

    fixed: dict[Variable, Term] = {
        variables[null]: null for null in nulls if null != victim
    }
    victim_var = variables[victim]
    candidates = sorted(
        (term for term in database.terms() if term != victim),
        key=str,
    )
    for candidate in candidates:
        partial = dict(fixed)
        partial[victim_var] = candidate
        assignment = first_homomorphism(pattern, database, partial=partial)
        if assignment is not None:
            return {
                null: assignment[var]
                for null, var in variables.items()
                if var in assignment
            }
    return None


def _shrinking_endomorphism(database: Database) -> Optional[dict[Term, Term]]:
    """Fallback for folds that must move several nulls at once: any
    endomorphism whose image misses some null."""
    from ..core.homomorphism import homomorphisms

    nulls = sorted(database.nulls(), key=lambda n: n.name)
    variables = {null: Variable(f"__core_{i}") for i, null in enumerate(nulls)}
    pattern = [atom.substitute(dict(variables)) for atom in database]
    null_set = set(nulls)
    for assignment in homomorphisms(pattern, database):
        image = {assignment[variables[null]] for null in nulls}
        if not null_set <= image:
            return {null: assignment[variables[null]] for null in nulls}
    return None


def core_of(database: Database, max_iterations: int = 10_000) -> Database:
    """The core of a database (greedy folding + shrinking fallback; exact).

    ``max_iterations`` bounds the number of folds; each fold eliminates at
    least one null, so ``database.nulls()`` folds always suffice — the
    bound only trips on genuinely pathological inputs (or when set low on
    purpose), raising :class:`~repro.robustness.errors.ConvergenceError`
    (a ``RuntimeError``)."""
    current = database.copy()
    for _ in range(max_iterations):
        mapping = None
        for victim in sorted(current.nulls(), key=lambda n: n.name):
            mapping = _fold(current, victim)
            if mapping is not None:
                break
        if mapping is None:
            mapping = _shrinking_endomorphism(current)
        if mapping is None:
            return current
        current = Database(atom.substitute(dict(mapping)) for atom in current)
    raise ConvergenceError(
        f"core computation did not converge within {max_iterations} folds "
        f"({len(current.nulls())} nulls remaining)"
    )


def is_core(database: Database) -> bool:
    """No shrinking endomorphism exists."""
    for victim in sorted(database.nulls(), key=lambda n: n.name):
        if _fold(database, victim) is not None:
            return False
    return _shrinking_endomorphism(database) is None


def cores_isomorphic(left: Database, right: Database) -> bool:
    """Homomorphic equivalence via cores: equivalent databases have
    isomorphic cores; for cores, mutual homomorphisms imply isomorphism."""
    from ..core.homomorphism import database_homomorphism

    left_core = core_of(left)
    right_core = core_of(right)
    if len(left_core) != len(right_core):
        return False
    return (
        database_homomorphism(left_core, right_core) is not None
        and database_homomorphism(right_core, left_core) is not None
    )
