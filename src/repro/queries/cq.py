"""Conjunctive queries over knowledge bases (Section 7).

A knowledge-base query is ``(Σ ∪ {α → Q(~x)}, Q)`` where ``Σ`` is a weakly
frontier-guarded theory, ``α`` a conjunction of atoms and ``~x`` the
answer variables.  The rule ``α → Q(~x)`` need not be weakly
frontier-guarded; the paper's ``ACDom`` padding makes it so::

    α ∧ ACDom(x1) ∧ … ∧ ACDom(xn) → Q(x1, …, xn)

because every ``xi`` then has a non-affected body position and is safe.
This module provides the CQ data type, the padding construction, and
direct CQ evaluation against a database (homomorphism semantics).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.atoms import Atom
from ..core.database import Database
from ..core.homomorphism import homomorphisms
from ..core.rules import Rule
from ..core.terms import Term, Variable
from ..core.theory import ACDOM, Query, Theory

__all__ = ["ConjunctiveQuery", "cq_to_rule", "knowledge_base_query", "evaluate_cq"]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``q(~x) ← α`` — answer variables plus a conjunction of atoms."""

    answer_variables: tuple[Variable, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        body_variables: set[Variable] = set()
        for atom in self.atoms:
            body_variables |= atom.variables()
        missing = set(self.answer_variables) - body_variables
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise ValueError(f"unsafe answer variables: {names}")

    @property
    def arity(self) -> int:
        return len(self.answer_variables)

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.answer_variables)
        body = ", ".join(str(atom) for atom in self.atoms)
        return f"q({head}) <- {body}"


def cq_to_rule(
    cq: ConjunctiveQuery, output: str, *, pad_acdom: bool = True
) -> Rule:
    """Turn a CQ into the rule ``α ∧ ACDom(~x) → Q(~x)`` (Section 7).

    The padding makes the rule weakly frontier-guarded in any theory — all
    answer variables become safe."""
    body: list[Atom] = list(cq.atoms)
    if pad_acdom:
        body.extend(Atom(ACDOM, (v,)) for v in cq.answer_variables)
    return Rule(tuple(body), (Atom(output, cq.answer_variables),))


def knowledge_base_query(
    theory: Theory,
    cq: ConjunctiveQuery,
    *,
    output: str = "QueryOut",
) -> Query:
    """Assemble ``(Σ ∪ {α ∧ ACDom(~x) → Q(~x)}, Q)``."""
    if output in theory.relations():
        raise ValueError(f"output relation {output} already used by Σ")
    extended = theory.extend([cq_to_rule(cq, output)])
    return Query(extended, output)


def evaluate_cq(
    cq: ConjunctiveQuery, database: Database
) -> set[tuple[Term, ...]]:
    """Direct CQ evaluation (no rules): all homomorphism images of the
    answer tuple — including nulls; filter if certain answers are meant."""
    results: set[tuple[Term, ...]] = set()
    # cq.atoms is passed as the tuple it already is — repeated evaluations
    # of the same query hit the same cached join plan.
    for assignment in homomorphisms(cq.atoms, database):
        results.add(tuple(assignment[v] for v in cq.answer_variables))
    return results
