"""Homomorphism search.

Homomorphisms (Section 2) map constants to themselves and variables/nulls
to database terms such that every atom of the source maps into the target.
They are the single primitive behind:

* chase trigger enumeration (rule body → database),
* rule-satisfaction checks (``D`` satisfies ``σ``),
* conjunctive query evaluation,
* universality checks between chase results.

Two implementations share this module's public surface:

* the **compiled** path (default): :func:`homomorphisms` compiles the
  pattern once into a :class:`repro.core.plan.JoinPlan` (cached per
  pattern/adornment/forced-index) and runs its slot-based executor — no
  per-candidate dict copies, no per-step re-planning;
* the **naive** interpreter (:func:`naive_homomorphisms`): a backtracking
  join over the database's positional indexes where atoms are ordered
  greedily at each step (most bound positions first).  It is the
  reference implementation the compiled path is differentially tested
  against, and the ``REPRO_NAIVE_JOIN=1`` environment variable routes
  :func:`homomorphisms` and the Datalog rule executors
  (:func:`repro.core.plan.derive_rule_rows`) back to it.

Both enumerate the same assignment *set*; enumeration order is
unspecified (the interpreter iterates hash sets).

Two term conventions:

* in *patterns* (rule bodies, CQs) variables are free, constants are fixed
  points and nulls are fixed points;
* :func:`database_homomorphism` lifts a whole database to a pattern by
  treating its nulls as variables — this is the paper's notion of
  homomorphism between solutions.

The built-in ``ACDom`` relation is virtual: an ``ACDom(t)`` pattern atom is
satisfied when ``t`` is bound to an active-domain constant of the target
database, and binds a free variable to every active-domain constant.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .atoms import Atom, NegatedAtom
from .database import Database
from .plan import _naive_requested, cached_plan, execute_plan
from .store import ColumnDelta
from .terms import Constant, Null, Term, Variable
from .theory import ACDOM
from ..obs.runtime import current as _obs_current

__all__ = [
    "homomorphisms",
    "naive_homomorphisms",
    "first_homomorphism",
    "has_homomorphism",
    "extends_to_head",
    "satisfies_rule",
    "database_homomorphism",
    "databases_homomorphically_equivalent",
]

Assignment = dict[Variable, Term]

_EMPTY_KEYS: frozenset[Variable] = frozenset()


def _is_acdom(atom: Atom) -> bool:
    return atom.relation == ACDOM


def _bound_positions(atom: Atom, assignment: Mapping[Variable, Term]) -> dict[int, Term]:
    """Positions of the atom already fixed by constants, nulls, or bindings."""
    bound: dict[int, Term] = {}
    for position, term in enumerate(atom.all_terms):
        if isinstance(term, Variable):
            value = assignment.get(term)
            if value is not None:
                bound[position] = value
        else:
            bound[position] = term
    return bound


def _select_next(
    remaining: list[int],
    atoms: Sequence[Atom],
    assignment: Assignment,
) -> int:
    """Pick the most constrained remaining atom (most bound positions).

    ACDom atoms are deferred until at least one of their variables is bound,
    unless nothing else is left (they then enumerate the active domain).
    """
    best_index = None
    best_score = None
    for idx in remaining:
        atom = atoms[idx]
        bound = len(_bound_positions(atom, assignment))
        total = len(atom.all_terms)
        acdom_penalty = 1 if (_is_acdom(atom) and bound == 0) else 0
        # Higher bound ratio first; fewer total positions breaks ties.
        score = (acdom_penalty, -(bound + 1) / (total + 1), total)
        if best_score is None or score < best_score:
            best_score = score
            best_index = idx
    assert best_index is not None
    return best_index


def _match_atom(
    atom: Atom,
    database: Database,
    assignment: Assignment,
) -> Iterator[Assignment]:
    """Yield extensions of ``assignment`` matching ``atom`` in ``database``."""
    if _is_acdom(atom):
        yield from _match_acdom(atom, database, assignment)
        return
    bound = _bound_positions(atom, assignment)
    for candidate in database.atoms_matching(atom.relation_key, bound):
        extension = _unify(atom, candidate, assignment)
        if extension is not None:
            yield extension


def _match_acdom(
    atom: Atom,
    database: Database,
    assignment: Assignment,
) -> Iterator[Assignment]:
    if len(atom.args) != 1 or atom.annotation:
        raise ValueError(f"ACDom is unary, got {atom}")
    term = atom.args[0]
    if isinstance(term, Variable):
        value = assignment.get(term)
        if value is None:
            for constant in database.acdom_sorted():
                extension = dict(assignment)
                extension[term] = constant
                yield extension
            return
        term = value
    if isinstance(term, Constant) and term in database.active_constants():
        yield dict(assignment)


def _unify(pattern: Atom, fact: Atom, assignment: Assignment) -> Optional[Assignment]:
    extension = dict(assignment)
    for pattern_term, fact_term in zip(pattern.all_terms, fact.all_terms):
        if isinstance(pattern_term, Variable):
            bound = extension.get(pattern_term)
            if bound is None:
                extension[pattern_term] = fact_term
            elif bound != fact_term:
                return None
        elif pattern_term != fact_term:
            return None
    return extension


def homomorphisms(
    pattern: Sequence[Atom],
    database: Database,
    *,
    partial: Optional[Mapping[Variable, Term]] = None,
    forced: Optional[tuple[int, Iterable[Atom]]] = None,
) -> Iterator[Assignment]:
    """Enumerate homomorphisms from ``pattern`` (positive atoms) into ``database``.

    ``partial`` pre-binds variables.  ``forced = (index, atoms)`` restricts
    the pattern atom at ``index`` to match one of the given facts — the
    semi-naive evaluation uses this to pin one atom to the delta relation.

    Dispatches to the compiled :class:`~repro.core.plan.JoinPlan` executor
    (plans cached across calls); set ``REPRO_NAIVE_JOIN=1`` to fall back to
    the :func:`naive_homomorphisms` reference interpreter.
    """
    obs = _obs_current()
    if obs is not None:
        obs.inc("homomorphism_calls")
    if _naive_requested():
        yield from naive_homomorphisms(
            pattern, database, partial=partial, forced=forced
        )
        return
    atoms = tuple(pattern)
    adornment_key = frozenset(partial.keys()) if partial else _EMPTY_KEYS
    if forced is not None:
        forced_index, forced_atoms = forced
        plan = cached_plan(atoms, adornment_key, forced_index)
        yield from execute_plan(plan, database, partial, forced_atoms)
    else:
        plan = cached_plan(atoms, adornment_key, None)
        yield from execute_plan(plan, database, partial)


def naive_homomorphisms(
    pattern: Sequence[Atom],
    database: Database,
    *,
    partial: Optional[Mapping[Variable, Term]] = None,
    forced: Optional[tuple[int, Iterable[Atom]]] = None,
) -> Iterator[Assignment]:
    """The reference interpreter behind :func:`homomorphisms`.

    Re-plans the pattern dynamically at every search step and copies the
    assignment dict per candidate — simple, obviously correct, slow.  Kept
    as the differential-testing oracle; it counts nothing (the
    dispatchers count ``homomorphism_calls``).  Forced facts
    may be atoms or the Datalog engine's encoded
    :class:`~repro.core.store.ColumnDelta` row blocks, as for the
    compiled executors.
    """
    atoms = list(pattern)
    assignment: Assignment = dict(partial) if partial else {}

    if forced is not None:
        forced_index, forced_atoms = forced
        forced_atom = atoms[forced_index]
        rest = [i for i in range(len(atoms)) if i != forced_index]
        for fact in _decoded(forced_atoms, database):
            if fact.relation_key != forced_atom.relation_key:
                continue
            seed = _unify(forced_atom, fact, assignment)
            if seed is None:
                continue
            yield from _search(rest, atoms, database, seed)
        return

    yield from _search(list(range(len(atoms))), atoms, database, assignment)


def _decoded(facts, database: Database) -> Iterator[Atom]:
    for item in facts:
        if type(item) is ColumnDelta:
            yield from item.decode(database)
        else:
            yield item


def _search(
    remaining: list[int],
    atoms: Sequence[Atom],
    database: Database,
    assignment: Assignment,
) -> Iterator[Assignment]:
    if not remaining:
        yield assignment
        return
    index = _select_next(remaining, atoms, assignment)
    rest = [i for i in remaining if i != index]
    for extension in _match_atom(atoms[index], database, assignment):
        yield from _search(rest, atoms, database, extension)


def first_homomorphism(
    pattern: Sequence[Atom],
    database: Database,
    *,
    partial: Optional[Mapping[Variable, Term]] = None,
) -> Optional[Assignment]:
    for assignment in homomorphisms(pattern, database, partial=partial):
        return assignment
    return None


def has_homomorphism(
    pattern: Sequence[Atom],
    database: Database,
    *,
    partial: Optional[Mapping[Variable, Term]] = None,
) -> bool:
    return first_homomorphism(pattern, database, partial=partial) is not None


def extends_to_head(
    rule_head: Sequence[Atom],
    exist_vars: Iterable[Variable],
    database: Database,
    assignment: Mapping[Variable, Term],
) -> bool:
    """Does ``assignment`` (on the rule's universal variables) extend to a
    homomorphism of the head into ``database``?

    This is the satisfaction condition of Section 2: for every body
    homomorphism ``h`` there must be a head homomorphism ``h'`` agreeing
    with ``h`` on the universal variables.
    """
    evars = set(exist_vars)
    if evars:
        frozen = {
            variable: term
            for variable, term in assignment.items()
            if variable not in evars
        }
    else:
        # Existential-free head: when the assignment instantiates every
        # head variable the check degenerates to plain membership — no
        # join needed.
        frozen = dict(assignment)
        if all(
            variable in frozen
            for atom in rule_head
            for variable in atom.variables()
        ):
            return all(
                atom.substitute(frozen) in database for atom in rule_head
            )
    return has_homomorphism(tuple(rule_head), database, partial=frozen)


def satisfies_rule(database: Database, rule) -> bool:
    """Check ``D |= σ`` for a positive rule (negation not supported here)."""
    body = [literal for literal in rule.body if isinstance(literal, Atom)]
    if any(isinstance(literal, NegatedAtom) for literal in rule.body):
        raise ValueError("satisfies_rule only supports positive rules")
    for assignment in homomorphisms(body, database):
        if not extends_to_head(rule.head, rule.exist_vars, database, assignment):
            return False
    return True


def _database_as_pattern(database: Database) -> tuple[list[Atom], dict[Null, Variable]]:
    """Convert a database into a pattern with nulls replaced by variables."""
    null_vars: dict[Null, Variable] = {}
    for index, null in enumerate(sorted(database.nulls(), key=lambda n: n.name)):
        null_vars[null] = Variable(f"__null_{index}")
    mapping: dict[Term, Term] = dict(null_vars)
    pattern = [atom.substitute(mapping) for atom in database]
    return pattern, null_vars


def database_homomorphism(
    source: Database, target: Database
) -> Optional[dict[Term, Term]]:
    """A homomorphism from ``source`` into ``target`` (nulls are flexible).

    Returns a mapping defined on the source's nulls (constants are fixed
    points and omitted), or None if no homomorphism exists.  This realizes
    the paper's ``chase(Σ,D) ⊆ chase(Σ',D')`` notation.
    """
    pattern, null_vars = _database_as_pattern(source)
    assignment = first_homomorphism(pattern, target)
    if assignment is None:
        return None
    return {null: assignment[var] for null, var in null_vars.items() if var in assignment}


def databases_homomorphically_equivalent(left: Database, right: Database) -> bool:
    """``chase(Σ,D) = chase(Σ',D')`` in the paper's notation."""
    return (
        database_homomorphism(left, right) is not None
        and database_homomorphism(right, left) is not None
    )
