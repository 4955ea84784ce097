"""Semi-naive bottom-up Datalog evaluation with stratified negation.

This is the target runtime for the paper's translations: every PTime
fragment compiles to plain Datalog (Theorems 1–3) which this engine
evaluates in polynomial time in the database.

Evaluation is stratum by stratum.  Within a stratum, rules whose bodies
mention relations defined in the same stratum are iterated semi-naively:
each iteration forces one such body atom to match the *delta* (atoms new
in the previous iteration) while the remaining atoms match the full
database.  Negated literals always refer to lower strata (or EDB), whose
extensions are already final, so a simple absence check is sound.

The built-in ``ACDom`` relation is handled virtually by the homomorphism
layer; its extension is the (frozen) active constant domain of the input
database.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext
from typing import Optional

from ..core.atoms import Atom
from ..core.database import Database
from ..core.homomorphism import _naive_requested, homomorphisms
from ..core.plan import derive_rule_rows
from ..core.store import ColumnDelta
from ..core.rules import Rule
from ..core.terms import Constant
from ..core.theory import Query, Theory
from ..obs.runtime import current as _obs_current
from ..robustness.errors import InvalidTheoryError, exhausted_error
from ..robustness.governor import ResourceGovernor, resolve_governor
from ..robustness.outcome import Outcome
from .stratification import Stratification, stratify

__all__ = ["evaluate", "try_evaluate", "datalog_answers", "DatalogError"]


class DatalogError(InvalidTheoryError):
    """Raised when a program is not plain (stratified) Datalog."""


def _check_program(program: Theory) -> None:
    for rule in program:
        if not rule.is_datalog():
            raise DatalogError(
                f"existential rule in a Datalog program: {rule}"
            )


def _negation_satisfied(rule: Rule, assignment, database: Database) -> bool:
    for negated in rule.negative_body():
        if negated.atom.substitute(assignment) in database:
            return False
    return True


def _fire(
    rule: Rule,
    assignment,
    database: Database,
    new_atoms: set[Atom],
) -> None:
    for atom in rule.head:
        grounded = atom.substitute(assignment)
        if grounded not in database:
            new_atoms.add(grounded)


def _tick(
    governor: Optional[ResourceGovernor],
    iterations: int,
    max_iterations: Optional[int],
) -> Optional[str]:
    """One fixpoint iteration: returns the exhaustion reason or ``None``."""
    if max_iterations is not None and iterations > max_iterations:
        return "max_iterations"
    if governor is not None:
        return governor.tick()
    return None


def _ingest_mixed(
    database: Database, staged: dict, delta: set[Atom]
) -> tuple[dict[str, list], int]:
    """Add one iteration's derivations: staged ID rows (from the
    row-path rule executors) and boxed atoms (from the assignment path).

    Marks every touched relation before mutating, applies both payloads
    (each deduplicates against the relation), and returns the delta
    grouped by relation *name* for delta pinning, plus the number of
    genuinely new facts.  Each group is a list of
    :class:`~repro.core.store.ColumnDelta` row blocks obtained by an
    ordinal **range scan**: rows are append-only and deduplicated, so
    the facts added this iteration are exactly the ordinals
    ``[mark, n_rows)`` of each touched relation — no re-boxing, and the
    join executor consumes the encoded rows directly."""
    marks: dict = {}
    for key in staged:
        marks[key] = database.relation_size(key)
    for atom in delta:
        key = atom.relation_key
        if key not in marks:
            marks[key] = database.relation_size(key)
    added = 0
    add_row = database._add_row
    for key, rows in staged.items():
        for row in rows:
            if add_row(key, row):
                added += 1
    for atom in delta:
        if database.add(atom):
            added += 1
    groups: dict[str, list] = defaultdict(list)
    for key, mark in marks.items():
        relation = database._relations.get(key)
        if relation is None:
            continue
        rows = relation.rows_between(mark, relation.n_rows)
        if rows:
            groups[key[0]].append(ColumnDelta(key, rows))
    return groups, added


def _evaluate_stratum(
    stratum: Theory,
    database: Database,
    obs=None,
    governor: Optional[ResourceGovernor] = None,
    max_iterations: Optional[int] = None,
) -> Optional[str]:
    """Evaluate one stratum to fixpoint, mutating ``database``.

    Returns the exhaustion reason if a governor or iteration budget cut
    the stratum short (the database then holds a sound prefix of the
    fixpoint), ``None`` on a reached fixpoint."""
    defined_here = {atom.relation for rule in stratum for atom in rule.head}
    iterations = 1
    reason = _tick(governor, iterations, max_iterations)
    if reason is not None:
        return reason

    # Bodies are computed once per stratum: the same tuple objects feed
    # every fixpoint iteration, so the join-plan cache is keyed stably.
    bodies: list[tuple[Atom, ...]] = [
        tuple(rule.positive_body()) for rule in stratum
    ]

    # Negation-free rules fire through compiled ID-space executors:
    # head rows are staged encoded, and nothing is boxed until a caller
    # decodes.  Negation rules (they must consult the boxed membership
    # of lower strata mid-match), instrumented runs, and
    # REPRO_NAIVE_JOIN reference runs keep the assignment path.
    row_path = obs is None and not _naive_requested()
    in_rows = [
        row_path and not rule.negative_body() for rule in stratum
    ]
    heads: list[tuple[Atom, ...]] = [tuple(rule.head) for rule in stratum]

    # Initial round: every rule fires against the full database.
    staged: dict = {}
    delta: set[Atom] = set()
    for rule_index, (rule, body) in enumerate(zip(stratum, bodies)):
        if in_rows[rule_index]:
            derive_rule_rows(body, heads[rule_index], database, None, staged)
        else:
            for assignment in homomorphisms(body, database):
                if _negation_satisfied(rule, assignment, database):
                    _fire(rule, assignment, database, delta)
    delta_groups, added = _ingest_mixed(database, staged, delta)
    if obs is not None:
        obs.observe("delta_size", added)
        obs.inc("atoms_derived", added)

    # Precompute, per rule, the body-atom indices matching this stratum's
    # IDB relations — the candidates for delta pinning.
    recursive_rules: list[tuple] = []
    for rule_index, (rule, body) in enumerate(zip(stratum, bodies)):
        indices = [
            index
            for index, atom in enumerate(body)
            if atom.relation in defined_here
        ]
        if indices:
            recursive_rules.append(
                (rule, body, indices, in_rows[rule_index], heads[rule_index])
            )

    while delta_groups:
        iterations += 1
        reason = _tick(governor, iterations, max_iterations)
        if reason is not None:
            return reason
        staged = {}
        next_delta: set[Atom] = set()
        for rule, body, indices, use_rows, rule_heads in recursive_rules:
            for index in indices:
                candidates = delta_groups.get(body[index].relation)
                if not candidates:
                    continue
                if use_rows:
                    derive_rule_rows(
                        body, rule_heads, database, (index, candidates), staged
                    )
                    continue
                for assignment in homomorphisms(
                    body, database, forced=(index, candidates)
                ):
                    if _negation_satisfied(rule, assignment, database):
                        _fire(rule, assignment, database, next_delta)
        delta_groups, added = _ingest_mixed(database, staged, next_delta)
        if obs is not None:
            obs.observe("delta_size", added)
            obs.inc("atoms_derived", added)
    return None


def _evaluate_stratum_naive(
    stratum: Theory,
    database: Database,
    obs=None,
    governor: Optional[ResourceGovernor] = None,
    max_iterations: Optional[int] = None,
) -> Optional[str]:
    """Reference naive evaluation: fire every rule against the full
    database until nothing changes.  Quadratically slower than semi-naive
    on recursive programs — kept for the ablation benchmark and as a
    correctness oracle."""
    changed = True
    iterations = 0
    while changed:
        iterations += 1
        reason = _tick(governor, iterations, max_iterations)
        if reason is not None:
            return reason
        changed = False
        new_atoms: set[Atom] = set()
        for rule in stratum:
            body = tuple(rule.positive_body())
            for assignment in homomorphisms(body, database):
                if _negation_satisfied(rule, assignment, database):
                    _fire(rule, assignment, database, new_atoms)
        added = 0
        for atom in new_atoms:
            if database.add(atom):
                changed = True
                added += 1
        if obs is not None:
            obs.observe("delta_size", added)
            obs.inc("atoms_derived", added)
    return None


def try_evaluate(
    program: Theory,
    database: Database,
    *,
    stratification: Optional[Stratification] = None,
    strategy: str = "seminaive",
    governor: Optional[ResourceGovernor] = None,
    max_iterations: Optional[int] = None,
) -> Outcome[Database]:
    """Graceful evaluation of a stratified Datalog program.

    A governor (deadline/cancellation, ticked once per fixpoint
    iteration) or ``max_iterations`` (per stratum) can cut the run short;
    the outcome then carries the partial fixpoint with an ``exhausted``
    reason.  Partial fixpoints are *sound but incomplete*: evaluation
    stops at the first exhausted stratum, so every derived atom was
    produced with negation checked only against completed lower strata.
    """
    if strategy not in ("seminaive", "naive"):
        raise InvalidTheoryError(f"unknown evaluation strategy {strategy!r}")
    _check_program(program)
    if stratification is None:
        stratification = stratify(program)
    governor = resolve_governor(governor)
    result = database.copy()
    result.ensure_acdom_frozen()
    obs = _obs_current()
    run_span = (
        obs.span(
            "datalog.evaluate",
            rules=len(program),
            strata=len(stratification),
            strategy=strategy,
        )
        if obs is not None
        else nullcontext()
    )
    exhausted: Optional[str] = None
    with run_span:
        for index, stratum in enumerate(stratification):
            stratum_span = (
                obs.span("datalog.stratum", index=index, rules=len(stratum))
                if obs is not None
                else nullcontext()
            )
            with stratum_span:
                if strategy == "naive":
                    exhausted = _evaluate_stratum_naive(
                        stratum, result, obs, governor, max_iterations
                    )
                else:
                    exhausted = _evaluate_stratum(
                        stratum, result, obs, governor, max_iterations
                    )
            if exhausted is not None:
                if obs is not None:
                    obs.inc("datalog.exhausted")
                break
    return Outcome(
        value=result,
        complete=exhausted is None,
        exhausted=exhausted,
        sound=True,
        snapshot=None,
    )


def evaluate(
    program: Theory,
    database: Database,
    *,
    stratification: Optional[Stratification] = None,
    strategy: str = "seminaive",
    governor: Optional[ResourceGovernor] = None,
    max_iterations: Optional[int] = None,
) -> Database:
    """Evaluate a stratified Datalog program; returns the full fixpoint.

    The input database is not mutated.  Negation must be stratified; a
    :class:`~repro.datalog.stratification.NotStratifiedError` is raised
    otherwise.  ``strategy`` selects semi-naive (default) or the naive
    reference loop.  On governor/iteration exhaustion raises the typed
    error (partial fixpoint on its ``outcome``); use :func:`try_evaluate`
    for the non-raising variant."""
    outcome = try_evaluate(
        program,
        database,
        stratification=stratification,
        strategy=strategy,
        governor=governor,
        max_iterations=max_iterations,
    )
    if not outcome.complete:
        reason = outcome.exhausted or "budget"
        raise exhausted_error(
            reason, f"datalog evaluation exhausted ({reason})", outcome
        )
    return outcome.value


def datalog_answers(
    query: Query,
    database: Database,
    *,
    governor: Optional[ResourceGovernor] = None,
) -> set[tuple[Constant, ...]]:
    """``ans((Σ,Q), D)`` for a Datalog query — all-constant output tuples."""
    fixpoint = evaluate(query.theory, database, governor=governor)
    answers: set[tuple[Constant, ...]] = set()
    for key in fixpoint.relations():
        if key[0] != query.output:
            continue
        for atom in fixpoint.atoms_for(key):
            if all(isinstance(term, Constant) for term in atom.args):
                answers.add(tuple(atom.args))  # type: ignore[arg-type]
    return answers
