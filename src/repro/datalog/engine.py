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

Every rule fires through one path, negated or not, observed or not: the
compiled ID-space rule executors of :func:`repro.core.plan.derive_rule_rows`,
which stage encoded head rows and check negated atoms against the
relations' row maps.  ``REPRO_NAIVE_JOIN=1`` and over-long bodies run on
the reference interpreter inside that function.

The semi-naive loop (:func:`seminaive`) is also the Datalog phase of the
restricted chase (:mod:`repro.chase.runner`) and of incremental
maintenance (:mod:`repro.incremental`).  There it starts from a *seed* —
the atoms an existential pass or an insert batch just added, where
every fact derivable without them is already present — and its
first iteration pins body atoms of any relation to the seed, not only
relations the rules define.

The built-in ``ACDom`` relation is handled virtually by the homomorphism
layer; its extension is the (frozen) active constant domain of the input
database.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext
from typing import Callable, Optional

from ..core.database import Database
from ..core.plan import derive_rule_rows
from ..core.store import ColumnDelta
from ..core.terms import Constant
from ..core.theory import Query, Theory
from ..obs.runtime import current as _obs_current
from ..robustness.errors import InvalidTheoryError, exhausted_error
from ..robustness.governor import ResourceGovernor, resolve_governor
from ..robustness.outcome import Outcome
from .stratification import Stratification, stratify

__all__ = ["evaluate", "try_evaluate", "datalog_answers", "answers_in", "DatalogError"]


class DatalogError(InvalidTheoryError):
    """Raised when a program is not plain (stratified) Datalog."""


def _check_program(program: Theory) -> None:
    for rule in program:
        if not rule.is_datalog():
            raise DatalogError(
                f"existential rule in a Datalog program: {rule}"
            )


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


def _ingest(database: Database, staged: dict) -> tuple[dict, dict, int]:
    """Add one iteration's staged ID rows, one block per relation.

    Returns the new delta twice — as marks, relation key → first new
    row ordinal for the relations that grew, and as the appended blocks
    grouped by relation name the way :func:`delta_groups` reads them —
    plus the number of genuinely new facts.  Rows are deduplicated and
    appended at the end, and nothing deletes during a fixpoint, so each
    block is exactly the ordinals ``[mark, n_rows)`` of its relation:
    :func:`seminaive` pins the next iteration to the blocks and hands
    the marks back when it stops early."""
    marks: dict = {}
    groups: dict[str, list] = defaultdict(list)
    added = 0
    for key, rows in staged.items():
        mark = database.relation_size(key)
        block = database._add_rows(key, rows)
        if block:
            marks[key] = mark
            groups[key[0]].append(ColumnDelta(key, block))
            added += len(block)
    return marks, groups, added


def delta_groups(database: Database, delta: dict) -> dict[str, list]:
    """A delta given as marks, grouped by relation *name* for delta
    pinning: per relation, a :class:`~repro.core.store.ColumnDelta` of
    the rows from its first new ordinal on, obtained by an ordinal
    **range scan**.  Only a seed or a resumed delta is read this way;
    :func:`seminaive` pins every later iteration to the blocks
    :func:`_ingest` appended."""
    groups: dict[str, list] = defaultdict(list)
    for key, mark in delta.items():
        relation = database._relations.get(key)
        if relation is None:
            continue
        rows = relation.rows_between(mark, relation.n_rows)
        if rows:
            groups[key[0]].append(ColumnDelta(key, rows))
    return groups


def _prepare(rules, pinnable) -> list[tuple]:
    """Per rule: its positive body, head and negated-atom tuples, and its
    *pins* — the ``(index, relation)`` of the body atoms whose relation
    is in ``pinnable``, the ones a delta can pin.

    Tuples are computed once per loop: the same objects feed every
    iteration, so the join-plan cache is keyed stably."""
    prepared = []
    for rule in rules:
        body = tuple(rule.positive_body())
        negated = tuple(literal.atom for literal in rule.negative_body())
        pins = [
            (index, atom.relation)
            for index, atom in enumerate(body)
            if atom.relation in pinnable
        ]
        prepared.append((body, tuple(rule.head), negated, pins))
    return prepared


def _derive(prepared: list[tuple], database: Database, groups: Optional[dict]) -> dict:
    """One iteration's derivations, not yet added: head rows absent from
    ``database``, staged per relation key.  ``groups=None`` fires every
    rule against the full database; otherwise each rule fires once per
    pin whose relation has delta rows, with that atom pinned to them."""
    staged: dict = {}
    for body, heads, negated, pins in prepared:
        if groups is None:
            derive_rule_rows(body, heads, database, None, staged, negated)
            continue
        for index, relation in pins:
            candidates = groups.get(relation)
            if candidates:
                derive_rule_rows(
                    body, heads, database, (index, candidates), staged, negated
                )
    return staged


def seminaive(
    rules,
    database: Database,
    delta: Optional[dict],
    tick: Callable[[int], Optional[str]],
    obs=None,
) -> tuple[Optional[str], Optional[dict]]:
    """Run ``rules`` to their fixpoint over ``database`` semi-naively,
    mutating it.  The one semi-naive loop: stratum evaluation, the
    restricted chase's Datalog phases and incremental maintenance
    (:mod:`repro.incremental`) all run through it.

    ``delta=None`` makes the first iteration fire every rule against the
    full database.  Otherwise ``delta`` maps relation keys to the first
    ordinal of their new rows — a *seed*: every fact ``rules`` derive
    from ``database`` minus the seed must already be in ``database`` —
    and the first iteration pins one body atom per rule to the seed,
    whatever relation it reads.  Every later iteration pins to the rows
    the previous one added.

    ``tick(added)`` runs before every iteration with the number of
    facts the previous iteration added (``0`` before the first); a
    returned reason stops the loop there.  An iteration is atomic.
    Returns ``(None, None)`` at the fixpoint, or ``(reason, delta)``
    where ``delta`` is the pending iteration's delta as marks — pass it
    back to continue exactly where the loop stopped.

    Only the seed (or a resumed delta) is read back out of the columns
    (:func:`delta_groups`); every later iteration is pinned to the
    blocks the previous one appended."""
    # Later deltas hold only head relations; a seed may hold any.
    pinnable = {atom.relation for rule in rules for atom in rule.head}
    if delta:
        pinnable.update(key[0] for key in delta)
    prepared = _prepare(rules, pinnable)
    groups = None if delta is None else delta_groups(database, delta)
    added = 0
    while True:
        reason = tick(added)
        if reason is not None:
            return reason, delta
        delta, groups, added = _ingest(database, _derive(prepared, database, groups))
        if obs is not None:
            obs.observe("delta_size", added)
            obs.inc("atoms_derived", added)
        if not delta:
            return None, None


def derivations(rules, database: Database, delta: Optional[dict]) -> dict:
    """The derivations of one :func:`seminaive` iteration from
    ``delta``, without adding them: head rows absent from ``database``,
    staged per relation key as encoded rows.  Unlike :func:`seminaive`,
    a delta pins body atoms of any relation."""
    groups = None if delta is None else delta_groups(database, delta)
    return _derive(_prepare(rules, groups or ()), database, groups)


def would_derive(rules, database: Database, delta: Optional[dict]) -> bool:
    """Would the next :func:`seminaive` iteration from ``delta`` derive a
    new fact?  Runs that iteration without adding anything."""
    return any(derivations(rules, database, delta).values())


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
    iterations = 0

    def tick(_added: int) -> Optional[str]:
        nonlocal iterations
        iterations += 1
        return _tick(governor, iterations, max_iterations)

    reason, _ = seminaive(stratum, database, None, tick, obs)
    return reason


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
    prepared = _prepare(stratum, ())
    iterations = 0
    while True:
        iterations += 1
        reason = _tick(governor, iterations, max_iterations)
        if reason is not None:
            return reason
        grown, _, added = _ingest(database, _derive(prepared, database, None))
        if obs is not None:
            obs.observe("delta_size", added)
            obs.inc("atoms_derived", added)
        if not grown:
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
    return answers_in(
        evaluate(query.theory, database, governor=governor), query.output
    )


def answers_in(database: Database, output: str) -> set[tuple[Constant, ...]]:
    """Extract all-constant ``output`` tuples from a database."""
    tuples: set[tuple[Constant, ...]] = set()
    for key in database.relations():
        if key[0] != output:
            continue
        for atom in database.atoms_for(key):
            if all(isinstance(term, Constant) for term in atom.args):
                tuples.add(tuple(atom.args))  # type: ignore[arg-type]
    return tuples
