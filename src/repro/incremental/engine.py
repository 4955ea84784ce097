"""Delta maintenance of materialized models (the ``repro.incremental`` core).

A :class:`LiveModel` owns a materialized Datalog fixpoint and absorbs
``insert``/``retract`` fact batches in time proportional to the delta
instead of the database:

* **Counting path** (negation-free stratified programs on the columnar
  store): the live model keeps its extensional rows, encoded in the
  model's ID space, as one set per relation, and deletion decisions are
  made by *exact recounts* — for a candidate row the engine binds the
  head variables of every defining rule and asks the compiled adorned
  join plan whether any body assignment survives.  No support count is
  stored: incrementing counts through delta-pinned joins would find a
  derivation using two delta facts once per pinned index, and drifting
  counts silently keep unsupported facts.
* **DRed-style delete** (overdelete → rederive → propagate) for the
  recursive case: the overdelete closure is computed *before* any
  physical removal by pinning the compiled all-rows rule executors
  (:func:`~repro.core.plan.derive_rule_rows_all`) on the deleted rows
  against the still-intact model — forced rows match literally whether
  or not they are present, so later closure rounds keep working after
  rows are conceptually gone.  Rederivation then recounts each removed
  row against the surviving model and semi-naive insert propagation
  restores the rest; cyclically-supported garbage stays dead because
  the whole cycle is overdeleted and no recount finds outside support.
* **Delta-restricted chase** (:class:`ChaseLiveModel`) for existential
  theories the advisor proved terminating: insert-only batches resume
  the restricted chase from the old fixpoint
  (:func:`repro.chase.runner.extend_chase`); any retraction may touch a
  null-introducing derivation, so it falls back to a full recompute —
  reported in the update stats, never silent.

Programs with negation and programs reading ``ACDom`` (inserts can
grow the active domain) likewise run in reported recompute mode.  Every
path leaves the model equal to a from-scratch evaluation of the
post-update database — the Hypothesis differential suite asserts
exactly that.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.atoms import Atom, RelationKey
from ..core.database import Database
from ..core.plan import (
    cached_plan,
    derive_rule_rows,
    derive_rule_rows_all,
    execute_plan,
)
from ..core.store import ColumnDelta
from ..core.terms import Constant, Term, Variable
from ..core.theory import ACDOM, Theory
from ..chase.runner import (
    RESTRICTED,
    ChaseBudget,
    chase as run_chase,
    extend_chase,
)
from ..datalog.engine import answers_in, evaluate
from ..datalog.stratification import Stratification, stratify
from ..obs.runtime import current as _obs_current
from ..robustness.errors import exhausted_error

__all__ = [
    "LiveModel",
    "ChaseLiveModel",
    "RecomputeLiveModel",
    "UpdateStats",
    "incremental_stats",
]

#: Process-lifetime counters, mirroring ``plan._stats`` — the worker
#: pool reads them as before/after deltas per job.
_stats = {
    "updates": 0,
    "inserted": 0,
    "retracted": 0,
    "derived_added": 0,
    "derived_removed": 0,
    "overdeleted": 0,
    "rederived": 0,
    "fallbacks": 0,
}


def incremental_stats() -> dict[str, int]:
    """Lifetime incremental-maintenance counters (process-global)."""
    return dict(_stats)


@dataclass
class UpdateStats:
    """What one ``apply`` did, including whether it fell back.

    ``mode`` is the path actually taken (``counting``, ``chase_delta``
    or ``recompute``); ``fallback`` carries the reason whenever the
    maintenance ran as a full recompute.  ``delta_size`` is the total
    number of rows that changed (extensional and derived)."""

    mode: str = "counting"
    inserted: int = 0
    retracted: int = 0
    derived_added: int = 0
    derived_removed: int = 0
    overdeleted: int = 0
    rederived: int = 0
    fallback: Optional[str] = None
    phase_ms: dict[str, float] = field(default_factory=dict)

    @property
    def delta_size(self) -> int:
        return (
            self.inserted
            + self.retracted
            + self.derived_added
            + self.derived_removed
        )

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "inserted": self.inserted,
            "retracted": self.retracted,
            "derived_added": self.derived_added,
            "derived_removed": self.derived_removed,
            "overdeleted": self.overdeleted,
            "rederived": self.rederived,
            "delta_size": self.delta_size,
            "fallback": self.fallback,
        }


def _datalog_fallback_reason(program: Theory) -> Optional[str]:
    """Why a program cannot take the counting path (``None`` = it can)."""
    if any(rule.has_negation() for rule in program):
        return "negation"
    for rule in program:
        for atom in rule.positive_body():
            if atom.relation == ACDOM:
                return "acdom"
        for atom in rule.head:
            if atom.relation == ACDOM:
                return "acdom"
    return None


class LiveModel:
    """A Datalog fixpoint maintained under insert/retract batches.

    ``program`` must be stratified Datalog; ``database`` is the input
    (extensional) instance, copied and owned by the model.  The model
    is built once with the batch engine, then updated in place by
    :meth:`apply`.
    """

    kind = "datalog"

    def __init__(
        self,
        program: Theory,
        database: Database,
        *,
        stratification: Optional[Stratification] = None,
        model: Optional[Database] = None,
    ) -> None:
        self.program = program
        self.stratification = stratification or stratify(program)
        self.edb = database.copy()
        self.edb.unfreeze_acdom()
        self.fallback_reason = _datalog_fallback_reason(program)
        self.mode = "counting" if self.fallback_reason is None else "recompute"
        # ``model`` lets a caller adopt an existing materialization (a
        # cached or snapshot-loaded fixpoint) instead of re-evaluating;
        # it must equal ``evaluate(program, database)`` and ownership
        # transfers to the live model (updates mutate it in place).
        self.model = (
            model
            if model is not None
            else evaluate(program, self.edb, stratification=self.stratification)
        )
        #: head relation key -> [(head atom, body)] across the program,
        #: for the exact-recount derivability probe.
        self._head_index: dict[RelationKey, list] = {}
        #: head relation name -> index of its defining stratum.
        self._stratum_of: dict[str, int] = {}
        for index, stratum in enumerate(self.stratification):
            for rule in stratum:
                body = tuple(rule.positive_body())
                for atom in rule.head:
                    self._head_index.setdefault(atom.relation_key, []).append(
                        (atom, body)
                    )
                    self._stratum_of[atom.relation] = index
        #: relation key -> the extensional rows, encoded in the model's
        #: ID space (counting mode only).
        self._edb_rows: dict[RelationKey, set[tuple[int, ...]]] = {}
        if self.mode == "counting":
            self._adopt_edb()

    # ------------------------------------------------------------------
    # adoption
    # ------------------------------------------------------------------
    def _adopt_edb(self) -> None:
        """Encode every extensional fact in the model's ID space."""
        model = self.model
        ids = model._symtab._ids
        for atom in self.edb:
            key = atom.relation_key
            row = tuple(ids[term] for term in atom.all_terms)
            assert row in model._existing_rows(key), (
                "model must contain every extensional fact"
            )
            self._edb_rows.setdefault(key, set()).add(row)

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def answers(self, output: str) -> set[tuple[Constant, ...]]:
        """All-constant tuples of the output relation in the model."""
        return answers_in(self.model, output)

    def apply(
        self,
        inserts: Iterable[Atom] = (),
        retracts: Iterable[Atom] = (),
    ) -> UpdateStats:
        """Absorb one batch of extensional inserts and retracts.

        Retracts are applied first, then inserts (a batch containing
        both behaves as two consecutive updates).  Returns the update
        statistics; the model afterwards equals a from-scratch
        evaluation of the updated input database.
        """
        obs = _obs_current()
        span = (
            obs.span("incremental.update", kind=self.kind, mode=self.mode)
            if obs is not None
            else nullcontext()
        )
        with span:
            if self.mode == "recompute":
                stats = self._apply_recompute(
                    inserts, retracts, self.fallback_reason or "recompute"
                )
            else:
                stats = self._apply_counting(inserts, retracts, obs)
        self._account(stats, obs)
        return stats

    def _account(self, stats: UpdateStats, obs) -> None:
        _stats["updates"] += 1
        _stats["inserted"] += stats.inserted
        _stats["retracted"] += stats.retracted
        _stats["derived_added"] += stats.derived_added
        _stats["derived_removed"] += stats.derived_removed
        _stats["overdeleted"] += stats.overdeleted
        _stats["rederived"] += stats.rederived
        if stats.fallback is not None:
            _stats["fallbacks"] += 1
        if obs is not None:
            obs.observe("incremental.delta_size", stats.delta_size)
            if stats.rederived:
                obs.inc("incremental.rederived", stats.rederived)
            if stats.fallback is not None:
                obs.inc("incremental.fallbacks")

    # ------------------------------------------------------------------
    # recompute fallback
    # ------------------------------------------------------------------
    def _apply_recompute(
        self, inserts, retracts, reason: str
    ) -> UpdateStats:
        stats = UpdateStats(mode="recompute", fallback=reason)
        old_size = len(self.model)
        for atom in retracts:
            if self.edb.remove(atom):
                stats.retracted += 1
        for atom in inserts:
            if self.edb.add(atom):
                stats.inserted += 1
        self.model = evaluate(
            self.program, self.edb, stratification=self.stratification
        )
        grown = len(self.model) - old_size
        if grown >= 0:
            stats.derived_added = grown
        else:
            stats.derived_removed = -grown
        return stats

    # ------------------------------------------------------------------
    # counting / DRed maintenance
    # ------------------------------------------------------------------
    def _apply_counting(self, inserts, retracts, obs) -> UpdateStats:
        stats = UpdateStats(mode="counting")
        model = self.model
        ids = model._symtab._ids
        edb_rows = self._edb_rows

        # -- retract batch --------------------------------------------
        seed: dict[RelationKey, set[tuple[int, ...]]] = {}
        for atom in retracts:
            if not self.edb.remove(atom):
                continue  # not an extensional fact; nothing to retract
            stats.retracted += 1
            key = atom.relation_key
            row = tuple(ids[term] for term in atom.all_terms)
            edb_rows[key].discard(row)
            seed.setdefault(key, set()).add(row)
        if seed:
            self._delete(seed, stats, obs)

        # -- insert batch ---------------------------------------------
        fresh: dict[RelationKey, list[tuple[int, ...]]] = {}
        for atom in inserts:
            if not self.edb.add(atom):
                continue  # duplicate extensional insert
            stats.inserted += 1
            key = atom.relation_key
            # An already derived row merely gains extensional status.
            was_new = model.add(atom)
            row = tuple(ids[term] for term in atom.all_terms)
            edb_rows.setdefault(key, set()).add(row)
            if was_new:
                fresh.setdefault(key, []).append(row)
        if fresh:
            self._insert_propagate(fresh, stats, obs)
        return stats

    # -- deletion: overdelete → physical removal → rederive/propagate --
    def _delete(self, seed, stats: UpdateStats, obs) -> None:
        model = self.model
        span = (
            obs.span("incremental.overdelete") if obs is not None else nullcontext()
        )
        with span:
            deleted: dict[RelationKey, set[tuple[int, ...]]] = {
                key: set(rows) for key, rows in seed.items()
            }
            # Overdelete closure, computed against the *intact* model:
            # forced rows match literally whether present or not, and
            # other body atoms still see conceptually-deleted partners —
            # the standard DRed over-approximation.
            for stratum in self.stratification:
                bodies = [tuple(rule.positive_body()) for rule in stratum]
                heads = [tuple(rule.head) for rule in stratum]
                pending = {key: rows for key, rows in deleted.items()}
                while pending:
                    found: dict = {}
                    for body, rule_heads in zip(bodies, heads):
                        for index, atom in enumerate(body):
                            rows = pending.get(atom.relation_key)
                            if not rows:
                                continue
                            derive_rule_rows_all(
                                body,
                                rule_heads,
                                model,
                                (index, [ColumnDelta(atom.relation_key, list(rows))]),
                                found,
                            )
                    next_pending: dict = {}
                    for key, rows in found.items():
                        present = model._existing_rows(key)
                        already = deleted.get(key, ())
                        # Extensional rows keep their support.
                        extensional = self._edb_rows.get(key, ())
                        over = {
                            row
                            for row in rows
                            if row in present
                            and row not in already
                            and row not in extensional
                        }
                        if over:
                            deleted.setdefault(key, set()).update(over)
                            next_pending[key] = over
                            stats.overdeleted += len(over)
                    pending = next_pending

            # Physical removal (swap-remove) of retracted ∪ overdeleted.
            removed_total = 0
            for key, rows in deleted.items():
                removed_total += model._remove_rows(key, rows)

        # Rederive + propagate, bottom-up so recounts only ever consult
        # final lower strata.
        span = (
            obs.span("incremental.rederive") if obs is not None else nullcontext()
        )
        with span:
            restored = 0
            for index, stratum in enumerate(self.stratification):
                frontier: dict[RelationKey, list[tuple[int, ...]]] = {}
                for key, rows in deleted.items():
                    if self._stratum_of.get(key[0]) != index:
                        continue
                    for row in sorted(rows):
                        if not self._derivable(key, row):
                            continue
                        model._add_row(key, row)
                        restored += 1
                        frontier.setdefault(key, []).append(row)
                if frontier:
                    restored += self._propagate_stratum(stratum, frontier, stats)
            stats.rederived += restored
            # Net derived rows gone from the model: everything removed
            # except the retracted base facts and whatever came back.
            stats.derived_removed += max(
                0, removed_total - stats.retracted - restored
            )

    def _derivable(self, key: RelationKey, row: tuple[int, ...]) -> bool:
        """Does some rule still derive ``row`` from the surviving model?
        — the exact-recount support probe.

        Binds the defining rule's head variables to the row's terms and
        asks the compiled adorned plan for one witness assignment; the
        probe is per-row, so deletion cost tracks the delta, not the
        database.
        """
        model = self.model
        terms = model._symtab._terms
        decoded = tuple(terms[i] for i in row)
        for head_atom, body in self._head_index.get(key, ()):
            binding: dict[Variable, Term] = {}
            matched = True
            for position, term in enumerate(head_atom.all_terms):
                value = decoded[position]
                if isinstance(term, Variable):
                    bound = binding.get(term)
                    if bound is None:
                        binding[term] = value
                    elif bound != value:
                        matched = False
                        break
                elif term != value:
                    matched = False
                    break
            if not matched:
                continue
            plan = cached_plan(body, frozenset(binding), None)
            witness = next(
                iter(execute_plan(plan, model, partial=binding)), None
            )
            if witness is not None:
                return True
        return False

    # -- insertion: semi-naive propagation stratum by stratum ----------
    def _insert_propagate(self, fresh, stats: UpdateStats, obs) -> None:
        span = (
            obs.span("incremental.propagate") if obs is not None else nullcontext()
        )
        with span:
            # ``accumulated`` carries every new row seen so far (the
            # extensional inserts plus additions from lower strata); each
            # stratum's first round pins on all of it, later rounds only
            # on the stratum's own newly derived rows.
            accumulated: dict[RelationKey, list[tuple[int, ...]]] = {
                key: list(rows) for key, rows in fresh.items()
            }
            for stratum in self.stratification:
                added = self._propagate_stratum(
                    stratum, accumulated, stats, collector=accumulated
                )
                stats.derived_added += added

    def _propagate_stratum(
        self,
        stratum: Theory,
        frontier: dict,
        stats: UpdateStats,
        collector: Optional[dict] = None,
    ) -> int:
        """Semi-naive insert propagation of ``frontier`` through one
        stratum's rules; the frontier rows must already be present in
        the model.  Returns the number of rows added; ``collector``
        (when given) also receives them, keyed by relation."""
        model = self.model
        bodies = [tuple(rule.positive_body()) for rule in stratum]
        heads = [tuple(rule.head) for rule in stratum]
        delta = frontier
        total = 0
        while delta:
            staged: dict = {}
            for body, rule_heads in zip(bodies, heads):
                for index, atom in enumerate(body):
                    rows = delta.get(atom.relation_key)
                    if not rows:
                        continue
                    derive_rule_rows(
                        body,
                        rule_heads,
                        model,
                        (index, [ColumnDelta(atom.relation_key, list(rows))]),
                        staged,
                    )
            next_delta: dict = {}
            for key, rows in staged.items():
                added = [row for row in sorted(rows) if model._add_row(key, row)]
                if not added:
                    continue
                total += len(added)
                next_delta[key] = added
                if collector is not None:
                    collector.setdefault(key, []).extend(added)
            delta = next_delta
        return total


class RecomputeLiveModel:
    """The reported-fallback live model: every update re-materializes.

    Used where no delta-maintenance algorithm applies (the WFG pipeline,
    whose partial grounding is database-dependent) but the service still
    needs the live-database bookkeeping — an owned extensional instance,
    a current model, and honest :class:`UpdateStats` whose ``fallback``
    names why each update cost a full recompute."""

    kind = "recompute"

    def __init__(
        self,
        materialize,
        database: Database,
        *,
        reason: str,
        model: Optional[Database] = None,
    ) -> None:
        self._materialize = materialize
        self.fallback_reason = reason
        self.mode = "recompute"
        self.edb = database.copy()
        self.edb.unfreeze_acdom()
        self.model = model if model is not None else materialize(self.edb)

    def answers(self, output: str) -> set[tuple[Constant, ...]]:
        return answers_in(self.model, output)

    def apply(
        self,
        inserts: Iterable[Atom] = (),
        retracts: Iterable[Atom] = (),
    ) -> UpdateStats:
        obs = _obs_current()
        span = (
            obs.span("incremental.update", kind=self.kind, mode=self.mode)
            if obs is not None
            else nullcontext()
        )
        with span:
            stats = UpdateStats(mode="recompute", fallback=self.fallback_reason)
            old_size = len(self.model)
            for atom in retracts:
                if self.edb.remove(atom):
                    stats.retracted += 1
            for atom in inserts:
                if self.edb.add(atom):
                    stats.inserted += 1
            self.model = self._materialize(self.edb)
            grown = len(self.model) - old_size
            if grown >= 0:
                stats.derived_added = grown
            else:
                stats.derived_removed = -grown
        _stats["updates"] += 1
        _stats["inserted"] += stats.inserted
        _stats["retracted"] += stats.retracted
        _stats["derived_added"] += stats.derived_added
        _stats["derived_removed"] += stats.derived_removed
        _stats["fallbacks"] += 1
        if obs is not None:
            obs.observe("incremental.delta_size", stats.delta_size)
            obs.inc("incremental.fallbacks")
        return stats


class ChaseLiveModel:
    """A chase fixpoint maintained under insert batches.

    Built for existential theories the strategy advisor proved
    terminating.  Insert-only updates resume the restricted chase from
    the previous fixpoint; a retraction may touch a null-introducing
    derivation, so any retraction (and any theory reading ``ACDom``)
    triggers a reported full-recompute fallback.
    """

    kind = "chase"

    def __init__(
        self,
        theory: Theory,
        database: Database,
        *,
        policy: str = RESTRICTED,
        budget: Optional[ChaseBudget] = None,
        model: Optional[Database] = None,
    ) -> None:
        self.theory = theory
        self.policy = policy
        self.budget = budget or ChaseBudget()
        self.edb = database.copy()
        self.edb.unfreeze_acdom()
        self.fallback_reason = (
            "acdom" if ACDOM in theory.relations() else None
        )
        # ``model`` adopts an existing *complete* chase instance (a
        # cached or snapshot-loaded materialization) instead of
        # re-chasing; ownership transfers to the live model.
        self.model = model if model is not None else self._full_chase()

    def _full_chase(self) -> Database:
        result = run_chase(
            self.theory, self.edb, policy=self.policy, budget=self.budget
        )
        if not result.complete:
            reason = result.truncated_reason or "budget"
            raise exhausted_error(
                reason, f"incremental chase exhausted ({reason})", None
            )
        return result.database

    def answers(self, output: str) -> set[tuple[Constant, ...]]:
        return answers_in(self.model, output)

    def apply(
        self,
        inserts: Iterable[Atom] = (),
        retracts: Iterable[Atom] = (),
    ) -> UpdateStats:
        obs = _obs_current()
        span = (
            obs.span("incremental.update", kind=self.kind)
            if obs is not None
            else nullcontext()
        )
        with span:
            stats = UpdateStats(mode="chase_delta")
            old_size = len(self.model)
            for atom in retracts:
                if self.edb.remove(atom):
                    stats.retracted += 1
            applied: list[Atom] = []
            for atom in inserts:
                if self.edb.add(atom):
                    stats.inserted += 1
                    applied.append(atom)
            if stats.retracted or self.fallback_reason is not None:
                stats.mode = "recompute"
                stats.fallback = self.fallback_reason or (
                    "existential_retraction"
                )
                self.model = self._full_chase()
            elif applied:
                chase_span = (
                    obs.span("incremental.chase_delta")
                    if obs is not None
                    else nullcontext()
                )
                with chase_span:
                    result = extend_chase(
                        self.theory,
                        self.model,
                        applied,
                        policy=self.policy,
                        budget=self.budget,
                    )
                if not result.complete:
                    reason = result.truncated_reason or "budget"
                    raise exhausted_error(
                        reason,
                        f"incremental chase exhausted ({reason})",
                        None,
                    )
                self.model = result.database
            grown = len(self.model) - old_size
            if grown >= 0:
                stats.derived_added = max(0, grown - stats.inserted)
            else:
                stats.derived_removed = -grown
        _stats["updates"] += 1
        _stats["inserted"] += stats.inserted
        _stats["retracted"] += stats.retracted
        _stats["derived_added"] += stats.derived_added
        _stats["derived_removed"] += stats.derived_removed
        if stats.fallback is not None:
            _stats["fallbacks"] += 1
        if obs is not None:
            obs.observe("incremental.delta_size", stats.delta_size)
            if stats.fallback is not None:
                obs.inc("incremental.fallbacks")
        return stats
