"""Delta maintenance of materialized models (the ``repro.incremental`` core).

A :class:`LiveModel` owns a materialized Datalog fixpoint and absorbs
``insert``/``retract`` fact batches in time proportional to the delta
instead of the database.  It fires rules only as the Datalog engine
does: through the compiled row executors of :mod:`repro.core.plan`, and
to a fixpoint through :func:`repro.datalog.engine.seminaive`.

* **Counting path** (negation-free programs, which stratification puts
  in one stratum): the live model keeps its extensional rows, encoded
  in the model's ID space, as one set per relation.  No support count
  is stored: incrementing counts through delta-pinned joins would find
  a derivation using two delta facts once per pinned index, and
  drifting counts silently keep unsupported facts.  An insert batch
  appends its rows and seeds ``seminaive`` with the relations' sizes
  taken before the appends.
* **DRed delete** (overdelete → rederive → propagate): the overdelete
  closure is computed *before* any physical removal by pinning the
  compiled all-rows rule executors
  (:func:`~repro.core.plan.derive_rule_rows_all`) on the deleted rows
  against the still-intact model — forced rows match literally whether
  or not they are present, so later closure rounds keep working after
  rows are conceptually gone.  After the removal, every rule fires once
  per head atom with that head pinned on its relation's deleted rows
  (:func:`~repro.core.plan.derive_rule_rows` on ``(head,) + body``): the
  head binds from each row, checking its constants and repeated
  variables, and the body joins the surviving model.  The rows found
  seed ``seminaive``, which restores the rest; cyclically-supported
  garbage stays dead because the whole cycle is overdeleted and no
  pinned rule finds outside support.
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

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..core.atoms import Atom, RelationKey
from ..core.database import Database
from ..core.plan import derive_rule_rows, derive_rule_rows_all
from ..core.store import ColumnDelta
from ..core.terms import Constant
from ..core.theory import ACDOM, Theory
from ..chase.runner import (
    RESTRICTED,
    ChaseBudget,
    chase as run_chase,
    extend_chase,
)
from ..datalog.engine import answers_in, evaluate, ingest, seminaive
from ..obs.runtime import current as _obs_current, span as _obs_span
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


def _account(stats: UpdateStats) -> None:
    """Fold one update into the process counters and, when
    instrumentation is active, into its metrics."""
    _stats["updates"] += 1
    _stats["inserted"] += stats.inserted
    _stats["retracted"] += stats.retracted
    _stats["derived_added"] += stats.derived_added
    _stats["derived_removed"] += stats.derived_removed
    _stats["overdeleted"] += stats.overdeleted
    _stats["rederived"] += stats.rederived
    if stats.fallback is not None:
        _stats["fallbacks"] += 1
    obs = _obs_current()
    if obs is not None:
        obs.observe("incremental.delta_size", stats.delta_size)
        if stats.rederived:
            obs.inc("incremental.rederived", stats.rederived)
        if stats.fallback is not None:
            obs.inc("incremental.fallbacks")


def _recompute(
    live,
    materialize: Callable[[Database], Database],
    inserts: Iterable[Atom],
    retracts: Iterable[Atom],
    reason: str,
) -> UpdateStats:
    """The reported fallback: apply the batch to ``live.edb`` (retracts
    first) and re-materialize ``live.model`` from it.  The derived
    counts are the model's change net of the extensional one."""
    stats = UpdateStats(mode="recompute", fallback=reason)
    old_size = len(live.model)
    for atom in retracts:
        if live.edb.remove(atom):
            stats.retracted += 1
    for atom in inserts:
        if live.edb.add(atom):
            stats.inserted += 1
    live.model = materialize(live.edb)
    derived = len(live.model) - old_size - stats.inserted + stats.retracted
    if derived >= 0:
        stats.derived_added = derived
    else:
        stats.derived_removed = -derived
    return stats


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
        model: Optional[Database] = None,
    ) -> None:
        self.program = program
        self.edb = database.copy()
        self.edb.unfreeze_acdom()
        self.fallback_reason = _datalog_fallback_reason(program)
        self.mode = "counting" if self.fallback_reason is None else "recompute"
        # ``model`` lets a caller adopt an existing materialization (a
        # cached or snapshot-loaded fixpoint) instead of re-evaluating;
        # it must equal ``evaluate(program, database)`` and ownership
        # transfers to the live model (updates mutate it in place).
        self.model = model if model is not None else evaluate(program, self.edb)
        #: Per rule: its body and head tuples, built once so the plan
        #: cache is keyed stably.
        self._rules = [
            (tuple(rule.positive_body()), tuple(rule.head)) for rule in program
        ]
        #: relation key -> the extensional rows, encoded in the model's
        #: ID space (counting mode only).
        self._edb_rows: dict[RelationKey, set[tuple[int, ...]]] = {}
        if self.mode == "counting":
            self._adopt_edb()

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
        with _obs_span("incremental.update", kind=self.kind, mode=self.mode):
            if self.mode == "recompute":
                stats = _recompute(
                    self,
                    lambda edb: evaluate(self.program, edb),
                    inserts,
                    retracts,
                    self.fallback_reason,
                )
            else:
                stats = self._apply_counting(inserts, retracts)
        _account(stats)
        return stats

    # ------------------------------------------------------------------
    # counting / DRed maintenance
    # ------------------------------------------------------------------
    def _apply_counting(self, inserts, retracts) -> UpdateStats:
        stats = UpdateStats(mode="counting")
        model = self.model
        ids = model._symtab._ids
        edb_rows = self._edb_rows

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
            self._delete(seed, stats)

        # Each relation's size before the batch appends to it: the rows
        # from there on are the seed of the insert propagation.
        marks: dict[RelationKey, int] = {}
        for atom in inserts:
            if not self.edb.add(atom):
                continue  # duplicate extensional insert
            stats.inserted += 1
            key = atom.relation_key
            marks.setdefault(key, model.relation_size(key))
            # An already derived row merely gains extensional status.
            model.add(atom)
            edb_rows.setdefault(key, set()).add(
                tuple(ids[term] for term in atom.all_terms)
            )
        if marks:
            with _obs_span("incremental.propagate"):
                stats.derived_added += self._propagate(marks)
        return stats

    def _delete(self, seed, stats: UpdateStats) -> None:
        """Overdelete → physical removal → rederive → propagate."""
        model = self.model
        with _obs_span("incremental.overdelete"):
            deleted = {key: set(rows) for key, rows in seed.items()}
            # Overdelete closure, computed against the *intact* model:
            # forced rows match literally whether present or not, and
            # other body atoms still see conceptually-deleted partners —
            # the standard DRed over-approximation.
            pending = seed
            while pending:
                found: dict = {}
                for body, heads in self._rules:
                    for index, atom in enumerate(body):
                        rows = pending.get(atom.relation_key)
                        if rows:
                            derive_rule_rows_all(
                                body,
                                heads,
                                model,
                                (index, [ColumnDelta(atom.relation_key, list(rows))]),
                                found,
                            )
                pending = {}
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
                        pending[key] = over
                        stats.overdeleted += len(over)

            # Physical removal (swap-remove) of retracted ∪ overdeleted.
            removed = 0
            for key, rows in deleted.items():
                removed += model._remove_rows(key, rows)

        with _obs_span("incremental.rederive"):
            # Each rule once per head, the head pinned on its relation's
            # deleted rows and the body joined against the survivors:
            # the deleted rows with a one-step derivation left.
            staged: dict = {}
            for body, heads in self._rules:
                for head in heads:
                    rows = deleted.get(head.relation_key)
                    if rows:
                        derive_rule_rows(
                            (head,) + body,
                            (head,),
                            model,
                            (0, [ColumnDelta(head.relation_key, list(rows))]),
                            staged,
                        )
            delta, restored = ingest(model, staged)
            if delta:
                restored += self._propagate(delta)
        # Every row these phases add was deleted: the surviving model is
        # part of the old fixpoint, and so is whatever it derives.
        stats.rederived += restored
        # Net derived rows gone from the model: everything removed
        # except the retracted base facts and whatever came back.
        stats.derived_removed += max(0, removed - stats.retracted - restored)

    def _propagate(self, delta: dict) -> int:
        """Run the program to its fixpoint on the engine's semi-naive
        loop, seeded with ``delta`` (relation key → first new ordinal);
        returns the number of rows added."""
        added = 0

        def tick(count: int) -> None:
            nonlocal added
            added += count

        seminaive(self.program, self.model, delta, tick)
        return added


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
        with _obs_span("incremental.update", kind=self.kind, mode=self.mode):
            stats = _recompute(
                self, self._materialize, inserts, retracts, self.fallback_reason
            )
        _account(stats)
        return stats


def _chased(result) -> Database:
    """A chase result's instance; a truncated run raises the typed
    exhaustion error."""
    if not result.complete:
        reason = result.truncated_reason or "budget"
        raise exhausted_error(
            reason, f"incremental chase exhausted ({reason})", None
        )
    return result.database


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
        self.model = model if model is not None else self._full_chase(self.edb)

    def _full_chase(self, edb: Database) -> Database:
        return _chased(
            run_chase(self.theory, edb, policy=self.policy, budget=self.budget)
        )

    def answers(self, output: str) -> set[tuple[Constant, ...]]:
        return answers_in(self.model, output)

    def apply(
        self,
        inserts: Iterable[Atom] = (),
        retracts: Iterable[Atom] = (),
    ) -> UpdateStats:
        retracts = list(retracts)
        with _obs_span("incremental.update", kind=self.kind):
            if self.fallback_reason is not None or any(
                atom in self.edb for atom in retracts
            ):
                stats = _recompute(
                    self,
                    self._full_chase,
                    inserts,
                    retracts,
                    self.fallback_reason or "existential_retraction",
                )
            else:
                stats = self._extend(inserts)
        _account(stats)
        return stats

    def _extend(self, inserts: Iterable[Atom]) -> UpdateStats:
        """Resume the restricted chase from the current fixpoint."""
        stats = UpdateStats(mode="chase_delta")
        old_size = len(self.model)
        applied = [atom for atom in inserts if self.edb.add(atom)]
        stats.inserted = len(applied)
        if applied:
            with _obs_span("incremental.chase_delta"):
                result = extend_chase(
                    self.theory,
                    self.model,
                    applied,
                    policy=self.policy,
                    budget=self.budget,
                )
            self.model = _chased(result)
        stats.derived_added = max(0, len(self.model) - old_size - stats.inserted)
        return stats
