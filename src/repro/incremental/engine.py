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
* **Backward/Forward delete** (Motik, Nenov, Piro, Horrocks, AAAI
  2015): only the facts left without a proof are deleted.  The retracted
  rows are the first frontier.  Each frontier fact is *checked*: a
  memoized backward proof search whose one step fires every rule with
  the head pinned on the fact (the all-rows executors of
  :func:`~repro.core.plan.derive_rule_rows_all` on ``(head,) + body``),
  staging the instances that derive it into a local dict; extensional
  rows are the proof's leaves, and a proved fact forward-chains its
  proof to the checked facts waiting on it.  The facts still unproved
  are deleted (store swap-remove), and their consequences, found by the
  all-rows executors pinned on them *before* the removal, form the next
  frontier.  Cyclically supported garbage dies because no proof from
  the extensional rows reaches the cycle.  The surviving model is the
  new fixpoint: nothing is rederived or re-propagated.
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
from operator import itemgetter
from typing import Callable, Iterable, Optional

from ..core.atoms import Atom, RelationKey
from ..core.database import Database
from ..core.plan import derive_rule_rows_all
from ..core.store import ColumnDelta
from ..core.terms import Constant, Variable
from ..core.theory import ACDOM, Theory
from ..chase.runner import (
    RESTRICTED,
    ChaseBudget,
    chase as run_chase,
    extend_chase,
)
from ..datalog.engine import answers_in, evaluate, seminaive
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
    number of rows that changed (extensional and derived).
    ``overdeleted`` and ``rederived`` are a retraction's work: the facts
    its Backward/Forward proof search examined and, of those, the ones
    it kept (the names come from the DRed delete it replaced)."""

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


#: The relation of a backward step's instance atom.  It names only the
#: keys of that step's own staging dict, never a model relation.
_INSTANCE = "instance"


def _row_getter(indices: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``values -> tuple(values[i] for i in indices)``, fast."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (index,) = indices
        return lambda values: (values[index],)
    return lambda values: ()


def _backward_step(head: Atom, body: tuple[Atom, ...]) -> tuple:
    """What one rule needs to find the instances deriving a fact of
    ``head``'s relation: the pattern ``(head,) + body``, pinned at the
    head; the instance atom over the body's variables, which the row
    executor stages one row per match; the body's constants; and per
    body atom its relation key and the getter of its row from an
    instance row extended by the constants' IDs."""
    variables: dict = {}
    constants: dict = {}
    for atom in body:
        for term in atom.all_terms:
            if isinstance(term, Variable):
                variables.setdefault(term, len(variables))
            else:
                constants.setdefault(term, len(constants))
    instance = Atom(_INSTANCE, tuple(variables))
    layout = tuple(
        (
            atom.relation_key,
            _row_getter(
                tuple(
                    variables[term]
                    if isinstance(term, Variable)
                    else len(variables) + constants[term]
                    for term in atom.all_terms
                )
            ),
        )
        for atom in body
    )
    return (head,) + body, (instance,), tuple(constants), layout


class _ProofSearch:
    """The proof state of one retraction (Backward/Forward, Motik, Nenov,
    Piro and Horrocks, AAAI 2015).  Facts are ``(relation key, encoded
    row)`` pairs; extensional rows are the leaves of every proof.

    :meth:`check` is a memoized backward search with an explicit stack:
    a fact is *explored* by one backward step, and every body fact of
    every instance found is checked in turn, until the fact is proved or
    all its instances fail.  An instance whose body facts are not all
    proved yet watches them; when the last one is proved, :meth:`prove`
    forward-chains the proof to the instance's head.  When a top-level
    check returns, every checked fact that a proof from the extensional
    rows reaches is proved, so a checked fact still unproved has no
    proof: a cycle of facts supporting only each other stays unproved
    and dies.  Such a fact, met again in a later check, fails its
    instances at once."""

    def __init__(self, instances, edb_rows) -> None:
        #: One backward step: ``(key, row) ->`` a list of instances, each
        #: the list of its body facts.
        self._instances = instances
        self._edb_rows = edb_rows
        self.proved: set = set()
        #: fact -> the number of the top-level check that explored it.
        self.checked: dict = {}
        #: fact -> the watches ``[unproved body facts, head]`` waiting
        #: for its proof.
        self._watchers: dict = {}
        self._round = 0

    def prove(self, fact) -> None:
        """Mark ``fact`` proved and forward-chain to the checked facts
        whose instances were waiting only for it."""
        proved = self.proved
        watchers = self._watchers
        queue = [fact]
        while queue:
            fact = queue.pop()
            if fact in proved:
                continue
            proved.add(fact)
            for watch in watchers.pop(fact, ()):
                watch[0] -= 1
                if not watch[0]:
                    queue.append(watch[1])

    def _explore(self, fact):
        """Explore ``fact``: its instances, each cut to the body facts
        still to prove, or ``None`` once one instance already holds."""
        round_ = self._round
        checked = self.checked
        proved = self.proved
        edb_rows = self._edb_rows
        checked[fact] = round_
        open_instances = []
        for body in self._instances(*fact):
            pending = []
            for part in body:
                if part in proved:
                    continue
                rows = edb_rows.get(part[0])
                if rows is not None and part[1] in rows:
                    continue
                when = checked.get(part)
                if when is not None and when < round_:
                    break  # an earlier check left it without a proof
                pending.append(part)
            else:
                if not pending:
                    self.prove(fact)
                    return None
                open_instances.append(pending)
        return [fact, open_instances, 0]

    def check(self, root) -> None:
        """Search backward from ``root`` until it and every fact the
        search reaches is proved or out of instances."""
        if root in self.checked:
            return
        self._round += 1
        checked = self.checked
        proved = self.proved
        watchers = self._watchers
        frame = self._explore(root)
        stack = [frame] if frame is not None else []
        while stack:
            frame = stack[-1]
            fact, open_instances, index = frame
            if fact in proved or index == len(open_instances):
                stack.pop()
                continue
            pending = open_instances[index]
            for part in pending:
                if part not in checked:
                    child = self._explore(part)
                    if child is not None:
                        stack.append(child)
                    break
            else:
                # Every body fact of this instance has been explored.
                frame[2] = index + 1
                unproved = {part for part in pending if part not in proved}
                if not unproved:
                    self.prove(fact)
                    continue
                watch = [len(unproved), fact]
                for part in unproved:
                    watchers.setdefault(part, []).append(watch)


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


class _Live:
    """What every live model shares: its own copy of the input
    (extensional) database, the current model, and :meth:`apply`, which
    runs the reported recompute whenever ``fallback_reason`` is set and
    the subclass's maintenance path (:meth:`_maintain`) otherwise."""

    kind = "recompute"
    #: ``mode`` when no fallback reason is set.
    maintained_mode = "recompute"

    def __init__(
        self,
        database: Database,
        model: Optional[Database],
        fallback_reason: Optional[str],
    ) -> None:
        self.fallback_reason = fallback_reason
        self.mode = self.maintained_mode if fallback_reason is None else "recompute"
        self.edb = database.copy()
        # ``model`` lets a caller adopt an existing complete model (a
        # held or snapshot-loaded one) instead of recomputing it; it
        # must equal a from-scratch materialization of ``database``, and
        # ownership transfers to the live model (updates mutate it in
        # place).
        self.model = model if model is not None else self._materialize(self.edb, None)

    def _materialize(self, edb: Database, budget) -> Database:
        """A from-scratch model of ``edb``."""
        raise NotImplementedError

    def _maintain(self, inserts, retracts, budget) -> UpdateStats:
        """The subclass's own maintenance of one batch."""
        raise NotImplementedError

    def answers(self, output: str) -> set[tuple[Constant, ...]]:
        """All-constant tuples of the output relation in the model."""
        return answers_in(self.model, output)

    def apply(
        self,
        inserts: Iterable[Atom] = (),
        retracts: Iterable[Atom] = (),
        *,
        budget: Optional[ChaseBudget] = None,
    ) -> UpdateStats:
        """Absorb one batch of extensional inserts and retracts.

        Retracts are applied first, then inserts (a batch containing
        both behaves as two consecutive updates).  ``budget`` bounds any
        chase the batch runs (``None``: the budget the model was built
        with).  Returns the update statistics; the model afterwards
        equals a from-scratch materialization of the updated input
        database.
        """
        with _obs_span("incremental.update", kind=self.kind) as span:
            if self.fallback_reason is not None:
                stats = self._recompute(
                    inserts, retracts, self.fallback_reason, budget
                )
            else:
                stats = self._maintain(inserts, retracts, budget)
            if span is not None:
                # The path taken: a maintained batch may still recompute.
                span.set(mode=stats.mode)
        _account(stats)
        return stats

    def _recompute(self, inserts, retracts, reason: str, budget) -> UpdateStats:
        """The reported fallback: apply the batch to ``edb`` (retracts
        first) and re-materialize ``model`` from it.  The derived counts
        are the model's change net of the extensional rows that entered
        or left it; a row that stays in the model and only gains or
        loses extensional status is no derived change."""
        stats = UpdateStats(mode="recompute", fallback=reason)
        old = self.model
        retracted = [atom for atom in retracts if self.edb.remove(atom)]
        inserted = [atom for atom in inserts if self.edb.add(atom)]
        stats.retracted = len(retracted)
        stats.inserted = len(inserted)
        entered = sum(atom not in old for atom in inserted)
        self.model = self._materialize(self.edb, budget)
        left = sum(atom not in self.model for atom in retracted)
        derived = len(self.model) - len(old) - entered + left
        if derived >= 0:
            stats.derived_added = derived
        else:
            stats.derived_removed = -derived
        return stats


class LiveModel(_Live):
    """A Datalog fixpoint maintained under insert/retract batches.

    ``program`` must be stratified Datalog; ``database`` is the input
    (extensional) instance, copied and owned by the model.  The model
    is built once with the batch engine, then updated in place by
    :meth:`apply`.
    """

    kind = "datalog"
    maintained_mode = "counting"

    def __init__(
        self,
        program: Theory,
        database: Database,
        *,
        model: Optional[Database] = None,
    ) -> None:
        self.program = program
        super().__init__(database, model, _datalog_fallback_reason(program))
        #: Per rule: its body and head tuples, built once so the plan
        #: cache is keyed stably.
        self._rules = [
            (tuple(rule.positive_body()), tuple(rule.head)) for rule in program
        ]
        #: head relation key -> the backward steps deriving it (see
        #: :func:`_backward_step`).
        self._producers: dict[RelationKey, list[tuple]] = {}
        for body, heads in self._rules:
            for head in heads:
                self._producers.setdefault(head.relation_key, []).append(
                    _backward_step(head, body)
                )
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

    def _materialize(self, edb, budget) -> Database:
        return evaluate(self.program, edb)

    # ------------------------------------------------------------------
    # counting maintenance: semi-naive inserts, Backward/Forward retracts
    # ------------------------------------------------------------------
    def _maintain(self, inserts, retracts, budget) -> UpdateStats:
        stats = UpdateStats(mode="counting")
        model = self.model
        ids = model._symtab._ids
        edb_rows = self._edb_rows

        seed: dict[RelationKey, list[tuple[int, ...]]] = {}
        for atom in retracts:
            if not self.edb.remove(atom):
                continue  # not an extensional fact; nothing to retract
            stats.retracted += 1
            key = atom.relation_key
            row = tuple(ids[term] for term in atom.all_terms)
            edb_rows[key].discard(row)
            seed.setdefault(key, []).append(row)
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
        """Backward/Forward: delete the facts no proof reaches any more.

        Each wave checks its frontier (the retracted rows first) with
        :class:`_ProofSearch`.  The facts left unproved are deleted, and
        the rules pinned on them against the model that still holds
        them give the next frontier: their consequences that are neither
        extensional nor proved.  Consequences are taken before the wave
        is removed, so an instance using two facts of the same wave is
        found."""
        model = self.model
        edb_rows = self._edb_rows
        search = _ProofSearch(self._instances, edb_rows)
        proved = search.proved
        frontier = [(key, row) for key, rows in seed.items() for row in rows]
        # Rows removed per wave; the first wave holds retracted rows only.
        removed: list[int] = []
        with _obs_span("incremental.backward_forward"):
            while frontier:
                wave: dict[RelationKey, list[tuple[int, ...]]] = {}
                for fact in frontier:
                    search.check(fact)
                    if fact not in proved:
                        wave.setdefault(fact[0], []).append(fact[1])
                found: dict = {}
                for body, heads in self._rules:
                    for index, atom in enumerate(body):
                        rows = wave.get(atom.relation_key)
                        if rows:
                            derive_rule_rows_all(
                                body,
                                heads,
                                model,
                                (index, [ColumnDelta(atom.relation_key, rows)]),
                                found,
                            )
                removed.append(
                    sum(model._remove_rows(key, rows) for key, rows in wave.items())
                )
                frontier = []
                for key, rows in found.items():
                    present = model._existing_rows(key)
                    extensional = edb_rows.get(key, ())
                    # Sorted, like the backward step's instances.
                    for row in sorted(rows):
                        if (
                            row in present
                            and row not in extensional
                            and (key, row) not in proved
                        ):
                            frontier.append((key, row))
        examined = len(search.checked)
        stats.overdeleted += examined
        stats.rederived += examined - sum(removed)
        stats.derived_removed += sum(removed[1:])

    def _instances(self, key: RelationKey, row: tuple[int, ...]) -> list:
        """One backward step: the rule instances that derive the fact
        ``(key, row)`` from the current model, each as its list of body
        facts.  Every rule fires once per head of ``key``, that head
        pinned on the row, staging one instance row per match into a
        local dict."""
        producers = self._producers.get(key)
        if not producers:
            return []
        model = self.model
        ids = model._symtab._ids
        pinned = (0, [ColumnDelta(key, [row])])
        found = []
        for pattern, instance, constants, layout in producers:
            staged: dict = {}
            derive_rule_rows_all(pattern, instance, model, pinned, staged)
            for rows in staged.values():
                # A match implies the body's constants are interned.
                extra = tuple(ids[term] for term in constants) if rows else ()
                # Sorted, so the search order (and the examined count)
                # does not depend on how the join path enumerates.
                for values in sorted(rows):
                    values += extra
                    found.append([(body_key, get(values)) for body_key, get in layout])
        return found

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


class RecomputeLiveModel(_Live):
    """The reported-fallback live model: every update re-materializes.

    Used where no delta-maintenance algorithm applies (the WFG pipeline,
    whose partial grounding is database-dependent) but the service still
    needs the live-database bookkeeping — an owned extensional instance,
    a current model, and honest :class:`UpdateStats` whose ``fallback``
    names why each update cost a full recompute."""

    def __init__(
        self,
        materialize: Callable[[Database], Database],
        database: Database,
        *,
        reason: str,
        model: Optional[Database] = None,
    ) -> None:
        self._materialize_edb = materialize
        super().__init__(database, model, reason)

    def _materialize(self, edb, budget) -> Database:
        return self._materialize_edb(edb)


def _chased(result) -> Database:
    """A chase result's instance; a truncated run raises the typed
    exhaustion error."""
    if not result.complete:
        reason = result.truncated_reason or "budget"
        raise exhausted_error(
            reason, f"incremental chase exhausted ({reason})", None
        )
    return result.database


class ChaseLiveModel(_Live):
    """A chase fixpoint maintained under insert batches.

    Built for existential theories the strategy advisor proved
    terminating.  Insert-only updates resume the restricted chase from
    the previous fixpoint; a retraction may touch a null-introducing
    derivation, so any retraction (and any theory reading ``ACDom``)
    triggers a reported full-recompute fallback.  ``budget`` bounds the
    initial chase and every batch that :meth:`apply` is given none for.
    """

    kind = "chase"
    maintained_mode = "chase_delta"

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
        super().__init__(
            database, model, "acdom" if ACDOM in theory.relations() else None
        )

    def _materialize(self, edb, budget) -> Database:
        return _chased(
            run_chase(
                self.theory, edb, policy=self.policy, budget=budget or self.budget
            )
        )

    def _maintain(self, inserts, retracts, budget) -> UpdateStats:
        """Resume the restricted chase from the current fixpoint."""
        retracts = list(retracts)
        if any(atom in self.edb for atom in retracts):
            return self._recompute(
                inserts, retracts, "existential_retraction", budget
            )
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
                    budget=budget or self.budget,
                )
            self.model = _chased(result)
        stats.derived_added = max(0, len(self.model) - old_size - stats.inserted)
        return stats
