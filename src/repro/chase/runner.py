"""The chase engine.

Implements the chase of Section 2 under three policies.  ``chase(Σ, D)``
is the union of a fair, possibly infinite sequence of rule applications;
it is a *universal solution*: ``Σ, D |= α`` iff ``α ∈ chase(Σ, D)`` for
ground ``α``.

* ``OBLIVIOUS`` and ``SKOLEM`` run the per-trigger loop of Section 2.
  Triggers are enumerated against a per-round snapshot and fired in a
  deterministic order, so fairness is breadth-first: every applicable
  trigger is eventually fired.  Chase trees (Def 6) and the Prop 2
  checks drive this loop, and it is the named oracle for the restricted
  loop.
* ``RESTRICTED`` runs *Datalog-first* (Carral, Dragoste, Krötzsch,
  IJCAI 2017).  A round has two phases.  The theory's existential-free
  rules first run to their fixpoint through the Datalog engine's
  semi-naive loop and row executors
  (:func:`repro.datalog.engine.seminaive`), seeded with the atoms added
  since the previous round.  One *existential pass* then fires the
  existential triggers that use an atom added since the previous pass,
  skipping those whose head is already satisfied.  The restricted check
  depends only on the rule and the frontier image, so triggers are
  deduplicated by that pair.  The chase ends when a pass adds nothing.
  Every existential trigger is checked in the first pass after its last
  body atom appears, so the order is fair.  The check sees every Datalog
  consequence first, so it tends to create fewer nulls; on the theories
  the advisor proves terminating (weak, joint and super-weak acyclicity
  and MFA bound the skolem chase) every fair restricted order
  terminates.

Because weakly guarded theories can have infinite chases, the engine runs
under an explicit :class:`ChaseBudget` and an optional
:class:`~repro.robustness.governor.ResourceGovernor` (wall-clock deadline +
cooperative cancellation, ticked once per applied trigger — and, under
the restricted policy, once per Datalog iteration); the returned
:class:`ChaseResult` records whether a fixpoint was reached (``complete``)
or which budget cut the run short.

Interrupted runs are *resumable*: a truncated :class:`ChaseResult` carries
a :class:`ChaseSnapshot` — the full engine state including the unfired
remainder of the current round — and :func:`resume_chase` continues it
under a fresh budget.  Because the snapshot preserves the exact pending
trigger order and the null counter, a resumed run produces a final result
*identical* (same atoms, same null names, same step count) to the
uninterrupted run.

Rules with negated body literals are supported *only* as building blocks of
the stratified semantics (:mod:`repro.chase.stratified`): a negated literal
``¬A(~t)`` is satisfied when the instantiated atom is absent from the
current database.  For stratified theories evaluated stratum-by-stratum
this coincides with Definition 23.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..core.atoms import Atom, RelationKey
from ..core.database import Database
from ..core.homomorphism import extends_to_head, homomorphisms
from ..core.rules import Rule
from ..core.terms import Constant, Null, Term, Variable
from ..core.theory import ACDOM, Query, Theory
from ..datalog.engine import answers_in, derivations, seminaive, would_derive
from ..obs.runtime import current as _obs_current
from ..robustness.errors import (
    InvalidRequestError,
    InvalidTheoryError,
    exhausted_error,
)
from ..robustness.governor import ResourceGovernor, resolve_governor
from ..robustness.outcome import Outcome

__all__ = [
    "ChaseBudget",
    "ChaseResult",
    "ChaseSnapshot",
    "ChaseStats",
    "RoundStats",
    "chase",
    "extend_chase",
    "resume_chase",
    "entails",
    "certain_answers",
    "try_certain_answers",
    "answers_in",
    "OBLIVIOUS",
    "RESTRICTED",
    "SKOLEM",
]

OBLIVIOUS = "oblivious"
RESTRICTED = "restricted"
SKOLEM = "skolem"

#: The two phases of a restricted round (:attr:`ChaseSnapshot.phase`).
DATALOG_PHASE = "datalog"
EXISTENTIAL_PHASE = "existential"

#: Default guard against runaway chases; generous enough for the test scale.
_DEFAULT_MAX_STEPS = 200_000

#: Relation name prefix of the image rules' heads, which collect
#: existential trigger images; no parsed theory can name it.
_IMAGE = "\x00image"


@dataclass(frozen=True)
class ChaseBudget:
    """Resource limits for a chase run.

    ``None`` means unlimited.  ``max_depth`` bounds null nesting: a null
    created by a trigger whose body image contains a depth-``d`` null has
    depth ``d + 1``; triggers that would exceed the bound are skipped and
    the run is marked incomplete (a resume under a larger bound retries
    them).  ``max_rounds`` cuts the run only when another round has work.

    Under the restricted policy a Datalog iteration is atomic: count
    budgets are checked before each one, so ``steps`` (and the atom
    count) may pass ``max_steps`` (``max_atoms``) by at most one
    iteration's facts.
    """

    max_steps: Optional[int] = _DEFAULT_MAX_STEPS
    max_atoms: Optional[int] = None
    max_nulls: Optional[int] = None
    max_depth: Optional[int] = None
    max_rounds: Optional[int] = None


@dataclass(frozen=True)
class RoundStats:
    """Per-round chase counters.

    A round is one breadth-first round of the trigger loop, or one
    Datalog phase plus one existential pass of the restricted loop (whose
    ``triggers_enumerated`` counts the pass's existential triggers, while
    ``triggers_fired`` also counts the phase's Datalog facts).  A round
    interrupted by a budget produces one entry for the partial round; if
    the run is resumed, the remainder of that round is reported as a
    further entry with the same ``round`` number, so the entries of a
    resumed run sum to the uninterrupted run's totals.
    """

    round: int
    triggers_enumerated: int
    triggers_fired: int
    atoms_added: int
    nulls_created: int


@dataclass
class ChaseStats:
    """Metrics snapshot carried by every :class:`ChaseResult`.

    Collected unconditionally — the cost is a handful of integer ops per
    *round* (not per trigger), so it does not need the ambient
    instrumentation layer to be active.
    """

    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def triggers_enumerated(self) -> int:
        return sum(r.triggers_enumerated for r in self.rounds)

    @property
    def triggers_fired(self) -> int:
        return sum(r.triggers_fired for r in self.rounds)

    @property
    def atoms_added(self) -> int:
        return sum(r.atoms_added for r in self.rounds)

    def merge(self, other: "ChaseStats") -> None:
        """Append another run's rounds (used by the stratified chase)."""
        self.rounds.extend(other.rounds)


@dataclass
class ChaseSnapshot:
    """Full engine state of an interrupted chase run (checkpoint).

    In-memory resume handle: pass to :func:`resume_chase` with a fresh
    budget.  Preserves the unfired remainder of the current round or
    existential pass (``pending``), the keys of the triggers already
    applied or found satisfied (``fired``), the triggers skipped for
    ``max_depth`` (``deferred``, retried on resume even where ``fired``
    holds their keys) and the null counter, so the continuation replays
    exactly the suffix of the uninterrupted run.

    A restricted snapshot also holds the round's ``phase``.  In the
    Datalog phase, ``datalog_delta`` is the pending semi-naive delta
    (relation key → first new row ordinal; ``None`` before the first
    iteration of a fresh run) — row ordinals and symbol IDs survive
    :meth:`Database.copy`, so it stays valid on the snapshot's copy.
    ``pass_marks`` are the relation sizes when the last existential
    pass began: the rows past them are the next pass's (and the next
    Datalog phase's) delta.
    """

    theory: Theory
    policy: str
    null_prefix: str
    allow_negation: bool
    database: Database
    null_counter: int
    steps: int
    rounds: int
    nulls_created: int
    depths: dict[Term, int]
    fired: set[tuple]
    pending: list[tuple]
    deferred: list[tuple]
    stats_rounds: list[RoundStats]
    #: Round-report baselines: triggers, steps, atoms, nulls.
    baselines: tuple[int, int, int, int]
    # The trigger loop (oblivious, skolem).
    skolem_cache: dict[tuple, Null] = field(default_factory=dict)
    started: bool = False
    delta: Optional[set[Atom]] = None
    round_added: set[Atom] = field(default_factory=set)
    # The Datalog-first loop (restricted).
    phase: str = DATALOG_PHASE
    datalog_delta: Optional[dict[RelationKey, int]] = None
    pass_marks: Optional[dict[RelationKey, int]] = None
    round_open: bool = False


@dataclass
class ChaseResult:
    """Outcome of a chase run.

    ``complete`` distinguishes a reached fixpoint from a truncated run;
    truncated results are *sound but incomplete* (every atom present is a
    consequence) and carry a resume ``snapshot``.
    """

    database: Database
    complete: bool
    steps: int
    rounds: int
    nulls_created: int
    truncated_reason: Optional[str] = None
    null_depths: dict[Null, int] = field(default_factory=dict)
    stats: ChaseStats = field(default_factory=ChaseStats)
    snapshot: Optional[ChaseSnapshot] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.complete


def _by_name(variables) -> tuple[Variable, ...]:
    return tuple(sorted(variables, key=lambda v: v.name))


class _Chase:
    """State and bookkeeping shared by the two chase loops."""

    def __init__(
        self,
        theory: Theory,
        database: Database,
        policy: str,
        budget: ChaseBudget,
        null_prefix: str,
        allow_negation: bool,
        governor: Optional[ResourceGovernor] = None,
    ) -> None:
        if not allow_negation:
            for rule in theory:
                if rule.has_negation():
                    raise InvalidTheoryError(
                        "plain chase does not support negation; "
                        "use repro.chase.stratified for stratified theories"
                    )
        self.theory = theory
        self.database = database.copy()
        self.database.ensure_acdom_frozen()
        self.policy = policy
        self.budget = budget
        self.governor = governor
        self.allow_negation = allow_negation
        self.null_counter = 0
        self.null_prefix = null_prefix
        self.depths: dict[Term, int] = {}
        self.steps = 0
        self.rounds = 0
        self.nulls_created = 0
        self.truncated: Optional[str] = None
        self.stats = ChaseStats()
        # Trigger keys applied or found satisfied (the trigger loop adds
        # those skipped for max_depth too), the unfired remainder of the
        # current round, and the triggers skipped for max_depth:
        # ``_deferred`` in this run, ``_retry`` before a resume (retried
        # at the next enumeration).
        self.fired: set[tuple] = set()
        self._pending: deque = deque()
        self._deferred: list[tuple] = []
        self._retry: list[tuple] = []
        # Reporting baselines for split RoundStats entries.
        self._rb_triggers = 0
        self._rb_steps = 0
        self._rb_atoms = len(self.database)
        self._rb_nulls = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        snapshot: ChaseSnapshot,
        budget: ChaseBudget,
        governor: Optional[ResourceGovernor] = None,
    ) -> "_Chase":
        engine = cls(
            snapshot.theory,
            snapshot.database,
            snapshot.policy,
            budget,
            snapshot.null_prefix,
            snapshot.allow_negation,
            governor=governor,
        )
        engine.depths = dict(snapshot.depths)
        engine.null_counter = snapshot.null_counter
        engine.steps = snapshot.steps
        engine.rounds = snapshot.rounds
        engine.nulls_created = snapshot.nulls_created
        engine.fired = set(snapshot.fired)
        engine._pending = deque(snapshot.pending)
        engine._retry = list(snapshot.deferred)
        engine.stats = ChaseStats(rounds=list(snapshot.stats_rounds))
        (
            engine._rb_triggers,
            engine._rb_steps,
            engine._rb_atoms,
            engine._rb_nulls,
        ) = snapshot.baselines
        engine._restore(snapshot)
        return engine

    def snapshot(self) -> ChaseSnapshot:
        return ChaseSnapshot(
            theory=self.theory,
            policy=self.policy,
            null_prefix=self.null_prefix,
            allow_negation=self.allow_negation,
            database=self.database.copy(),
            null_counter=self.null_counter,
            steps=self.steps,
            rounds=self.rounds,
            nulls_created=self.nulls_created,
            depths=dict(self.depths),
            fired=set(self.fired),
            pending=list(self._pending),
            deferred=self._retry + self._deferred,
            stats_rounds=list(self.stats.rounds),
            baselines=(
                self._rb_triggers,
                self._rb_steps,
                self._rb_atoms,
                self._rb_nulls,
            ),
            **self._loop_state(),
        )

    def _restore(self, snapshot: ChaseSnapshot) -> None:
        raise NotImplementedError

    def _loop_state(self) -> dict:
        raise NotImplementedError

    def seed(self, facts) -> None:
        """Insert base facts into a completed fixpoint and make them the
        next round's delta (:func:`extend_chase`)."""
        raise NotImplementedError

    def _loop(self, obs) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _fresh_null(self) -> Null:
        while True:
            null = Null(f"{self.null_prefix}{self.null_counter}")
            self.null_counter += 1
            if not self.database.has_term(null):
                return null

    def _mint(self, depth: int) -> Null:
        """A fresh null for a trigger of the given depth."""
        null = self._fresh_null()
        self.depths[null] = depth + 1
        self.nulls_created += 1
        return null

    def _too_deep(self, depth: int) -> bool:
        """Would a null minted by a trigger of this depth break
        ``max_depth``?  Marks the run incomplete if so."""
        max_depth = self.budget.max_depth
        if max_depth is not None and depth + 1 > max_depth:
            self.truncated = "max_depth"
            return True
        return False

    def _rounds_spent(self) -> bool:
        max_rounds = self.budget.max_rounds
        return max_rounds is not None and self.rounds >= max_rounds

    def _over_budget(self) -> Optional[str]:
        budget = self.budget
        if budget.max_steps is not None and self.steps >= budget.max_steps:
            return "max_steps"
        if budget.max_atoms is not None and len(self.database) >= budget.max_atoms:
            return "max_atoms"
        if budget.max_nulls is not None and self.nulls_created >= budget.max_nulls:
            return "max_nulls"
        return None

    def _limit_reason(self, tick: bool) -> Optional[str]:
        """Count budgets first, then the governor (one tick per unit)."""
        reason = self._over_budget()
        if reason is not None:
            return reason
        if self.governor is not None:
            return self.governor.tick() if tick else self.governor.poll()
        return None

    def _negation_blocked(self, rule: Rule, assignment: dict[Variable, Term]) -> bool:
        for negated in rule.negative_body():
            grounded = negated.atom.substitute(assignment)
            if grounded in self.database:
                return True
        return False

    def _record_round(self, obs, counted: int = 0) -> None:
        """Report counters accumulated since the last report for the
        current round (supports split reporting across a budget cut).
        ``counted`` of the round's new atoms are already in
        ``atoms_derived``."""
        round_stats = RoundStats(
            round=self.rounds,
            triggers_enumerated=self._rb_triggers,
            triggers_fired=self.steps - self._rb_steps,
            atoms_added=len(self.database) - self._rb_atoms,
            nulls_created=self.nulls_created - self._rb_nulls,
        )
        self.stats.rounds.append(round_stats)
        self._rb_triggers = 0
        self._rb_steps = self.steps
        self._rb_atoms = len(self.database)
        self._rb_nulls = self.nulls_created
        if obs is not None:
            obs.inc("chase.triggers_enumerated", round_stats.triggers_enumerated)
            obs.inc("triggers_fired", round_stats.triggers_fired)
            obs.inc("atoms_derived", round_stats.atoms_added - counted)
            obs.inc("nulls_created", round_stats.nulls_created)
            obs.observe("chase.delta_size", round_stats.atoms_added)

    def run(self) -> ChaseResult:
        obs = _obs_current()
        run_span = (
            obs.span("chase", policy=self.policy, rules=len(self.theory))
            if obs is not None
            else nullcontext()
        )
        with run_span as span:
            self._loop(obs)
            if obs is not None:
                obs.inc("chase.rounds", self.rounds)
                span.set(
                    atoms=len(self.database),
                    steps=self.steps,
                    rounds=self.rounds,
                    nulls=self.nulls_created,
                    truncated=self.truncated,
                )
        complete = self.truncated is None
        return ChaseResult(
            database=self.database,
            complete=complete,
            steps=self.steps,
            rounds=self.rounds,
            nulls_created=self.nulls_created,
            truncated_reason=self.truncated,
            null_depths={
                term: depth
                for term, depth in self.depths.items()
                if isinstance(term, Null)
            },
            stats=self.stats,
            snapshot=self.snapshot() if not complete else None,
        )


class _TriggerLoop(_Chase):
    """The per-trigger loop of Section 2 (oblivious and skolem)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # skolem policy: one null per (rule, existential var, frontier image)
        self.skolem_cache: dict[tuple, Null] = {}
        # round-in-progress state (persisted by snapshots): the atoms
        # the current round added so far, and the previous round's.
        self._started = False
        self._delta: Optional[set[Atom]] = None
        self._round_added: set[Atom] = set()
        # relation → [(rule index, body atom index)] for delta-driven
        # trigger discovery; rules are only visited when a delta atom
        # matches one of their body relations.  Bodies and sorted
        # universal-variable tuples are computed once here: trigger
        # enumeration and keying re-use them every round (and the stable
        # body tuples key the join-plan cache).
        self._body_index: dict[tuple, list[tuple[int, int]]] = {}
        self._bodies: list[tuple[Atom, ...]] = []
        self._sorted_uvars: list[tuple[Variable, ...]] = []
        self._sorted_frontiers: list[tuple[Variable, ...]] = []
        for rule_index, rule in enumerate(self.theory):
            body = tuple(rule.positive_body())
            self._bodies.append(body)
            self._sorted_uvars.append(_by_name(rule.uvars()))
            self._sorted_frontiers.append(_by_name(rule.frontier()))
            for atom_index, atom in enumerate(body):
                self._body_index.setdefault(atom.relation_key, []).append(
                    (rule_index, atom_index)
                )

    def _restore(self, snapshot: ChaseSnapshot) -> None:
        self.fired.difference_update(
            self._trigger_key(*trigger) for trigger in self._retry
        )
        self.skolem_cache = dict(snapshot.skolem_cache)
        self._started = snapshot.started
        self._delta = set(snapshot.delta) if snapshot.delta is not None else None
        self._round_added = set(snapshot.round_added)

    def _loop_state(self) -> dict:
        return {
            "skolem_cache": dict(self.skolem_cache),
            "started": self._started,
            "delta": set(self._delta) if self._delta is not None else None,
            "round_added": set(self._round_added),
        }

    def seed(self, facts) -> None:
        added: set[Atom] = set()
        for fact in facts:
            if self.database.add(fact):
                added.add(fact)
        self._started = True
        self._delta = added
        self._rb_atoms = len(self.database)

    def _depth(self, term: Term) -> int:
        return self.depths.get(term, 0)

    def _trigger_key(self, rule_index: int, rule: Rule, assignment) -> tuple:
        ordered = tuple(
            assignment[variable] for variable in self._sorted_uvars[rule_index]
        )
        return (rule_index, ordered)

    def _enumerate_triggers(
        self, delta: Optional[set[Atom]]
    ) -> list[tuple[int, Rule, dict[Variable, Term]]]:
        """Unfired triggers against the current database.

        ``delta=None`` (first round) enumerates everything; afterwards a
        trigger must use at least one atom added in the previous round
        (semi-naive discovery — every new trigger involves a new atom).
        Triggers skipped for ``max_depth`` before a resume are retried
        here."""
        triggers = []
        seen_keys: set[tuple] = set()

        def consider(rule_index: int, rule: Rule, assignment) -> None:
            key = self._trigger_key(rule_index, rule, assignment)
            if key in self.fired or key in seen_keys:
                return
            if self._negation_blocked(rule, assignment):
                return
            seen_keys.add(key)
            triggers.append((rule_index, rule, assignment))

        for trigger in self._retry:
            consider(*trigger)
        if delta is None:
            for rule_index, rule in enumerate(self.theory):
                body = self._bodies[rule_index]
                for assignment in homomorphisms(body, self.database):
                    consider(rule_index, rule, assignment)
        else:
            delta_by_relation: dict[tuple, list[Atom]] = {}
            for fact in delta:
                delta_by_relation.setdefault(fact.relation_key, []).append(fact)
            rules = self.theory.rules
            for relation_key, facts in delta_by_relation.items():
                for rule_index, atom_index in self._body_index.get(
                    relation_key, ()
                ):
                    rule = rules[rule_index]
                    body = self._bodies[rule_index]
                    for assignment in homomorphisms(
                        body, self.database, forced=(atom_index, facts)
                    ):
                        consider(rule_index, rule, assignment)
        # deterministic firing order
        sorted_uvars = self._sorted_uvars
        triggers.sort(
            key=lambda item: (
                item[0],
                tuple(
                    str(item[2][variable])
                    for variable in sorted_uvars[item[0]]
                ),
            )
        )
        return triggers

    def _apply(
        self, rule_index: int, rule: Rule, assignment: dict[Variable, Term]
    ) -> set[Atom]:
        """Fire one trigger.  Returns the atoms actually added."""
        trigger_depth = max(
            (self._depth(term) for term in assignment.values()), default=0
        )
        self.fired.add(self._trigger_key(rule_index, rule, assignment))
        if rule.exist_vars and self._too_deep(trigger_depth):
            # Fired for this run (a driver that re-enumerates every
            # round must not meet it again); a resume retries it.
            self._deferred.append((rule_index, rule, assignment))
            return set()
        mapping: dict[Term, Term] = dict(assignment)
        frontier_image = tuple(
            assignment[v] for v in self._sorted_frontiers[rule_index]
        )
        for variable in rule.exist_vars:
            if self.policy == SKOLEM:
                skolem_key = (rule_index, variable.name, frontier_image)
                null = self.skolem_cache.get(skolem_key)
                if null is None:
                    null = self.skolem_cache[skolem_key] = self._mint(
                        trigger_depth
                    )
            else:
                null = self._mint(trigger_depth)
            mapping[variable] = null
        added: set[Atom] = set()
        for atom in rule.head:
            grounded = atom.substitute(mapping)
            if self.database.add(grounded):
                added.add(grounded)
        self.steps += 1
        return added

    def _loop(self, obs) -> None:
        while True:
            if not self._pending:
                reason = self._limit_reason(tick=False)
                if reason is not None:
                    self.truncated = reason
                    return
                triggers = self._enumerate_triggers(
                    self._delta if self._started else None
                )
                if not triggers:
                    return
                if self._rounds_spent():
                    self.truncated = "max_rounds"
                    return
                self._started = True
                self._retry = []
                self.rounds += 1
                self._pending = deque(triggers)
                self._round_added = set()
                self._rb_triggers = len(triggers)
            while self._pending:
                reason = self._limit_reason(tick=True)
                if reason is not None:
                    self.truncated = reason
                    self._record_round(obs)
                    return
                rule_index, rule, assignment = self._pending.popleft()
                self._round_added |= self._apply(rule_index, rule, assignment)
            self._record_round(obs)
            self._delta = set(self._round_added)
            self._round_added = set()


class _ExistentialRule(NamedTuple):
    """An existential rule as the restricted loop enumerates it.  Its
    Datalog *image rule* has the same body and projects each body image
    onto ``frontier`` then the other universal variables (each sorted by
    name), so a trigger's frontier image is a prefix of its image row."""

    rule: Rule
    frontier: tuple[Variable, ...]
    image: Rule


class _DatalogFirst(_Chase):
    """The restricted chase, Datalog-first (see the module docstring)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._datalog = [rule for rule in self.theory if not rule.exist_vars]
        # rule index → existential rule, in rule order
        self._existential: dict[int, _ExistentialRule] = {}
        for index, rule in enumerate(self.theory):
            if not rule.exist_vars:
                continue
            frontier = _by_name(rule.frontier())
            variables = frontier + _by_name(rule.uvars() - rule.frontier())
            image = Rule(rule.body, (Atom(f"{_IMAGE}{index}", variables),))
            self._existential[index] = _ExistentialRule(rule, frontier, image)
        self._image_rules = [spec.image for spec in self._existential.values()]
        self._phase = DATALOG_PHASE
        self._datalog_delta: Optional[dict] = None
        self._pass_marks: Optional[dict] = None
        self._round_open = False
        # Datalog facts since the last round report: the Datalog loop
        # counts them in ``atoms_derived`` itself.
        self._datalog_facts = 0

    def _restore(self, snapshot: ChaseSnapshot) -> None:
        self._phase = snapshot.phase
        self._datalog_delta = _copy(snapshot.datalog_delta)
        self._pass_marks = _copy(snapshot.pass_marks)
        self._round_open = snapshot.round_open

    def _loop_state(self) -> dict:
        return {
            "phase": self._phase,
            "datalog_delta": _copy(self._datalog_delta),
            "pass_marks": _copy(self._pass_marks),
            "round_open": self._round_open,
        }

    def seed(self, facts) -> None:
        marks = self._sizes()
        for fact in facts:
            self.database.add(fact)
        self._pass_marks = marks
        self._datalog_delta = self._new_since(marks)
        self._rb_atoms = len(self.database)

    # -- deltas as row-ordinal marks -----------------------------------
    def _sizes(self) -> dict[RelationKey, int]:
        return {
            key: relation.n_rows
            for key, relation in self.database._relations.items()
        }

    def _new_since(self, marks: Optional[dict]) -> Optional[dict]:
        """Relation key → first row ordinal past ``marks`` (``None``
        before the first pass: everything is new)."""
        if marks is None:
            return None
        return {
            key: marks.get(key, 0)
            for key, relation in self.database._relations.items()
            if relation.n_rows > marks.get(key, 0)
        }

    # -- rounds --------------------------------------------------------
    def _open_round(self) -> None:
        """Count the current round once it does its first work."""
        if not self._round_open:
            self._round_open = True
            self.rounds += 1

    def _round_has_work(self) -> bool:
        """Would the next round derive a Datalog fact or enumerate an
        existential trigger?  Decides a ``max_rounds`` cut."""
        if self._retry or would_derive(
            self._datalog, self.database, self._datalog_delta
        ):
            return True
        return bool(self._enumerate(self._new_since(self._pass_marks)))

    def _datalog_tick(self, added: int) -> Optional[str]:
        """Before each Datalog iteration: account the previous one's
        facts as steps, then count budgets and one governor tick."""
        if added:
            self.steps += added
            self._datalog_facts += added
            self._open_round()
        return self._limit_reason(tick=True)

    def _report(self, obs) -> None:
        if self._round_open:
            self._record_round(obs, self._datalog_facts)
            self._datalog_facts = 0

    def _cut(self, reason: str, obs) -> None:
        self.truncated = reason
        self._report(obs)

    def _loop(self, obs) -> None:
        while True:
            if self._phase == DATALOG_PHASE:
                if not self._round_open and self._rounds_spent():
                    if self._round_has_work():
                        self.truncated = "max_rounds"
                    return
                reason, self._datalog_delta = seminaive(
                    self._datalog,
                    self.database,
                    self._datalog_delta,
                    self._datalog_tick,
                    obs,
                )
                if reason is not None:
                    self._cut(reason, obs)
                    return
                self._begin_pass()
            while self._pending:
                reason = self._limit_reason(tick=True)
                if reason is not None:
                    self._cut(reason, obs)
                    return
                self._fire(self._pending.popleft())
            self._report(obs)
            pass_added = len(self.database) - sum(self._pass_marks.values())
            self._phase = DATALOG_PHASE
            self._datalog_delta = self._new_since(self._pass_marks)
            self._round_open = False
            if not pass_added:
                return

    # -- the existential pass ------------------------------------------
    def _begin_pass(self) -> None:
        delta = self._new_since(self._pass_marks)
        self._pass_marks = self._sizes()
        self._phase = EXISTENTIAL_PHASE
        triggers = self._enumerate(delta)
        self._retry = []
        if triggers:
            self._open_round()
            self._rb_triggers += len(triggers)
        self._pending = deque(triggers)

    def _enumerate(self, delta: Optional[dict]) -> list[tuple]:
        """The existential triggers that use a row of ``delta`` (every
        trigger when ``None``), plus those retried after a resume: one
        ``(rule index, frontier image, depth)`` per unfired (rule,
        frontier image) pair, carrying the shallowest depth among its
        body images, in deterministic order."""
        database = self.database
        staged = derivations(self._image_rules, database, delta)
        depth_of = None
        if self.depths:
            ids = database._symtab._ids
            depth_of = {
                ids[term]: depth
                for term, depth in self.depths.items()
                if term in ids
            }
        terms = database._symtab._terms
        fired = self.fired
        best: dict[tuple, int] = {}
        for rule_index, spec in self._existential.items():
            width = len(spec.frontier)
            shallowest: dict[tuple, int] = {}
            for row in staged.get(spec.image.head[0].relation_key, ()):
                image = row[:width]
                depth = 0
                if depth_of is not None:
                    depth = max([depth_of.get(i, 0) for i in row], default=0)
                if depth < shallowest.get(image, depth + 1):
                    shallowest[image] = depth
            for image, depth in shallowest.items():
                key = (rule_index, tuple([terms[i] for i in image]))
                if key not in fired:
                    best[key] = depth
        for rule_index, image, depth in self._retry:
            key = (rule_index, image)
            if key not in fired and depth < best.get(key, depth + 1):
                best[key] = depth
        triggers = [(key[0], key[1], depth) for key, depth in best.items()]
        triggers.sort(key=lambda item: (item[0], tuple(map(str, item[1]))))
        return triggers

    def _fire(self, trigger: tuple) -> None:
        """Apply one existential trigger unless its head is satisfied."""
        rule_index, image, depth = trigger
        spec = self._existential[rule_index]
        rule = spec.rule
        assignment: dict[Variable, Term] = dict(zip(spec.frontier, image))
        if extends_to_head(rule.head, rule.exist_vars, self.database, assignment):
            self.fired.add((rule_index, image))
            return
        if self._too_deep(depth):
            self._deferred.append(trigger)
            return
        self.fired.add((rule_index, image))
        for variable in rule.exist_vars:
            assignment[variable] = self._mint(depth)
        for atom in rule.head:
            self.database.add(atom.substitute(assignment))
        self.steps += 1


def _copy(marks: Optional[dict]) -> Optional[dict]:
    return dict(marks) if marks is not None else None


_LOOPS: dict[str, type[_Chase]] = {
    OBLIVIOUS: _TriggerLoop,
    SKOLEM: _TriggerLoop,
    RESTRICTED: _DatalogFirst,
}


def _engine(
    policy: str,
    theory: Theory,
    database: Database,
    budget: Optional[ChaseBudget],
    null_prefix: str,
    allow_negation: bool,
    governor: Optional[ResourceGovernor],
) -> _Chase:
    loop = _LOOPS.get(policy)
    if loop is None:
        raise InvalidTheoryError(f"unknown chase policy {policy!r}")
    return loop(
        theory,
        database,
        policy,
        budget or ChaseBudget(),
        null_prefix,
        allow_negation,
        governor=resolve_governor(governor),
    )


def chase(
    theory: Theory,
    database: Database,
    *,
    policy: str = OBLIVIOUS,
    budget: Optional[ChaseBudget] = None,
    null_prefix: str = "n",
    governor: Optional[ResourceGovernor] = None,
    _allow_negation: bool = False,
) -> ChaseResult:
    """Run the chase of ``database`` with ``theory``.

    ``policy=OBLIVIOUS`` fires every trigger exactly once (the paper's
    definition, Section 2); ``policy=SKOLEM`` (semi-oblivious) reuses one
    null per (rule, existential variable, frontier image) — the semantics
    under which joint acyclicity guarantees termination.  Both run the
    per-trigger loop, breadth-first.  ``policy=RESTRICTED`` runs
    Datalog-first: each round takes the existential-free rules to a
    fixpoint on the Datalog engine's semi-naive loop, then fires the new
    existential triggers whose head is not yet satisfied — smaller
    results, same certain answers (see the module docstring).

    ``governor`` adds deadline/cancellation control (defaults to the
    ambient governor, see :func:`repro.robustness.governor.governed`).
    """
    return _engine(
        policy, theory, database, budget, null_prefix, _allow_negation, governor
    ).run()


def extend_chase(
    theory: Theory,
    database: Database,
    new_facts,
    *,
    policy: str = RESTRICTED,
    budget: Optional[ChaseBudget] = None,
    null_prefix: str = "n",
    governor: Optional[ResourceGovernor] = None,
) -> ChaseResult:
    """Resume a *terminated* chase fixpoint after inserting base facts.

    ``database`` must be a completed chase result of ``theory`` (under
    the same policy); ``new_facts`` are the freshly inserted base facts.
    The engine seeds the semi-naive frontier with the genuinely new
    atoms and fires only triggers that involve at least one of them —
    the delta-restricted chase behind ``repro.incremental``.  Triggers
    over pre-existing atoms alone need no revisit: insertion is
    monotone, so a head satisfied in the old fixpoint stays satisfied
    (the engine runs ``RESTRICTED`` by default for exactly this
    reason).  Returns a :class:`ChaseResult` whose database is the new
    fixpoint; the input database is not mutated.

    Not sound after a *retraction*: removed atoms may have supported
    null-introducing derivations, so callers must fall back to a full
    recompute (``repro.incremental`` reports that fallback explicitly).

    Refuses a theory that reads ``ACDom`` with
    :class:`~repro.robustness.errors.InvalidRequestError`: a new constant
    enlarges the input's active domain, and since ``ACDom`` is virtual no
    delta atom pins a trigger that reaches the new constant through it
    (``P(x), ACDom(y) -> Q(x, y)`` extended by ``P(b)`` misses
    ``Q(a, b)``).  Recompute instead.
    """
    if ACDOM in theory.relations():
        raise InvalidRequestError(
            f"extend_chase cannot resume a theory that reads {ACDOM}: "
            "new constants join the active domain, and no inserted atom "
            "pins the triggers that reach them through it; recompute"
        )
    engine = _engine(
        policy, theory, database, budget, null_prefix, False, governor
    )
    engine.seed(new_facts)
    return engine.run()


def resume_chase(
    snapshot: ChaseSnapshot,
    *,
    budget: Optional[ChaseBudget] = None,
    governor: Optional[ResourceGovernor] = None,
) -> ChaseResult:
    """Continue an interrupted chase from its :class:`ChaseSnapshot` under
    a fresh budget, without recomputation.

    Counters (``steps``, ``rounds``, ``nulls_created``) continue from the
    snapshot, so budgets on the resumed run are interpreted against the
    *cumulative* run — pass a larger (or unlimited) budget to make
    progress.  A run resumed after a cut produces a final result equal to
    the uninterrupted run (same atoms, same null names).
    """
    engine = _LOOPS[snapshot.policy].from_snapshot(
        snapshot, budget or ChaseBudget(), governor=resolve_governor(governor)
    )
    return engine.run()


def entails(
    theory: Theory,
    database: Database,
    atom: Atom,
    *,
    budget: Optional[ChaseBudget] = None,
    policy: str = RESTRICTED,
    governor: Optional[ResourceGovernor] = None,
) -> bool:
    """Check ``Σ, D |= α`` for a ground atom ``α`` via the chase.

    Uses the restricted chase by default (sound and complete for ground
    atomic entailment when the chase terminates).  Raises
    :class:`~repro.robustness.errors.BudgetExceeded` (a ``RuntimeError``)
    when the budget is exhausted before the atom is derived — in that case
    entailment is unknown.
    """
    if not atom.is_ground():
        raise InvalidRequestError(
            f"entailment is defined for ground atoms, got {atom}"
        )
    result = chase(
        theory, database, policy=policy, budget=budget, governor=governor
    )
    if atom in result.database:
        return True
    if not result.complete:
        reason = result.truncated_reason or "budget"
        raise exhausted_error(
            reason,
            f"chase truncated ({reason}); entailment undecided",
            Outcome(
                value=result,
                complete=False,
                exhausted=reason,
                snapshot=result.snapshot,
            ),
        )
    return False


def try_certain_answers(
    query: Query,
    database: Database,
    *,
    budget: Optional[ChaseBudget] = None,
    policy: str = RESTRICTED,
    governor: Optional[ResourceGovernor] = None,
) -> Outcome[set[tuple[Constant, ...]]]:
    """Graceful ``ans((Σ,Q), D)``: certain answers with degradation.

    The outcome's ``value`` holds the all-constant output tuples found in
    the (possibly partial) chase.  On exhaustion the answer set is *sound
    but possibly incomplete* — every tuple present is a certain answer,
    some certain answers may be missing — and ``snapshot`` resumes the
    underlying chase.
    """
    result = chase(query.theory, database, policy=policy, budget=budget,
                   governor=governor)
    answers = answers_in(result.database, query.output)
    return Outcome(
        value=answers,
        complete=result.complete,
        exhausted=None if result.complete else result.truncated_reason,
        sound=True,
        snapshot=result.snapshot,
    )


def certain_answers(
    query: Query,
    database: Database,
    *,
    budget: Optional[ChaseBudget] = None,
    policy: str = RESTRICTED,
    governor: Optional[ResourceGovernor] = None,
) -> set[tuple[Constant, ...]]:
    """``ans((Σ,Q), D)`` — constant tuples ``~c`` with ``Q(~c)`` in the chase.

    Per Section 2 only all-constant tuples are answers; tuples containing
    nulls are filtered out.  Raises a typed
    :class:`~repro.robustness.errors.BudgetExceeded` /
    :class:`~repro.robustness.errors.Cancelled` on exhaustion (both are
    ``RuntimeError`` subclasses; the partial outcome rides on the
    exception's ``outcome`` attribute).  Use :func:`try_certain_answers`
    for the non-raising variant.
    """
    outcome = try_certain_answers(
        query, database, budget=budget, policy=policy, governor=governor
    )
    if not outcome.complete:
        reason = outcome.exhausted or "budget"
        raise exhausted_error(
            reason, f"chase truncated ({reason}); answers unreliable", outcome
        )
    return outcome.value
