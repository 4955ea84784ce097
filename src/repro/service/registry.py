"""Content-addressed registry of compiled theories.

A one-shot CLI invocation pays the full preparation pipeline — parse,
lint, classify, translate, plan-compile — on *every* call.  A server
must pay it **once per theory**: the registry caches the whole prepared
artifact (:class:`CompiledTheory`) under the SHA-256 of the rule text,
with bounded LRU eviction so a long-lived process cannot accumulate
unbounded translations.

Compilation performs, in order (each under an ``obs`` span when
instrumentation is active):

1. **parse** — :func:`repro.core.parser.parse_theory`;
2. **lint** — :func:`repro.analysis.analyze`; the severity summary is
   recorded on the artifact, and a ``strict`` registry refuses theories
   with error-level diagnostics at admission time (the service's
   "don't accept work we know is broken" gate);
3. **classify** and **advise** — the Figure 1 lattice and the strategy
   advisor's verdict;
4. **translate** — :func:`repro.translate.pipeline.plan_answering`
   picks the strategy and precomputes its database-independent half:
   the Datalog program, or the Theorem 2 rewriting for the WFG pipeline;
5. **plan-compile** — the join plans the semi-naive engine will request
   for the translated program's rule bodies (unforced + delta-pinned),
   so the first query after registration already runs on warm plans.

Per-query work (``CompiledTheory.answer``) then touches only the
database-dependent stages, the plan's ``materialize`` and ``decode``,
with the registry's caches around them.  Answers honour the ambient
:class:`~repro.robustness.governor.ResourceGovernor`, so the server's
per-request deadlines reach every engine without new plumbing.

Each compiled theory holds the models of its databases in one LRU keyed
by database content hash.  An entry is the database's live model
(:mod:`repro.incremental`) once an update has touched it, and before
that the complete model with the input database it was computed from,
or the model read from a snapshot file, which keeps no input.  A
request may name its database by that key alone (``db_key``, no
database).  A query resolves the key from the table, then from the
key's snapshot file, which a miss reads once.  An update resolves it
from the table, and the first update adopts the held model into live
maintenance with its input; a snapshot's model needs the database text.
When nothing holds the key the call raises :class:`UnknownDatabase`
before it changes any state, and the caller sends the database itself.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from ..analysis import Severity, advise, analyze
from ..chase.runner import ChaseBudget
from ..core.database import Database
from ..core.parser import parse_theory
from ..core.plan import cached_plan
from ..core.store import SnapshotError, load_snapshot, save_snapshot
from ..core.terms import Constant
from ..core.theory import Theory
from ..guardedness.classify import Classification, classify
from ..incremental.engine import (
    ChaseLiveModel,
    LiveModel,
    RecomputeLiveModel,
    UpdateStats,
)
from ..obs.runtime import current as _obs_current
from ..obs.runtime import span as _obs_span
from ..robustness.errors import InvalidRequestError, InvalidTheoryError
from ..robustness.outcome import Outcome
from ..translate.annotations import WfgRewriting
from ..translate.pipeline import (
    STRATEGY_CHASE,
    STRATEGY_DATALOG,
    STRATEGY_TRANSLATE,
    STRATEGY_WFG,
    AnsweringPlan,
    plan_answering,
)

__all__ = [
    "UnknownDatabase",
    "STRATEGY_DATALOG",
    "STRATEGY_TRANSLATE",
    "STRATEGY_WFG",
    "STRATEGY_CHASE",
    "CompiledTheory",
    "TheoryRegistry",
    "content_hash",
    "compile_theory",
]

#: What a client may *request*: ``auto`` runs the advisor's strategy
#: (``plan_answering``'s default); ``chase`` forces the budgeted
#: restricted chase, for operators who know better than the ladder.
REQUESTABLE_STRATEGIES = ("auto", "chase")


class UnknownDatabase(LookupError):
    """A database named only by its key that nothing holds: no model in
    the table or snapshot file for a query, no live model or input for
    an update (a respawned worker, an evicted entry, a recompiled
    theory, a model read from a snapshot, or a worker that never saw
    the database)."""

    def __init__(self, db_key: Optional[str]) -> None:
        super().__init__(f"no model held for database {db_key}")
        self.db_key = db_key


class _Static(NamedTuple):
    """A held complete model that no update has taken into live
    maintenance: a query's materialization with the input database it
    was computed from, by reference, or a model read from a snapshot
    file (``edb`` ``None``: the file keeps no input facts)."""

    model: Database
    edb: Optional[Database]


def content_hash(text: str) -> str:
    """The registry key: SHA-256 of the exact rule text.

    Deliberately *textual* — two formattings of one theory compile twice
    rather than risk a canonicalization bug conflating distinct theories.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CompiledTheory:
    """Everything database-independent, prepared once — plus a small
    LRU of the databases' models, keyed by content hash.  A worker that
    answers many queries against the same knowledge base computes the
    model once and serves every subsequent output relation by scanning
    it, which is where the bulk of cross-request warmth comes from."""

    content_hash: str
    text: str
    labels: Classification
    #: The answering plan: strategy, translated artifact, advice and
    #: fallback reason.
    plan: AnsweringPlan
    lint_summary: dict[str, int]
    materialization_capacity: int = 8
    plans_compiled: int = field(default=0, compare=False)
    #: Directory of persistent materialization snapshots (``None`` off).
    snapshot_dir: Optional[str] = None
    #: Registry-shared counter dict (``materializations`` /
    #: ``snapshot_loads`` / ``snapshot_saves`` / ``snapshot_errors``);
    #: ``None`` when compiled outside a registry.
    counters: Optional[dict] = field(default=None, repr=False, compare=False)
    #: Database content hash -> its live model, or a :class:`_Static`
    #: model until an update adopts it; least recently used first, at
    #: most ``materialization_capacity`` entries.  Every successful
    #: update re-keys its entry to the post-update hash.
    _held: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def theory(self) -> Theory:
        return self.plan.theory

    @property
    def strategy(self) -> str:
        return self.plan.strategy

    @property
    def program(self) -> Optional[Theory]:
        return self.plan.program

    @property
    def rewriting(self) -> Optional[WfgRewriting]:
        return self.plan.rewriting

    @property
    def advice(self) -> Optional[dict]:
        advice = self.plan.advice
        return advice.to_dict() if advice is not None else None

    @property
    def advice_fallback(self) -> bool:
        return self.plan.fallback is not None

    def describe(self) -> dict:
        """The JSON-safe registration summary sent over the wire."""
        return {
            "theory": self.content_hash,
            "rules": len(self.theory),
            "classes": list(self.labels.names()),
            "strategy": self.strategy,
            "lint": dict(self.lint_summary),
            "advice": self.advice,
            "advice_fallback": self.advice_fallback,
            "plans_compiled": self.plans_compiled,
        }

    # ------------------------------------------------------------------
    def _count(self, key: str) -> None:
        counters = self.counters
        if counters is not None:
            counters[key] = counters.get(key, 0) + 1

    def _snapshot_path(self, db_key: str) -> str:
        # Theory SHA + database content hash + strategy *is* the cache
        # key contract: all three are also embedded in the file header
        # and re-verified on load, so a renamed or stale file can never
        # serve the wrong model.
        assert self.snapshot_dir is not None
        return os.path.join(
            self.snapshot_dir,
            f"{self.content_hash[:20]}-{db_key[:20]}-{self.strategy}.snap",
        )

    def _snapshot_load(self, db_key: str) -> Optional[Database]:
        """The model in ``db_key``'s snapshot file; ``None`` when there
        is no readable file."""
        if self.snapshot_dir is None:
            return None
        path = self._snapshot_path(db_key)
        try:
            fixpoint = load_snapshot(
                path,
                expect_theory=self.content_hash,
                expect_db_key=db_key,
                expect_strategy=self.strategy,
            )
        except FileNotFoundError:
            return None
        except SnapshotError:
            # Corrupted/truncated/mismatched: fall back to recomputing.
            self._count("snapshot_errors")
            return None
        self._count("snapshot_loads")
        return fixpoint

    def _snapshot_save(self, db_key: str, fixpoint: Database) -> None:
        """Persist a *complete* materialization (callers gate on
        completeness — the PR 5/8 invariant: truncated models are never
        cached, in memory or on disk)."""
        if self.snapshot_dir is None:
            return
        path = self._snapshot_path(db_key)
        if os.path.exists(path):
            return
        try:
            save_snapshot(
                fixpoint,
                path,
                theory=self.content_hash,
                db_key=db_key,
                strategy=self.strategy,
            )
        except (OSError, SnapshotError):
            self._count("snapshot_errors")
            return
        self._count("snapshot_saves")

    # ------------------------------------------------------------------
    def _hold(self, db_key: str, held) -> None:
        """Hold a live or static *complete* model under ``db_key``, most
        recently used, evicting the least recently used beyond the
        capacity (a deadline-truncated model must never poison later
        requests, so callers gate on completeness)."""
        table = self._held
        table.pop(db_key, None)
        obs = _obs_current()
        while len(table) >= self.materialization_capacity:
            table.pop(next(iter(table)))
            if obs is not None:
                obs.inc("service.materialize.evictions")
        table[db_key] = held

    def _lookup(self, db_key: Optional[str]):
        """What the table holds for ``db_key``, made most recently used;
        a miss reads the key's snapshot file, whose model is then held
        without an input.  ``None`` when nothing holds the key."""
        if db_key is None:
            return None
        held = self._held.pop(db_key, None)
        obs = _obs_current()
        if held is None:
            if obs is not None:
                obs.inc("service.materialize.misses")
            model = self._snapshot_load(db_key)
            if model is None:
                return None
            held = _Static(model, None)
            self._hold(db_key, held)
            return held
        self._held[db_key] = held
        if obs is not None:
            obs.inc("service.materialize.hits")
        return held

    def _live_model(
        self,
        database: Database,
        model: Optional[Database],
        budget: Optional[ChaseBudget] = None,
    ):
        """The live model of ``database``, adopting ``model`` (its
        complete model) when given and materializing it otherwise."""
        plan = self.plan
        if plan.program is not None:
            return LiveModel(plan.program, database, model=model)
        if plan.rewriting is not None:
            return RecomputeLiveModel(
                lambda edb: plan.materialize(edb).value,
                database,
                reason="wfg_grounding",
                model=model,
            )
        return ChaseLiveModel(plan.theory, database, budget=budget, model=model)

    def answer(
        self,
        database: Optional[Database],
        output: str,
        *,
        budget: Optional[ChaseBudget] = None,
        db_key: Optional[str] = None,
    ) -> Outcome[set[tuple[Constant, ...]]]:
        """Certain answers over ``database`` — the per-request hot path.

        Only database-dependent stages run here; every engine reached
        resolves the ambient governor, so a ``governed()`` scope around
        this call bounds the whole computation.  ``db_key`` (the
        database's content hash) names the held model; pass ``None`` to
        force a fresh computation that nothing holds.  With ``database``
        ``None`` the key alone names the database, and a key with no
        model raises :class:`UnknownDatabase`.  Returns an
        :class:`Outcome` (the chase strategy degrades to sound partials;
        the fixpoint strategies either finish or raise the typed
        exhaustion error, which the caller maps to a partial response).
        """
        if output not in self.theory.relations():
            raise InvalidRequestError(
                f"output relation {output!r} does not occur in the theory"
            )
        plan = self.plan
        with _obs_span("service.answer", strategy=plan.strategy) as span:
            held = self._lookup(db_key)
            if span is not None:
                span.set(cache_hit=held is not None)
            if held is None:
                if database is None:
                    raise UnknownDatabase(db_key)
                self._count("materializations")
                with _obs_span("service.materialize", strategy=plan.strategy):
                    outcome = plan.materialize(database, budget)
                model = outcome.value
                if not outcome.complete:
                    # A cut-short chase: sound partial answers, never
                    # held (a complete model is budget-independent).
                    with _obs_span("service.cq_eval", output=output):
                        return replace(outcome, value=plan.decode(model, output))
                if db_key is not None:
                    self._hold(db_key, _Static(model, database))
                    self._snapshot_save(db_key, model)
            else:
                model = held.model
            with _obs_span("service.cq_eval", output=output):
                return Outcome(value=plan.decode(model, output), complete=True)

    def update(
        self,
        database: Optional[Database],
        inserts,
        retracts,
        *,
        db_key: Optional[str] = None,
        budget: Optional[ChaseBudget] = None,
    ) -> tuple[str, UpdateStats, object]:
        """Apply one insert/retract batch to the live model of
        ``database`` under ``budget``; returns ``(new_db_key, stats,
        live)``.

        With ``database`` ``None``, ``db_key`` must name a live model or
        a static model with its input in the table; otherwise
        :class:`UnknownDatabase` is raised before any state changes.  A
        live model is built from the input on the first update, adopting
        the model held or read from the key's snapshot file, and
        materializing one when there is none.  The live model leaves the
        table before the batch runs, so a batch cut short leaves nothing
        under the old key; a completed batch holds it, and persists its
        model as a ``{theory}-{db}-{strategy}`` snapshot, under the
        post-update hash — nothing ever asks for the old key again."""
        key = db_key
        if key is None and database is not None:
            key = database.content_hash()
        live = self._held.get(key)
        if live is None or isinstance(live, _Static):
            if database is None and live is not None:
                database = live.edb
            if database is None:
                raise UnknownDatabase(key)
            model = live.model if live is not None else self._snapshot_load(key)
            live = self._live_model(database, model, budget)
        self._held.pop(key, None)
        with _obs_span("service.update", strategy=self.strategy):
            stats = live.apply(inserts, retracts, budget=budget or ChaseBudget())
        new_key = live.edb.content_hash()
        self._count("updates")
        self._hold(new_key, live)
        self._snapshot_save(new_key, live.model)
        return new_key, stats, live


def _warm_plans(program: Theory) -> int:
    """Precompile the join plans the semi-naive engine will ask for.

    The engine keys plans by ``(positive_body tuple, ∅, forced_index)``
    with ``forced_index`` ranging over body atoms of IDB relations
    (delta pinning); atoms are interned, so compiling the same keys here
    makes the engine's first run hit the cache throughout."""
    idb = {atom.relation for rule in program.rules for atom in rule.head}
    compiled = 0
    empty: frozenset = frozenset()
    for rule in program.rules:
        body = rule.positive_body()
        if not body:
            continue
        cached_plan(body, empty, None)
        compiled += 1
        for index, atom in enumerate(body):
            if atom.relation in idb:
                cached_plan(body, empty, index)
                compiled += 1
    return compiled


def compile_theory(
    text: str,
    *,
    source: str = "<registered>",
    strict: bool = False,
    strategy: str = "auto",
    max_rules: int = 100_000,
    saturation_max_rules: int = 200_000,
    materialization_capacity: int = 8,
    snapshot_dir: Optional[str] = None,
    counters: Optional[dict] = None,
) -> CompiledTheory:
    """The full preparation pipeline, run exactly once per content hash.

    Raises :class:`~repro.core.parser.ParseError` on syntax errors and
    :class:`~repro.robustness.errors.InvalidTheoryError` when ``strict``
    and the linter reports error-level diagnostics."""
    if strategy not in REQUESTABLE_STRATEGIES:
        raise InvalidRequestError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{REQUESTABLE_STRATEGIES}"
        )
    digest = content_hash(text)
    with _obs_span("service.compile", theory=digest[:12]):
        with _obs_span("service.compile.parse"):
            theory = parse_theory(text, source=source)
        with _obs_span("service.compile.lint"):
            report = analyze(theory)
            summary = report.counts()
        if strict and report.at_least(Severity.ERROR):
            worst = report.errors()[0]
            raise InvalidTheoryError(
                f"theory rejected by strict lint gate: {len(report.errors())} "
                f"error diagnostic(s), first: [{worst.code}] {worst.message}"
            )
        with _obs_span("service.compile.classify"):
            labels = classify(theory)
        with _obs_span("service.compile.advise"):
            advice = advise(theory, labels=labels)
        with _obs_span("service.compile.translate"):
            plan = plan_answering(
                theory,
                strategy,
                max_rules=max_rules,
                saturation_max_rules=saturation_max_rules,
                advice=advice,
            )
        compiled = CompiledTheory(
            content_hash=digest,
            text=text,
            labels=labels,
            plan=plan,
            lint_summary=summary,
            materialization_capacity=materialization_capacity,
            snapshot_dir=snapshot_dir,
            counters=counters,
        )
        with _obs_span("service.compile.plans"):
            if plan.program is not None:
                compiled.plans_compiled = _warm_plans(plan.program)
            elif plan.rewriting is not None:
                # The grounded program is database-dependent; warming the
                # rewriting's rule bodies still covers the chase-free
                # prefix shared by every request.
                compiled.plans_compiled = _warm_plans(plan.rewriting.theory)
    return compiled


class TheoryRegistry:
    """Bounded LRU of :class:`CompiledTheory`, keyed by content hash.

    Not thread-safe: the server confines it to the event loop, each pool
    worker owns a private instance."""

    def __init__(
        self,
        capacity: int = 32,
        *,
        strict: bool = False,
        max_rules: int = 100_000,
        saturation_max_rules: int = 200_000,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise InvalidRequestError("registry capacity must be >= 1")
        self.capacity = capacity
        self.strict = strict
        self.max_rules = max_rules
        self.saturation_max_rules = saturation_max_rules
        self.snapshot_dir = snapshot_dir
        if snapshot_dir is not None:
            os.makedirs(snapshot_dir, exist_ok=True)
        self._entries: dict[str, CompiledTheory] = {}
        # The snapshot/materialization keys are shared with every
        # CompiledTheory this registry compiles (the ``counters`` field),
        # so per-artifact activity folds into one stats surface.
        self._stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "advisor_predicted_chase": 0,
            "advisor_fallbacks": 0,
            "materializations": 0,
            "snapshot_loads": 0,
            "snapshot_saves": 0,
            "snapshot_errors": 0,
            "updates": 0,
        }

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def get(self, digest: str) -> Optional[CompiledTheory]:
        """Look up by content hash, refreshing recency; ``None`` if
        absent (no counter traffic — misses here mean "ask the client
        for the text", not "recompile")."""
        entry = self._entries.get(digest)
        if entry is not None:
            del self._entries[digest]
            self._entries[digest] = entry
        return entry

    def register(
        self,
        text: str,
        *,
        source: str = "<registered>",
        strategy: str = "auto",
    ) -> CompiledTheory:
        """Compile-or-hit: the idempotent registration entry point.

        Re-registering the same text with a *different* requested
        strategy recompiles (the artifact shape depends on it); the new
        artifact replaces the old under the same content hash."""
        digest = content_hash(text)
        entry = self._entries.get(digest)
        obs = _obs_current()
        if entry is not None and strategy == entry.plan.requested:
            self._stats["hits"] += 1
            if obs is not None:
                obs.inc("service.registry.hits")
            del self._entries[digest]
            self._entries[digest] = entry
            return entry
        self._stats["misses"] += 1
        if obs is not None:
            obs.inc("service.registry.misses")
        entry = compile_theory(
            text,
            source=source,
            strict=self.strict,
            strategy=strategy,
            max_rules=self.max_rules,
            saturation_max_rules=self.saturation_max_rules,
            snapshot_dir=self.snapshot_dir,
            counters=self._stats,
        )
        plan = entry.plan
        if plan.fallback is not None:
            self._stats["advisor_fallbacks"] += 1
        elif (
            plan.strategy == STRATEGY_CHASE
            and strategy != STRATEGY_CHASE
            and plan.advice is not None
            and plan.advice.terminates
        ):
            self._stats["advisor_predicted_chase"] += 1
            if obs is not None:
                obs.inc("service.registry.advisor_predicted_chase")
        while len(self._entries) >= self.capacity:
            evicted = next(iter(self._entries))
            del self._entries[evicted]
            self._stats["evictions"] += 1
            if obs is not None:
                obs.inc("service.registry.evictions")
        self._entries[digest] = entry
        return entry

    def stats(self) -> dict[str, int]:
        # ``store_bytes`` / ``store_symbols`` are absolute gauges (the
        # resident size of every held model, O(1) per entry), not
        # counters — consumers must not delta them.
        store_bytes = 0
        store_symbols = 0
        for entry in self._entries.values():
            for held in entry._held.values():
                sizes = held.model.store_stats()
                store_bytes += sizes["bytes"]
                store_symbols += sizes["symbols"]
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            **self._stats,
            "store_bytes": store_bytes,
            "store_symbols": store_symbols,
        }
