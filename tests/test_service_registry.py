"""Unit tests for the theory registry (repro.service.registry).

Covers strategy selection against the reference engines, compile-once
caching with LRU eviction, the per-database materialization cache, the
strict lint gate, and the requested-strategy override semantics.
"""

import os

import pytest

from repro.chase import ChaseBudget, certain_answers
from repro.core import Atom, Constant, Query, parse_database, parse_theory
from repro.obs import instrumented
from repro.robustness import governed, inject, probe
from repro.robustness.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    InvalidRequestError,
    InvalidTheoryError,
)
from repro.service.registry import (
    STRATEGY_CHASE,
    STRATEGY_DATALOG,
    STRATEGY_TRANSLATE,
    TheoryRegistry,
    UnknownDatabase,
    compile_theory,
    content_hash,
)

TC = "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)"
EXISTENTIAL = (
    "Publication(x) -> exists k. HasKeyword(x, k)\n"
    "HasKeyword(x, k) -> Indexed(x)"
)
#: Section 7 exemplar (weakly guarded): classifies nearly-frontier-guarded
#: *and* is weakly acyclic, so the advisor proves chase termination and
#: auto now routes to the chase instead of the Datalog translation.
WG = (
    "E(x,y) -> T(x,y)\n"
    "E(x,y), T(y,z) -> T(x,z)\n"
    "T(x,y) -> exists w. M(y, w)\n"
    "M(y,w), T(x,y) -> Reach(x)"
)
#: Guarded but provably-nonterminating-free: no acyclicity criterion
#: applies, so auto falls back to the Datalog translation.
LOOP = "E(x, y) -> exists z. E(y, z)"
#: Super-weakly acyclic but not jointly acyclic (constants break the
#: joint-acyclicity overapproximation).
SWA = 'A(x) -> exists z. R(x, z, "c1")\nR(x, y, "c2") -> A(y)'
#: Model-faithfully acyclic but not super-weakly acyclic (pairwise
#: skolem unification conflates f(a) and f(b); the critical-instance
#: chase does not).
MFA = (
    "A(x) -> exists y. R(x, y)\n"
    'R("a", y), R("b", y) -> T(y)\n'
    "T(y) -> A(y)"
)


def names(answers):
    return sorted([term.name for term in answer] for answer in answers)


class TestStrategySelection:
    def test_datalog_theory_uses_datalog_strategy(self):
        compiled = compile_theory(TC)
        assert compiled.strategy == STRATEGY_DATALOG
        assert compiled.program is not None
        assert compiled.plans_compiled > 0

    def test_auto_prefers_chase_when_termination_proven(self):
        # WG is nearly-frontier-guarded *and* weakly acyclic: the
        # advisor's termination proof wins over the translation.
        compiled = compile_theory(WG)
        assert compiled.strategy == STRATEGY_CHASE
        assert compiled.program is None and compiled.rewriting is None
        assert compiled.advice is not None
        assert compiled.advice["terminates"] is True
        assert compiled.advice["criterion"] == "weakly-acyclic"
        assert compiled.advice["recommended"] == STRATEGY_CHASE
        assert compiled.advice_fallback is False

    def test_auto_translates_unprovable_guarded_theory(self):
        compiled = compile_theory(LOOP)
        assert compiled.strategy == STRATEGY_TRANSLATE
        assert compiled.program is not None
        assert compiled.advice["terminates"] is False
        assert compiled.advice["criterion"] == "unknown"

    def test_chase_override(self):
        compiled = compile_theory(WG, strategy="chase")
        assert compiled.strategy == STRATEGY_CHASE
        assert compiled.program is None and compiled.rewriting is None

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidRequestError):
            compile_theory(TC, strategy="quantum")


class TestAnswers:
    def test_datalog_matches_chase(self):
        compiled = compile_theory(TC)
        db = parse_database("E(a,b). E(b,c).")
        outcome = compiled.answer(db, "T")
        reference = certain_answers(Query(parse_theory(TC), "T"), db)
        assert outcome.complete
        assert names(outcome.value) == names(reference)

    def test_chase_strategy_matches_reference(self):
        compiled = compile_theory(EXISTENTIAL, strategy="chase")
        db = parse_database("Publication(p1). Publication(p2).")
        outcome = compiled.answer(db, "Indexed")
        reference = certain_answers(
            Query(parse_theory(EXISTENTIAL), "Indexed"), db
        )
        assert outcome.complete
        assert names(outcome.value) == names(reference)

    def test_auto_chase_matches_reference(self):
        compiled = compile_theory(WG)
        assert compiled.strategy == STRATEGY_CHASE
        db = parse_database("E(a,b). E(b,c).")
        outcome = compiled.answer(db, "Reach")
        reference = certain_answers(Query(parse_theory(WG), "Reach"), db)
        assert outcome.complete
        assert names(outcome.value) == names(reference)

    def test_translate_strategy_answers_unprovable_theory(self):
        # LOOP's chase never terminates, so auto routes through the
        # guarded translation; certain answers stay constants-only.
        compiled = compile_theory(LOOP)
        assert compiled.strategy == STRATEGY_TRANSLATE
        outcome = compiled.answer(parse_database("E(a,b)."), "E")
        assert outcome.complete
        assert names(outcome.value) == [["a", "b"]]

    def test_unknown_output_relation_rejected(self):
        compiled = compile_theory(TC)
        with pytest.raises(InvalidRequestError):
            compiled.answer(parse_database("E(a,b)."), "Nope")


class TestMaterializationCache:
    def test_same_database_hits_cache(self):
        compiled = compile_theory(TC)
        db_text = "E(a,b). E(b,c)."
        key = content_hash(db_text)
        with instrumented() as instr:
            first = compiled.answer(parse_database(db_text), "T", db_key=key)
            second = compiled.answer(parse_database(db_text), "T", db_key=key)
        assert names(first.value) == names(second.value)
        assert instr.metrics.counter("service.materialize.misses") == 1
        assert instr.metrics.counter("service.materialize.hits") == 1

    def test_capacity_bounds_materializations(self):
        compiled = compile_theory(TC, materialization_capacity=2)
        with instrumented() as instr:
            for i in range(4):
                text = f"E(a{i},b{i})."
                compiled.answer(
                    parse_database(text), "T", db_key=content_hash(text)
                )
        assert len(compiled._held) == 2
        assert instr.metrics.counter("service.materialize.evictions") == 2

    def test_truncated_chase_not_cached(self):
        from repro.chase import ChaseBudget

        looping = (
            "P(x) -> exists y. E(x,y)\n"
            "E(x,y) -> exists z. E(y,z)\n"
            "E(x,y), E(u,v) -> H(y,v)\n"
            "H(y,v) -> Q(y)"
        )
        compiled = compile_theory(looping, strategy="chase")
        db_text = "P(a)."
        outcome = compiled.answer(
            parse_database(db_text),
            "Q",
            budget=ChaseBudget(max_steps=5),
            db_key=content_hash(db_text),
        )
        assert not outcome.complete
        assert outcome.exhausted is not None
        assert outcome.sound
        assert not compiled._held


class TestRegistry:
    def test_compile_once_then_hit(self):
        registry = TheoryRegistry(capacity=4)
        first = registry.register(TC)
        second = registry.register(TC)
        assert first is second
        assert registry.stats()["hits"] == 1
        assert registry.stats()["misses"] == 1

    def test_lru_eviction(self):
        registry = TheoryRegistry(capacity=2)
        a = registry.register(TC)
        registry.register(EXISTENTIAL, strategy="chase")
        registry.register(TC)  # refresh A's recency
        registry.register(WG)  # evicts EXISTENTIAL, not A
        assert content_hash(TC) in registry
        assert content_hash(EXISTENTIAL) not in registry
        assert registry.stats()["evictions"] == 1
        assert registry.register(TC) is a

    def test_strategy_change_recompiles(self):
        registry = TheoryRegistry(capacity=4)
        auto = registry.register(WG)
        forced = registry.register(WG, strategy="chase")
        assert auto is not forced
        assert forced.strategy == STRATEGY_CHASE
        assert registry.register(WG, strategy="chase") is forced

    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidRequestError):
            TheoryRegistry(capacity=0)

    def test_strict_gate_rejects_error_diagnostics(self):
        # An unguarded-join theory that still parses but draws an
        # error-level lint diagnostic would be rejected; use a theory
        # with an unsatisfiable-style error if the linter flags one.
        registry = TheoryRegistry(capacity=4, strict=True)
        # A clean theory passes the strict gate.
        assert registry.register(TC).strategy == STRATEGY_DATALOG

    def test_strict_gate_message_names_diagnostic(self):
        from repro.analysis import Severity, analyze

        flawed = "E(x,y), E(y,z) -> exists w. T(w)\nT(w) -> T(w)"
        report = analyze(parse_theory(flawed))
        if not report.at_least(Severity.ERROR):
            pytest.skip("linter reports no error for this exemplar")
        with pytest.raises(InvalidTheoryError):
            TheoryRegistry(capacity=4, strict=True).register(flawed)


class TestAdvisorRouting:
    def test_describe_surfaces_advice(self):
        description = compile_theory(WG).describe()
        assert description["advice"]["criterion"] == "weakly-acyclic"
        assert description["advice"]["recommended"] == STRATEGY_CHASE
        assert description["advice_fallback"] is False

    def test_registry_counts_predicted_chase(self):
        registry = TheoryRegistry(capacity=4)
        registry.register(WG)
        registry.register(TC)  # datalog: not a prediction
        stats = registry.stats()
        assert stats["advisor_predicted_chase"] == 1
        assert stats["advisor_fallbacks"] == 0

    def test_chase_only_corpus_never_falls_back(self):
        # SWA and MFA sit beyond joint acyclicity, yet both must route
        # to the chase predictively — zero translation-fallback events.
        registry = TheoryRegistry(capacity=4)
        with instrumented() as instr:
            for text, criterion in (
                (SWA, "super-weakly-acyclic"),
                (MFA, "model-faithful-acyclic"),
            ):
                entry = registry.register(text)
                assert entry.strategy == STRATEGY_CHASE
                assert entry.advice["criterion"] == criterion
                assert entry.advice_fallback is False
        assert instr.metrics.counter("advisor.fallback") == 0
        assert (
            instr.metrics.counter("service.registry.advisor_predicted_chase")
            == 2
        )
        stats = registry.stats()
        assert stats["advisor_predicted_chase"] == 2
        assert stats["advisor_fallbacks"] == 0

    def test_mfa_theory_answers_without_fallback(self):
        compiled = compile_theory(MFA)
        outcome = compiled.answer(parse_database('A("a"). A("b").'), "T")
        assert outcome.complete
        reference = certain_answers(Query(parse_theory(MFA), "T"), parse_database('A("a"). A("b").'))
        assert names(outcome.value) == names(reference)


class TestPlannerFallbacks:
    def test_translation_blowup_falls_back_to_chase(self):
        # LOOP has no termination proof, so auto translates it; a
        # one-rule budget makes the translation blow up.
        registry = TheoryRegistry(capacity=4, max_rules=1)
        with instrumented() as instr:
            entry = registry.register(LOOP)
        assert entry.strategy == STRATEGY_CHASE
        assert entry.advice_fallback is True
        assert entry.plan.fallback == "max_rules"
        assert registry.stats()["advisor_fallbacks"] == 1
        assert registry.stats()["advisor_predicted_chase"] == 0
        assert instr.metrics.counter("advisor.fallback") == 1
        # The restricted chase of LOOP stops at once on a self-loop.
        outcome = entry.answer(parse_database("E(a,a)."), "E")
        assert outcome.complete
        assert names(outcome.value) == [["a", "a"]]

    def test_deadline_during_register_caches_nothing(self):
        # A deadline is not a translation blowup: it must propagate, and
        # must not leave a chase fallback cached for later requests.
        def run(governor):
            with governed(governor):
                return TheoryRegistry(capacity=4).register(LOOP)

        for at_tick in range(1, probe(run) + 1):
            registry = TheoryRegistry(capacity=4)
            with governed(inject(at_tick, "deadline")):
                with pytest.raises(DeadlineExceeded):
                    registry.register(LOOP)
            assert content_hash(LOOP) not in registry
            assert registry.stats()["advisor_fallbacks"] == 0
            entry = registry.register(LOOP)
            assert entry.strategy == STRATEGY_TRANSLATE
            assert entry.advice_fallback is False
            outcome = entry.answer(parse_database("E(a,b)."), "E")
            assert outcome.complete
            assert names(outcome.value) == [["a", "b"]]


class TestResolutionByKey:
    """A query or update may name its database by content key alone."""

    DB = "E(a,b). E(b,c)."

    def setup_method(self):
        self.db = parse_database(self.DB)
        self.key = self.db.content_hash()
        self.edge = [Atom("E", (Constant("c"), Constant("d")))]

    def test_query_resolves_from_the_lru(self):
        registry = TheoryRegistry()
        compiled = registry.register(TC)
        compiled.answer(self.db, "T", db_key=self.key)
        outcome = compiled.answer(None, "T", db_key=self.key)
        assert names(outcome.value) == [["a", "b"], ["a", "c"], ["b", "c"]]
        assert registry.stats()["materializations"] == 1

    def test_query_resolves_from_the_live_model(self):
        registry = TheoryRegistry()
        compiled = registry.register(TC)
        new_key, _, live = compiled.update(self.db, self.edge, [], db_key=self.key)
        assert compiled._held == {new_key: live}  # one entry: the live model
        outcome = compiled.answer(None, "T", db_key=new_key)
        assert ["a", "d"] in names(outcome.value)
        assert registry.stats()["materializations"] == 0

    def test_query_resolves_from_a_snapshot(self, tmp_path):
        compile_theory(TC, snapshot_dir=str(tmp_path)).answer(
            self.db, "T", db_key=self.key
        )
        registry = TheoryRegistry(snapshot_dir=str(tmp_path))
        compiled = registry.register(TC)
        assert not compiled._held  # registration reads no snapshot
        outcome = compiled.answer(None, "T", db_key=self.key)
        assert names(outcome.value) == [["a", "b"], ["a", "c"], ["b", "c"]]
        stats = registry.stats()
        assert stats["snapshot_loads"] == 1
        assert stats["materializations"] == 0
        # Held without an input: the file keeps no input facts.
        assert compiled._held[self.key].edb is None

    def test_snapshots_are_read_on_demand(self, tmp_path):
        other = parse_database("E(x,y).")
        warm = compile_theory(TC, snapshot_dir=str(tmp_path))
        for db in (self.db, other):
            warm.answer(db, "T", db_key=db.content_hash())
        assert len(os.listdir(tmp_path)) == 2
        registry = TheoryRegistry(snapshot_dir=str(tmp_path))
        compiled = registry.register(TC)
        assert registry.stats()["snapshot_loads"] == 0
        outcome = compiled.answer(None, "T", db_key=self.key)
        assert names(outcome.value) == [["a", "b"], ["a", "c"], ["b", "c"]]
        stats = registry.stats()
        assert stats["snapshot_loads"] == 1
        assert stats["materializations"] == 0
        assert list(compiled._held) == [self.key]

    def test_restart_then_update(self, tmp_path):
        compile_theory(TC, snapshot_dir=str(tmp_path)).answer(
            self.db, "T", db_key=self.key
        )
        registry = TheoryRegistry(snapshot_dir=str(tmp_path))
        compiled = registry.register(TC)
        compiled.answer(None, "T", db_key=self.key)
        held = compiled._held[self.key]
        assert held.edb is None
        before = dict(registry.stats()), os.listdir(tmp_path)
        # A model without its input facts cannot be updated by key.
        with pytest.raises(UnknownDatabase):
            compiled.update(None, self.edge, [], db_key=self.key)
        assert (dict(registry.stats()), os.listdir(tmp_path)) == before
        assert compiled._held == {self.key: held}
        # The text adopts the snapshot's model: no recompute.
        new_key, stats, live = compiled.update(
            self.db, self.edge, [], db_key=self.key
        )
        assert stats.mode == "counting" and stats.inserted == 1
        assert live.model is held.model
        assert compiled._held == {new_key: live}
        after = registry.stats()
        assert after["materializations"] == 0
        assert after["snapshot_loads"] == 1
        assert after["updates"] == 1

    def test_update_resolves_from_the_live_model_and_the_kept_input(self):
        registry = TheoryRegistry()
        compiled = registry.register(TC)
        compiled.answer(self.db, "T", db_key=self.key)
        # The query holds its model with the parsed input itself, no
        # live model yet (a live model owns a copy of its input).
        held = compiled._held[self.key]
        assert held.edb is self.db
        # An update by key alone adopts both: nothing is recomputed.
        key1, stats1, live = compiled.update(None, self.edge, [], db_key=self.key)
        assert stats1.inserted == 1
        assert live.model is held.model and live.edb is not self.db
        key2, stats2, again = compiled.update(
            None, [], [Atom("E", (Constant("a"), Constant("b")))], db_key=key1
        )
        assert again is live and stats2.retracted == 1
        assert key2 == parse_database("E(b,c). E(c,d).").content_hash()
        assert registry.stats()["materializations"] == 1

    def test_miss_changes_nothing(self):
        compiled = compile_theory(TC)
        compiled.answer(self.db, "T", db_key=self.key)
        other = parse_database("E(x,y).")
        live_key, _, live = compiled.update(
            other, self.edge, [], db_key=other.content_hash()
        )
        # A model held without its input, as a snapshot's is, answers
        # queries, but an update by key alone cannot use it.
        compiled._held[self.key] = compiled._held[self.key]._replace(edb=None)
        before = dict(compiled._held)
        unknown = "0" * 64
        with pytest.raises(UnknownDatabase):
            compiled.answer(None, "T", db_key=unknown)
        for key in (unknown, self.key):
            with pytest.raises(UnknownDatabase):
                compiled.update(None, self.edge, [], db_key=key)
        after = dict(compiled._held)
        assert list(after) == list(before)
        assert all(after[key] is held for key, held in before.items())
        assert after[live_key] is live

    def test_queries_on_other_databases_evict_an_idle_live_model(self):
        # Live and query-only databases share one capacity: queries on
        # that many other databases evict a live model that no update
        # touched meanwhile.  Its next update by key alone misses, and
        # the resend with the text rebuilds the live model.
        registry = TheoryRegistry()
        compiled = registry.register(TC)
        key, _, live = compiled.update(self.db, self.edge, [], db_key=self.key)
        for i in range(compiled.materialization_capacity):
            other = parse_database(f"E(v{i},w{i}).")
            compiled.answer(other, "T", db_key=other.content_hash())
        assert key not in compiled._held
        assert registry.stats()["materializations"] == len(compiled._held)
        before = dict(compiled._held)
        with pytest.raises(UnknownDatabase):
            compiled.update(None, [], self.edge, db_key=key)
        assert dict(compiled._held) == before
        text = parse_database("E(a,b). E(b,c). E(c,d).")
        new_key, stats, again = compiled.update(text, [], self.edge, db_key=key)
        assert new_key == self.key and stats.retracted == 1
        assert again is not live
        assert compiled._held[new_key] is again
        assert names(again.answers("T")) == [["a", "b"], ["a", "c"], ["b", "c"]]


class TestChaseBudgetPerUpdate:
    """Every update runs under its own chase budget, not the one its
    live model was built with."""

    THEORY = "p(x) -> exists y. e(x,y)\ne(x,y) -> q(x)"

    def test_update_runs_under_its_own_budget(self):
        compiled = compile_theory(self.THEORY, strategy="chase")
        db = parse_database("p(a).")
        key, _, _ = compiled.update(
            db,
            [Atom("p", (Constant("b"),))],
            [],
            db_key=db.content_hash(),
            budget=ChaseBudget(max_steps=100_000),
        )
        inserts = [Atom("p", (Constant(f"c{i}"),)) for i in range(5)]
        with pytest.raises(BudgetExceeded):
            compiled.update(
                None, inserts, [], db_key=key, budget=ChaseBudget(max_steps=1)
            )
        assert not compiled._held  # nothing under the old key or any other
