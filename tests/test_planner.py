"""Tests for the answering planner (repro.translate.pipeline.plan_answering).

The planner is the one strategy policy behind ``answer_query``,
``answer_cq``, ``repro answer`` and the service registry: it runs the
advisor's recommendation, forces a route on request, and falls back to
the chase only on typed, counted translation failures.
"""

import pytest

from repro.analysis import advise
from repro.chase import certain_answers
from repro.core import Atom, Constant, Query, Variable, parse_database, parse_theory
from repro.obs import instrumented
from repro.queries import ConjunctiveQuery, answer_cq
from repro.robustness import Cancelled, governed, inject, probe
from repro.robustness.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    InvalidRequestError,
    InvalidTheoryError,
)
from repro.translate import answer_query, pipeline, plan_answering

A = Constant("a")
X, Y = Variable("x"), Variable("y")

#: Guarded, and no acyclicity criterion proves its chase terminates:
#: ``auto`` translates it.  Its restricted chase still stops at once on
#: a self-loop, so a chase fallback answers ``E(a, a)`` completely.
LOOP = parse_theory("E(x, y) -> exists z. E(y, z)")
SELF_LOOP = parse_database("E(a,a).")
#: Weakly guarded only, and weakly acyclic.
WG_ONLY = parse_theory("R(x,y), S(y,z) -> exists w. R(z,w), S(w,x)")
#: In none of the Figure 1 classes.
UNCLASSIFIED = parse_theory(
    "A(x), B(y) -> exists z. R(x,y,z)\nR(x,y,z) -> A(z)\nR(x,y,z) -> B(z)"
)
#: Stratified negation: ``Acyc`` reads the finished ``T``.
ACYCLIC = parse_theory(
    "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)\nN(x), not T(x,x) -> Acyc(x)"
)


#: Not stratified: ``T`` depends negatively on itself.
UNSTRATIFIED = parse_theory("E(x,y) -> T(x,y)\nE(x,y), not T(y,x) -> T(x,x)")


class TestStrategyChoice:
    def test_auto_runs_the_advisor_recommendation(self):
        for theory in (LOOP, WG_ONLY, UNCLASSIFIED):
            plan = plan_answering(theory)
            assert plan.strategy == advise(theory).recommended
            assert plan.fallback is None

    def test_auto_answers_stratified_negation_with_datalog(self):
        plan = plan_answering(ACYCLIC)
        assert plan.strategy == "datalog"
        db = parse_database("E(a,b). E(b,a). E(c,d). N(a). N(c).")
        answers = answer_query(Query(ACYCLIC, "Acyc"), db)
        assert answers == {(Constant("c"),)}

    @pytest.mark.parametrize("requested", ["auto", "translate"])
    def test_unstratified_negation_is_refused_naming_the_cycle(self, requested):
        with pytest.raises(InvalidTheoryError, match=r"cycle through negation T -> T"):
            plan_answering(UNSTRATIFIED, requested)

    def test_forced_chase_runs_no_advisor_and_no_translation(self):
        with instrumented() as instr:
            plan = plan_answering(LOOP, "chase")
        assert plan.strategy == "chase"
        assert plan.advice is None
        assert plan.program is None and plan.rewriting is None
        assert instr.metrics.counter("advisor.runs") == 0

    def test_forced_translate_takes_the_complete_class_route(self):
        plan = plan_answering(WG_ONLY, "translate")
        assert plan.strategy == "wfg-pipeline"
        assert plan.rewriting is not None
        db = parse_database("R(a,b). S(b,c).")
        assert plan.answer(db, "R").value == certain_answers(Query(WG_ONLY, "R"), db)

    def test_forced_translate_without_a_class_route_is_rejected(self):
        with pytest.raises(InvalidTheoryError):
            plan_answering(UNCLASSIFIED, "translate")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidRequestError):
            plan_answering(LOOP, "quantum")


class TestTypedFallback:
    def test_answer_query_falls_back_on_a_rule_budget(self):
        with instrumented() as instr:
            answers = answer_query(Query(LOOP, "E"), SELF_LOOP, max_rules=1)
        assert answers == {(A, A)}
        assert instr.metrics.counter("advisor.fallback") == 1
        assert plan_answering(LOOP, max_rules=1).fallback == "max_rules"
        (span,) = [s for s in instr.tracer.spans if s.name == "pipeline.answer_query"]
        assert span.attrs["strategy"] == "chase"
        assert span.attrs["fallback"] == "max_rules"

    def test_forced_translate_does_not_fall_back(self):
        with pytest.raises(BudgetExceeded):
            plan_answering(LOOP, "translate", max_rules=1)

    def test_unexpected_error_in_translation_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("translation bug")

        monkeypatch.setattr(pipeline, "nearly_guarded_to_datalog", broken)
        cq = ConjunctiveQuery((X,), (Atom("E", (X, Y)),))
        with pytest.raises(RuntimeError, match="translation bug"):
            answer_cq(LOOP, cq, SELF_LOOP, strategy="auto")

    @pytest.mark.parametrize(
        "action, error", [("deadline", DeadlineExceeded), ("cancel", Cancelled)]
    )
    def test_deadline_and_cancellation_propagate(self, action, error):
        def run(governor):
            with governed(governor):
                return plan_answering(LOOP)

        for at_tick in range(1, probe(run) + 1):
            with instrumented() as instr:
                with pytest.raises(error):
                    run(inject(at_tick, action))
            assert instr.metrics.counter("advisor.fallback") == 0
