"""Tests for the Figure 3 saturation calculus (Theorem 3, Proposition 6)."""

import random

import pytest

from repro.core import Query, parse_database, parse_theory
from repro.core.rules import canonical_rule_key
from repro.chase import ChaseBudget, answers_in, chase
from repro.obs import instrumented
from repro.datalog import datalog_answers, evaluate
from repro.bench.generators import (
    random_database,
    random_guarded_theory,
    random_signature,
)
from repro.translate import (
    SaturationBudget,
    guarded_to_datalog,
    nearly_guarded_to_datalog,
    saturate,
)

EXAMPLE7 = parse_theory(
    """
    A(x) -> exists y. R(x, y)
    R(x, y) -> S(y, y)
    S(x, y) -> exists z. T(x, y, z)
    T(x, x, y) -> B(x)
    C(x), R(x, y), B(y) -> D(x)
    """
)


class TestExample7:
    """The paper's worked derivation σ6 … σ12."""

    def test_sigma12_derived(self):
        result = saturate(EXAMPLE7)
        target = canonical_rule_key(parse_theory("A(x), C(x) -> D(x)").rules[0])
        assert target in {canonical_rule_key(rule) for rule in result.datalog}

    def test_query_answered_by_datalog(self):
        datalog = guarded_to_datalog(EXAMPLE7)
        db = parse_database("A(c). C(c).")
        answers = datalog_answers(Query(datalog, "D"), db)
        assert {t[0].name for t in answers} == {"c"}

    def test_agrees_with_chase(self):
        datalog = guarded_to_datalog(EXAMPLE7)
        db = parse_database("A(c). C(c).")
        chased = chase(EXAMPLE7, db, policy="restricted")
        assert chased.complete
        fixpoint = evaluate(datalog, db)
        for relation in sorted(EXAMPLE7.relations()):
            assert answers_in(chased.database, relation) == answers_in(
                fixpoint, relation
            )

    def test_datalog_output_is_datalog(self):
        datalog = guarded_to_datalog(EXAMPLE7)
        assert datalog.is_datalog()

    def test_original_datalog_rules_kept(self):
        result = saturate(EXAMPLE7)
        original = canonical_rule_key(
            parse_theory("C(x), R(x, y), B(y) -> D(x)").rules[0]
        )
        assert original in {canonical_rule_key(r) for r in result.datalog}


class TestCalculusMechanics:
    def test_projection_rule(self):
        """Inference rule 1: existential-free head atoms project out."""
        theory = parse_theory("A(x) -> exists y. R(x, y)")
        # composing with R(x,y) -> S(x) gives head S(x) without evars
        theory = theory.extend(parse_theory("R(x,y) -> S(x)").rules)
        result = saturate(theory)
        target = canonical_rule_key(parse_theory("A(x) -> S(x)").rules[0])
        assert target in {canonical_rule_key(r) for r in result.datalog}

    def test_merge_rule_needed(self):
        """σ6-style derivation requires unifying body variables."""
        theory = parse_theory(
            """
            A(x) -> exists y. R(y, y)
            R(x, y), Eq(x, y) -> W(x)
            """
        )
        # without merging x,y in the second rule the match into R(y,y) fails
        result = saturate(theory)
        assert len(result.datalog) >= 1

    def test_requires_guarded(self):
        with pytest.raises(ValueError):
            saturate(parse_theory("E(x,y), E(y,z) -> T(x,z)"))

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            saturate(parse_theory("P(x), not Q(x) -> R(x)"))

    def test_budget_raises(self):
        with pytest.raises(SaturationBudget):
            saturate(EXAMPLE7, max_rules=2)

    def test_exhaustive_strategy_on_tiny_theory(self):
        theory = parse_theory("A(x) -> exists y. R(x, y)\nR(x,y) -> S(x)")
        goal = saturate(theory, strategy="goal-directed")
        exhaustive = saturate(theory, strategy="exhaustive", max_rules=5000)
        goal_keys = {canonical_rule_key(r) for r in goal.datalog}
        exhaustive_keys = {canonical_rule_key(r) for r in exhaustive.datalog}
        assert goal_keys <= exhaustive_keys

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            saturate(EXAMPLE7, strategy="magic")


class TestNearlyGuarded:
    def test_proposition6_shape(self):
        theory = parse_theory(
            """
            A(x) -> exists y. R(x, y)
            R(x,y) -> S(x)
            S(x), S(y), E(x,y) -> Link(x, y)
            """
        )
        datalog = nearly_guarded_to_datalog(theory)
        assert datalog.is_datalog()
        # the non-guarded Datalog rule passes through verbatim
        passthrough = canonical_rule_key(
            parse_theory("S(x), S(y), E(x,y) -> Link(x, y)").rules[0]
        )
        assert passthrough in {canonical_rule_key(r) for r in datalog}

    def test_proposition6_answers(self):
        theory = parse_theory(
            """
            A(x) -> exists y. R(x, y)
            R(x,y) -> S(x)
            S(x), S(y), E(x,y) -> Link(x, y)
            """
        )
        db = parse_database("A(a). A(b). E(a,b).")
        datalog = nearly_guarded_to_datalog(theory)
        chased = chase(theory, db, policy="restricted")
        assert chased.complete
        assert answers_in(chased.database, "Link") == answers_in(
            evaluate(datalog, db), "Link"
        )

    def test_rejects_non_nearly_guarded(self):
        theory = parse_theory(
            """
            Start(x) -> exists y. R(x, y)
            R(x,y) -> exists z. R(y, z)
            R(x,y), R(y,z) -> Two(x, z)
            """
        )
        with pytest.raises(ValueError):
            nearly_guarded_to_datalog(theory)


class TestFuzzAgainstChase:
    def test_random_guarded_theories(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(12):
            sig = random_signature(rng, n_relations=3, max_arity=2)
            theory = random_guarded_theory(rng, sig, n_rules=3)
            db = random_database(rng, sig, n_constants=3, n_atoms=6)
            try:
                datalog = guarded_to_datalog(theory, max_rules=5000)
            except SaturationBudget:
                continue
            chased = chase(
                theory, db, policy="restricted", budget=ChaseBudget(max_steps=2000)
            )
            if not chased.complete:
                continue
            fixpoint = evaluate(datalog, db)
            for relation in sorted(theory.relations()):
                assert answers_in(chased.database, relation) == answers_in(
                    fixpoint, relation
                ), f"mismatch on {relation} for:\n{theory}"
            checked += 1
        assert checked >= 5


class TestCompositionWork:
    """The goal-directed loop hands a context only the Datalog rules that
    can touch one of its existential head atoms.  The pins keep that
    pruning from vanishing: offering every rule with a shared body
    relation derives the same rules in the same rounds but hands
    ``_compositions`` 18, 3,760 and 16,650 pairs."""

    CASES = [
        ("example7", 9, 5, 16),
        ("section7_chain3", 404, 5, 940),
        ("section7_chain4", 1215, 6, 3330),
    ]

    @pytest.mark.parametrize("name, derived, iterations, compositions", CASES)
    def test_work_is_pinned(self, name, derived, iterations, compositions):
        # Imported here: the golden module imports EXAMPLE7 from this one.
        from .test_saturation_golden import SECTION7_MAX_RULES, case

        with instrumented() as instr:
            result = saturate(case(name), max_rules=SECTION7_MAX_RULES)
        assert (result.derived_rules, result.iterations) == (derived, iterations)
        assert instr.metrics.counter("saturation.compositions") == compositions
