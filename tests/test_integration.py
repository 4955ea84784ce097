"""End-to-end integration tests across subsystems.

Each scenario drives a realistic workload through several modules and
cross-checks every available strategy against the chase reference.
"""

import random

import pytest

from repro.core import Atom, Constant, Query, Variable, parse_database, parse_theory
from repro.chase import (
    ChaseBudget,
    answers_in,
    certain_answers,
    chase,
    chase_terminates,
    core_of,
    stratified_chase,
)
from repro.datalog import datalog_answers, evaluate
from repro.guardedness import classify, normalize
from repro.queries import ConjunctiveQuery, answer_cq, compare_strategies
from repro.analysis import advise
from repro.translate import (
    answer_query,
    guarded_to_datalog,
    nearly_guarded_to_datalog,
    plan_answering,
    rewrite_frontier_guarded,
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestUniversityOntology:
    """A small university ontology: existential rules + Datalog + CQs."""

    THEORY = parse_theory(
        """
        Professor(x) -> exists c. Teaches(x, c)
        Teaches(x, c) -> Course(c)
        Enrolled(s, c), Teaches(p, c) -> TaughtBy(s, p)
        TaughtBy(s, p), TaughtBy(t, p) -> SharedProf(s, t)
        """
    )
    DATA = parse_database(
        """
        Professor(kim). Teaches(kim, logic).
        Enrolled(ana, logic). Enrolled(bo, logic).
        """
    )

    def test_classification(self):
        labels = classify(self.THEORY)
        assert labels.weakly_frontier_guarded or labels.nearly_frontier_guarded

    def test_certain_answers_by_chase(self):
        answers = certain_answers(Query(self.THEORY, "SharedProf"), self.DATA)
        names = {(a.name, b.name) for a, b in answers}
        assert ("ana", "bo") in names and ("bo", "ana") in names

    def test_cq_over_knowledge_base(self):
        cq = ConjunctiveQuery(
            (X,), (Atom("TaughtBy", (X, Y)), Atom("Professor", (Y,)))
        )
        answers = answer_cq(self.THEORY, cq, self.DATA, strategy="chase")
        assert {t[0].name for t in answers} == {"ana", "bo"}

    def test_strategies_agree(self):
        cq = ConjunctiveQuery((X,), (Atom("Course", (X,)),))
        comparison = compare_strategies(
            self.THEORY, cq, self.DATA, budget=ChaseBudget(max_steps=50_000)
        )
        assert comparison.agree
        assert {t[0].name for t in comparison.via_chase} == {"logic"}

    def test_termination_analysis(self):
        terminates, reason = chase_terminates(self.THEORY)
        assert terminates

    def test_chase_core_drops_redundant_witnesses(self):
        result = chase(self.THEORY, self.DATA, policy="oblivious")
        assert result.complete
        core = core_of(result.database)
        # kim already teaches logic; the invented course folds away
        assert not core.nulls()


class TestGenealogyStratified:
    """Stratified negation + existential invention over family data."""

    THEORY = parse_theory(
        """
        Person(x), not HasMother(x) -> exists m. MotherOf(m, x)
        MotherOf(m, x) -> Ancestor(m, x)
        Ancestor(a, x), MotherOf(m, a) -> Ancestor(m, x)
        Person(x), not Root(x) -> Leaf(x)
        Ancestor(a, x) -> Root(a)
        """
    )

    def test_stratified_semantics(self):
        data = parse_database(
            "Person(ana). Person(eva). HasMother(ana). MotherOf(eva, ana)."
        )
        result = stratified_chase(self.THEORY, data)
        assert result.complete
        # eva has no recorded mother → gets an invented one
        mothers = result.database.atoms_for(("MotherOf", 2, 0))
        assert any(atom.args[1].name == "eva" for atom in mothers)

    def test_leaf_negation(self):
        data = parse_database(
            "Person(ana). Person(eva). HasMother(ana). HasMother(eva). "
            "MotherOf(eva, ana)."
        )
        result = stratified_chase(self.THEORY, data)
        leaves = answers_in(result.database, "Leaf")
        assert (Constant("ana"),) in leaves
        assert (Constant("eva"),) not in leaves  # eva is an ancestor → Root


class TestTranslationStack:
    """Chain all translations on one FG theory and compare every route."""

    THEORY = parse_theory(
        """
        Account(x) -> exists o. OwnedBy(x, o)
        OwnedBy(x, o) -> Owner(o)
        Transfer(x, y), OwnedBy(x, o), OwnedBy(y, o) -> Internal(x, y)
        """
    )
    DATA = parse_database(
        """
        Account(a1). Account(a2).
        OwnedBy(a1, org). OwnedBy(a2, org). Transfer(a1, a2).
        """
    )

    def reference(self):
        return certain_answers(Query(self.THEORY, "Internal"), self.DATA)

    def test_via_answer_query_dispatch(self):
        assert (
            answer_query(Query(self.THEORY, "Internal"), self.DATA)
            == self.reference()
        )

    def test_via_fg_rewriting_then_chase(self):
        normal = normalize(self.THEORY).theory
        rewritten = rewrite_frontier_guarded(normal, max_rules=150_000)
        translated = certain_answers(
            Query(rewritten, "Internal"),
            self.DATA,
            budget=ChaseBudget(max_steps=1_000_000),
        )
        assert translated == self.reference()

    def test_via_fg_then_datalog(self):
        normal = normalize(self.THEORY).theory
        rewritten = rewrite_frontier_guarded(normal, max_rules=150_000)
        datalog = nearly_guarded_to_datalog(rewritten, max_rules=300_000)
        answers = datalog_answers(Query(datalog, "Internal"), self.DATA)
        assert answers == self.reference()


class TestRandomizedCrossStrategy:
    def test_guarded_theories_all_routes_agree(self):
        rng = random.Random(2024)
        from repro.bench.generators import (
            random_database,
            random_guarded_theory,
            random_signature,
        )

        checked = 0
        while checked < 5:
            sig = random_signature(rng, n_relations=3, max_arity=2)
            theory = random_guarded_theory(rng, sig, n_rules=3)
            db = random_database(rng, sig, n_constants=3, n_atoms=6)
            chased = chase(
                theory, db, policy="restricted", budget=ChaseBudget(max_steps=2500)
            )
            if not chased.complete:
                continue
            datalog = guarded_to_datalog(theory, max_rules=30_000)
            fixpoint = evaluate(datalog, db)
            output = sorted(theory.relations())[0]
            assert answers_in(chased.database, output) == answers_in(
                fixpoint, output
            )
            # the dispatcher picks the same route
            assert answer_query(Query(theory, output), db) == answers_in(
                chased.database, output
            )
            checked += 1

    def test_planner_routes_agree_on_advisor_terminating_theories(self):
        rng = random.Random(2025)
        from repro.bench.generators import (
            random_database,
            random_guarded_theory,
            random_signature,
        )

        checked = translated = 0
        while checked < 10:
            sig = random_signature(rng, n_relations=3, max_arity=2)
            theory = random_guarded_theory(rng, sig, n_rules=4)
            advice = advise(theory)
            if not advice.terminates:
                continue
            db = random_database(rng, sig, n_constants=3, n_atoms=6)
            output = sorted(theory.relations())[0]
            auto = plan_answering(theory)
            assert auto.strategy == advice.recommended
            answers = {
                requested: plan_answering(theory, requested).answer(db, output)
                for requested in ("auto", "chase", "translate")
            }
            assert all(outcome.complete for outcome in answers.values())
            assert answers["auto"].value == answers["chase"].value
            assert answers["auto"].value == answers["translate"].value
            checked += 1
            translated += advice.recommended == "chase"
        # the draws must exercise the chase against a real translation
        assert translated >= 3
