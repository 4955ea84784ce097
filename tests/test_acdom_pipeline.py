"""Tests for ACDom axiomatization (Prop. 5), partial grounding, and the
Section 7 pipeline."""

import pytest

from repro.core import Atom, Constant, Database, Query, parse_database, parse_theory
from repro.chase import ChaseBudget, answers_in, certain_answers, chase
from repro.datalog import datalog_answers, evaluate
from repro.guardedness import is_guarded_rule, is_nearly_guarded
from repro.guardedness.affected import affected_positions, unsafe_variables
from repro.queries import (
    ConjunctiveQuery,
    answer_cq,
    compare_strategies,
    knowledge_base_query,
)
from repro.core.terms import Variable
from repro.translate import (
    answer_query,
    answer_wfg_query,
    axiomatize_acdom,
    ground_program,
    partial_grounding,
    starred,
)

A, B, C = Constant("a"), Constant("b"), Constant("c")
X, Y = Variable("x"), Variable("y")


class TestAcdomAxiomatization:
    def test_no_acdom_left(self):
        theory = parse_theory("R(x,y), ACDom(x) -> Picked(x)")
        query = axiomatize_acdom(Query(theory, "Picked"))
        assert "ACDom" not in {
            key[0] for key in query.theory.relation_keys()
        } or all(
            atom.relation != "ACDom"
            for rule in query.theory
            for atom in rule.head
        )
        # ACDom only ever appears starred
        for rule in query.theory:
            for literal in rule.body:
                assert literal.relation != "ACDom"

    def test_answers_preserved(self):
        theory = parse_theory(
            """
            P(x) -> exists y. R(x,y)
            R(x,y), ACDom(y) -> Picked(y)
            """
        )
        db = parse_database("P(a). R(a, b).")
        original = certain_answers(Query(theory, "Picked"), db)
        star = axiomatize_acdom(Query(theory, "Picked"))
        translated = certain_answers(star, db)
        assert {t[0] for t in original} == {t[0] for t in translated} == {B}

    def test_theory_constants_added(self):
        theory = parse_theory('-> P("c")\nP(x), ACDom(x) -> Q(x)')
        star = axiomatize_acdom(Query(theory, "Q"))
        db = parse_database("R(a).")
        answers = certain_answers(star, db)
        # with ACDom* the theory constant c qualifies (Def. 15 (c))
        assert answers == {(C,)}

    def test_near_guardedness_preserved(self):
        theory = parse_theory(
            """
            P(x) -> exists y. R(x,y)
            R(x,y), ACDom(y) -> Picked(y)
            """
        )
        assert is_nearly_guarded(theory)
        star = axiomatize_acdom(Query(theory, "Picked"))
        assert is_nearly_guarded(star.theory)

    def test_starred_names(self):
        assert starred("R") == "R_star"


class TestPartialGrounding:
    def test_safe_variables_grounded(self):
        theory = parse_theory(
            """
            P(x) -> exists y. R(x, y)
            R(x,y), S(z) -> Out(y, z)
            """
        )
        db = parse_database("P(a). S(b).")
        grounded = partial_grounding(theory, db)
        # in the join rule x and z are safe → instantiated; y unsafe → kept
        for rule in grounded:
            unsafe = unsafe_variables(rule, grounded)
            assert rule.uvars() <= unsafe | set()

    def test_grounded_is_guarded_for_wg_input(self):
        theory = parse_theory(
            """
            P(x) -> exists y. R(x, y)
            R(x,y), S(z) -> Out(y, z)
            """
        )
        db = parse_database("P(a). S(b).")
        grounded = partial_grounding(theory, db)
        assert all(is_guarded_rule(rule) for rule in grounded)

    def test_answers_preserved(self):
        theory = parse_theory(
            """
            P(x) -> exists y. R(x, y)
            R(x,y), S(x) -> Out(x)
            """
        )
        db = parse_database("P(a). S(a). S(b).")
        grounded = partial_grounding(theory, db)
        direct = certain_answers(Query(theory, "Out"), db)
        via = certain_answers(Query(grounded, "Out"), db)
        assert direct == via == {(A,)}

    def test_ground_program_full(self):
        program = parse_theory("E(x,y) -> T(x,y)")
        db = parse_database("E(a,b).")
        grounded = ground_program(program, db)
        assert all(not rule.variables() for rule in grounded)
        assert datalog_answers(Query(grounded, "T"), db) == {(A, B)}

    def test_ground_program_rejects_existential(self):
        with pytest.raises(ValueError):
            ground_program(
                parse_theory("P(x) -> exists y. R(x,y)"), parse_database("P(a).")
            )


class TestSection7Pipeline:
    WG = parse_theory(
        """
        E(x,y) -> T(x,y)
        E(x,y), T(y,z) -> T(x,z)
        T(x,y) -> exists w. M(y, w)
        M(y,w), T(x,y) -> Reach(x)
        """
    )

    def test_pipeline_matches_chase(self):
        db = parse_database("E(a,b). E(b,c).")
        report = answer_wfg_query(Query(self.WG, "Reach"), db)
        direct = certain_answers(
            Query(self.WG, "Reach"), db, budget=ChaseBudget(max_steps=30_000)
        )
        assert report.answers == direct

    def test_report_records_sizes(self):
        db = parse_database("E(a,b).")
        report = answer_wfg_query(Query(self.WG, "Reach"), db)
        assert report.rewritten_rules > 0
        assert report.grounded_rules >= report.rewritten_rules
        assert report.datalog_rules > 0

    def test_answer_query_dispatch_datalog(self):
        program = parse_theory("E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)")
        db = parse_database("E(a,b). E(b,c).")
        assert answer_query(Query(program, "T"), db) == datalog_answers(
            Query(program, "T"), db
        )

    def test_answer_query_dispatch_guarded(self):
        theory = parse_theory(
            """
            A(x) -> exists y. R(x, y)
            R(x, y) -> S(y, y)
            S(x, y) -> exists z. T(x, y, z)
            T(x, x, y) -> B(x)
            C(x), R(x, y), B(y) -> D(x)
            """
        )
        db = parse_database("A(c). C(c).")
        assert answer_query(Query(theory, "D"), db) == {(C,)}


class TestConjunctiveQueries:
    def test_cq_padding_produces_wfg_rule(self):
        theory = parse_theory("Publication(x) -> exists k. HasKw(x, k)")
        cq = ConjunctiveQuery(
            (X,), (Atom("Publication", (X,)), Atom("HasKw", (X, Y)))
        )
        query = knowledge_base_query(theory, cq)
        from repro.guardedness import is_weakly_frontier_guarded

        assert is_weakly_frontier_guarded(query.theory)

    def test_cq_answers_via_chase(self):
        theory = parse_theory("Publication(x) -> exists k. HasKw(x, k)")
        cq = ConjunctiveQuery(
            (X,), (Atom("Publication", (X,)), Atom("HasKw", (X, Y)))
        )
        query = knowledge_base_query(theory, cq)
        db = parse_database("Publication(p1). Publication(p2).")
        answers = certain_answers(query, db)
        assert {t[0].name for t in answers} == {"p1", "p2"}

    def test_boolean_cq(self):
        theory = parse_theory("P(x) -> exists y. R(x,y)")
        cq = ConjunctiveQuery((), (Atom("R", (X, Y)),))
        query = knowledge_base_query(theory, cq)
        db = parse_database("P(a).")
        assert certain_answers(query, db) == {()}

    def test_compare_strategies_agree(self):
        theory = parse_theory(
            """
            E(x,y) -> T(x,y)
            E(x,y), T(y,z) -> T(x,z)
            """
        )
        cq = ConjunctiveQuery((X,), (Atom("T", (X, Constant("c"))),))
        db = parse_database("E(a,b). E(b,c).")
        comparison = compare_strategies(
            theory, cq, db, budget=ChaseBudget(max_steps=50_000)
        )
        assert comparison.agree
        assert {t[0].name for t in comparison.via_chase} == {"a", "b"}

    @pytest.mark.parametrize("strategy", ["auto", "chase", "translate"])
    def test_database_built_by_add_answers_like_parsed(self, strategy):
        # Section 7 pads the CQ with ACDom, so the answers depend on the
        # input's active domain; a database grown by add() has the same.
        theory = parse_theory(
            """
            E(x,y) -> T(x,y)
            E(x,y), T(y,z) -> T(x,z)
            T(x,y) -> exists w. M(y, w)
            M(y,w), T(x,y) -> Reach(x)
            """
        )
        cq = ConjunctiveQuery((X,), (Atom("T", (X, Y)), Atom("Reach", (Y,))))
        parsed = parse_database("E(a,b). E(b,c). E(c,d).")
        built = Database()
        for atom in parsed:
            built.add(atom)
        expected = answer_cq(theory, cq, parsed, strategy=strategy)
        assert {t[0].name for t in expected} == {"a", "b"}
        assert answer_cq(theory, cq, built, strategy=strategy) == expected

    def test_unsafe_cq_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery((X,), (Atom("R", (Y, Y)),))

    def test_output_collision_rejected(self):
        theory = parse_theory("P(x) -> QueryOut(x)")
        cq = ConjunctiveQuery((X,), (Atom("P", (X,)),))
        with pytest.raises(ValueError):
            knowledge_base_query(theory, cq)
