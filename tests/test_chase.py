"""Tests for the chase engine (Section 2 semantics)."""

import pytest

from repro.core import Atom, Constant, Query, parse_database, parse_rule, parse_theory
from repro.core.homomorphism import database_homomorphism, satisfies_rule
from repro.chase import (
    OBLIVIOUS,
    RESTRICTED,
    ChaseBudget,
    answers_in,
    certain_answers,
    chase,
    entails,
)
from repro.chase.runner import extend_chase, resume_chase
from repro.robustness.errors import InvalidRequestError

PUBLICATION_THEORY = """
Publication(x) -> exists k1, k2. Keywords(x, k1, k2)
Keywords(x, k1, k2) -> hasTopic(x, k1)
hasTopic(x,z), hasAuthor(x,u), hasAuthor(y,u), hasTopic(y,z2), Scientific(z2), citedIn(y,x) -> Scientific(z)
hasAuthor(x,y), hasTopic(x,z), Scientific(z) -> Q(y)
"""

PUBLICATION_DATA = (
    "Publication(p1). Publication(p2). citedIn(p1,p2). hasAuthor(p1,a1). "
    "hasAuthor(p2,a1). hasAuthor(p2,a2). hasTopic(p1,t1). Scientific(t1)."
)


class TestBasicChase:
    def test_datalog_fixpoint(self):
        theory = parse_theory("E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)")
        db = parse_database("E(a,b). E(b,c). E(c,d).")
        result = chase(theory, db)
        assert result.complete
        assert Atom("T", (Constant("a"), Constant("d"))) in result.database

    def test_existential_creates_nulls(self):
        theory = parse_theory("P(x) -> exists y. R(x,y)")
        db = parse_database("P(a). P(b).")
        result = chase(theory, db)
        assert result.nulls_created == 2
        assert len(result.database.nulls()) == 2

    def test_facts_fire_once(self):
        theory = parse_theory('-> R("c")')
        result = chase(theory, parse_database("S(a)."))
        assert Atom("R", (Constant("c"),)) in result.database
        assert result.steps == 1

    def test_empty_theory(self):
        db = parse_database("R(a).")
        result = chase(parse_theory(""), db)
        assert result.complete and len(result.database) == 1

    def test_result_is_solution(self):
        """The chase result satisfies every rule (it is a model)."""
        theory = parse_theory(PUBLICATION_THEORY)
        db = parse_database(PUBLICATION_DATA)
        result = chase(theory, db)
        assert result.complete
        for rule in theory:
            assert satisfies_rule(result.database, rule)

    def test_input_database_not_mutated(self):
        theory = parse_theory("P(x) -> exists y. R(x,y)")
        db = parse_database("P(a).")
        chase(theory, db)
        assert len(db) == 1

    def test_negation_rejected_without_flag(self):
        theory = parse_theory("P(x), not Q(x) -> R(x)")
        with pytest.raises(ValueError):
            chase(theory, parse_database("P(a)."))


class TestOblivousVsRestricted:
    def test_restricted_smaller(self):
        # head already satisfied: restricted skips, oblivious fires
        theory = parse_theory("P(x) -> exists y. R(x,y)")
        db = parse_database("P(a). R(a, b).")
        oblivious = chase(theory, db, policy=OBLIVIOUS)
        restricted = chase(theory, db, policy=RESTRICTED)
        assert oblivious.nulls_created == 1
        assert restricted.nulls_created == 0

    def test_same_certain_answers(self):
        theory = parse_theory(PUBLICATION_THEORY)
        db = parse_database(PUBLICATION_DATA)
        left = chase(theory, db, policy=OBLIVIOUS)
        right = chase(theory, db, policy=RESTRICTED)
        assert left.database.ground_atoms() >= right.database.ground_atoms()
        assert answers_in(left.database, "Q") == answers_in(right.database, "Q")

    def test_homomorphic_equivalence_of_policies(self):
        theory = parse_theory("P(x) -> exists y. R(x,y)\nR(x,y) -> S(y)")
        db = parse_database("P(a).")
        left = chase(theory, db, policy=OBLIVIOUS).database
        right = chase(theory, db, policy=RESTRICTED).database
        assert database_homomorphism(right, left) is not None
        assert database_homomorphism(left, right) is not None


class TestDatalogFirstRestricted:
    """The restricted policy runs each round's existential-free rules to
    a fixpoint before one pass of existential triggers."""

    def test_publication_figures(self):
        result = chase(
            parse_theory(PUBLICATION_THEORY),
            parse_database(PUBLICATION_DATA),
            policy=RESTRICTED,
        )
        assert result.complete
        assert (result.steps, result.nulls_created, result.rounds) == (7, 4, 2)
        assert len(result.database) == 15
        # Round 1: Q(a1) from the data, then both Publication triggers;
        # round 2: the four facts the new keywords lead to.
        assert [
            (r.triggers_enumerated, r.triggers_fired, r.atoms_added)
            for r in result.stats.rounds
        ] == [(2, 3, 3), (0, 4, 4)]
        assert result.stats.triggers_fired == result.steps

    def test_steps_count_datalog_facts(self):
        theory = parse_theory("E(x,y) -> A(x), B(y)")
        result = chase(theory, parse_database("E(a,b). E(a,c)."), policy=RESTRICTED)
        # three new facts, A(a) derived twice
        assert result.steps == 3 == len(result.database) - 2

    def test_triggers_deduplicated_by_frontier_image(self):
        theory = parse_theory("E(x,y) -> exists z. M(y,z)")
        db = parse_database("E(a,c). E(b,c).")
        restricted = chase(theory, db, policy=RESTRICTED)
        assert restricted.nulls_created == 1
        assert restricted.stats.triggers_enumerated == 1
        assert chase(theory, db, policy=OBLIVIOUS).nulls_created == 2

    def test_check_sees_datalog_consequences(self):
        # R(a,a) comes from the Datalog rule before the existential pass,
        # so the restricted check finds the head of the first rule
        # satisfied and invents nothing.
        theory = parse_theory("P(x) -> exists y. R(x,y)\nP(x) -> R(x,x)")
        result = chase(theory, parse_database("P(a)."), policy=RESTRICTED)
        assert result.nulls_created == 0 and result.rounds == 1

    def test_head_constant_of_a_datalog_phase_occurs(self):
        # Only the Datalog phase derives a fact with ``c``, and the rule
        # executors intern head constants without marking them: the
        # row-block append must mark it, or ``has_term`` would miss it.
        theory = parse_theory('R(x) -> S(x, "c")\nR(x) -> exists z. U(x, z)')
        result = chase(theory, parse_database("R(a)."), policy=RESTRICTED)
        assert Atom("S", (Constant("a"), Constant("c"))) in result.database
        assert result.database.has_term(Constant("c"))
        assert Constant("c") in result.database.constants()


class TestUniversality:
    def test_chase_maps_into_any_solution(self):
        theory = parse_theory("P(x) -> exists y. R(x,y)\nR(x,y) -> S(y)")
        db = parse_database("P(a).")
        result = chase(theory, db)
        solution = parse_database("P(a). R(a,w). S(w). Extra(q).")
        assert database_homomorphism(result.database, solution) is not None


class TestBudgets:
    def test_infinite_chase_truncated_by_steps(self):
        theory = parse_theory("P(x) -> exists y. P2(x,y)\nP2(x,y) -> exists z. P2(y,z)")
        db = parse_database("P(a).")
        result = chase(theory, db, budget=ChaseBudget(max_steps=50))
        assert not result.complete
        assert result.truncated_reason == "max_steps"

    def test_max_depth_truncates(self):
        theory = parse_theory("P(x) -> exists y. P(y)")
        db = parse_database("P(a).")
        result = chase(theory, db, budget=ChaseBudget(max_depth=3))
        assert not result.complete
        assert result.truncated_reason == "max_depth"
        assert max(result.null_depths.values()) <= 3

    def test_max_nulls(self):
        theory = parse_theory("P(x) -> exists y. P(y)")
        result = chase(
            theory, parse_database("P(a)."), budget=ChaseBudget(max_nulls=5)
        )
        assert result.truncated_reason == "max_nulls"

    @pytest.mark.parametrize(
        "policy, rules, rounds",
        [
            (OBLIVIOUS, "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)", 3),
            (RESTRICTED, "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)", 1),
            (RESTRICTED, "E(x,y) -> exists z. R(y,z)", 1),
        ],
    )
    def test_max_rounds_does_not_cut_a_finished_chase(self, policy, rules, rounds):
        theory = parse_theory(rules)
        db = parse_database("E(a,b). E(b,c). E(c,d).")
        reference = chase(theory, db, policy=policy)
        assert reference.complete and reference.rounds == rounds
        result = chase(
            theory, db, policy=policy, budget=ChaseBudget(max_rounds=rounds)
        )
        assert result.complete and result.truncated_reason is None
        assert set(result.database) == set(reference.database)

    @pytest.mark.parametrize("policy", [OBLIVIOUS, RESTRICTED])
    def test_max_rounds_cuts_when_another_round_has_work(self, policy):
        theory = parse_theory("P(x) -> exists y. R(x,y)\nR(x,y) -> S(y)")
        db = parse_database("P(a).")
        reference = chase(theory, db, policy=policy)
        assert reference.rounds == 2
        cut = chase(theory, db, policy=policy, budget=ChaseBudget(max_rounds=1))
        assert cut.truncated_reason == "max_rounds" and cut.rounds == 1
        resumed = resume_chase(cut.snapshot, budget=ChaseBudget())
        assert resumed.complete and resumed.rounds == 2
        assert set(resumed.database) == set(reference.database)

    def test_null_depth_tracking(self):
        theory = parse_theory("P(x) -> exists y. Q(y)\nQ(x) -> exists y. S(y)")
        result = chase(theory, parse_database("P(a)."))
        depths = sorted(result.null_depths.values())
        assert depths == [1, 2]


class TestEntailmentAndAnswers:
    def test_publication_example(self):
        """Example 1/2: Σp, D |= Q(a1) and Q(a2)."""
        theory = parse_theory(PUBLICATION_THEORY)
        db = parse_database(PUBLICATION_DATA)
        answers = certain_answers(Query(theory, "Q"), db)
        assert {t[0].name for t in answers} == {"a1", "a2"}

    def test_entails_positive(self):
        theory = parse_theory("E(x,y) -> T(x,y)")
        db = parse_database("E(a,b).")
        assert entails(theory, db, Atom("T", (Constant("a"), Constant("b"))))

    def test_entails_negative(self):
        theory = parse_theory("E(x,y) -> T(x,y)")
        db = parse_database("E(a,b).")
        assert not entails(theory, db, Atom("T", (Constant("b"), Constant("a"))))

    def test_entails_requires_ground(self):
        theory = parse_theory("E(x,y) -> T(x,y)")
        with pytest.raises(ValueError):
            entails(theory, parse_database("E(a,b)."), parse_rule("-> T(x,x)").head[0])

    def test_entails_raises_on_truncation_when_unknown(self):
        theory = parse_theory(
            "P(x) -> exists y. R(x,y)\nR(x,y) -> exists z. R(y,z)"
        )
        db = parse_database("P(a).")
        with pytest.raises(RuntimeError):
            entails(
                theory,
                db,
                Atom("Z", (Constant("a"),)),
                budget=ChaseBudget(max_steps=5),
            )

    def test_answers_exclude_null_tuples(self):
        theory = parse_theory("P(x) -> exists y. Q(y)")
        db = parse_database("P(a).")
        assert certain_answers(Query(theory, "Q"), db) == set()

    def test_answers_in_zero_ary(self):
        db = parse_database("Flag().")
        assert answers_in(db, "Flag") == {()}


class TestACDomInChase:
    def test_acdom_restricts_to_input_constants(self):
        theory = parse_theory(
            "P(x) -> exists y. R(x,y)\nR(x,y), ACDom(y) -> Picked(y)"
        )
        db = parse_database("P(a). R(a, b).")
        result = chase(theory, db)
        picked = answers_in(result.database, "Picked")
        # only the input constant b qualifies; the invented null does not
        assert picked == {(Constant("b"),)}

    def test_theory_constants_not_in_acdom(self):
        theory = parse_theory('-> P("c")\nP(x), ACDom(x) -> Q(x)')
        result = chase(theory, parse_database("R(a)."))
        assert answers_in(result.database, "Q") == set()

    def test_extend_chase_refuses_acdom(self):
        # P(b) enlarges the active domain, so Q(a, b) needs a trigger
        # that no inserted atom pins; only a fresh chase finds it.
        theory = parse_theory("P(x), ACDom(y) -> Q(x, y)")
        a, b = Constant("a"), Constant("b")
        result = chase(theory, parse_database("P(a)."))
        with pytest.raises(InvalidRequestError, match="ACDom"):
            extend_chase(theory, result.database, [Atom("P", (b,))])
        fresh = chase(theory, parse_database("P(a). P(b)."))
        assert {(a, b), (b, b)} <= answers_in(fresh.database, "Q")
