"""Tests for the semi-naive Datalog engine and stratification."""

import pytest

from repro.core import (
    Atom,
    Constant,
    Database,
    Query,
    Theory,
    parse_database,
    parse_theory,
)
from repro.chase import answers_in, chase
from repro.datalog import (
    DatalogError,
    NotStratifiedError,
    datalog_answers,
    edb_relations,
    evaluate,
    idb_relations,
    is_semipositive,
    is_stratified,
    stratify,
)

A, B, C, D = (Constant(n) for n in "abcd")


class TestEvaluation:
    def test_transitive_closure(self):
        program = parse_theory("E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)")
        db = parse_database("E(a,b). E(b,c). E(c,d).")
        answers = datalog_answers(Query(program, "T"), db)
        assert (A, D) in answers and len(answers) == 6

    def test_matches_chase_fixpoint(self):
        program = parse_theory(
            """
            E(x,y) -> T(x,y)
            E(x,y), T(y,z) -> T(x,z)
            T(x,y), T(y,x) -> Cyclic(x)
            """
        )
        db = parse_database("E(a,b). E(b,a). E(b,c).")
        fixpoint = evaluate(program, db)
        chased = chase(program, db)
        for relation in sorted(program.relations()):
            assert answers_in(fixpoint, relation) == answers_in(
                chased.database, relation
            )

    def test_facts_and_constants(self):
        program = parse_theory('-> P("a")\nP(x) -> Q(x)')
        fixpoint = evaluate(program, parse_database("R(z)."))
        assert Atom("Q", (A,)) in fixpoint

    def test_head_constant_occurs_in_the_fixpoint(self):
        # The rule executors intern head constants without marking them;
        # the row-block append is what makes ``c`` read as occurring.
        fixpoint = evaluate(parse_theory('R(x) -> S(x, "c")'), parse_database("R(a)."))
        assert Atom("S", (A, C)) in fixpoint
        assert fixpoint.has_term(C)
        assert C in fixpoint.constants()

    def test_rejects_existential_rules(self):
        with pytest.raises(DatalogError):
            evaluate(parse_theory("P(x) -> exists y. R(x,y)"), parse_database("P(a)."))

    def test_input_not_mutated(self):
        program = parse_theory("E(x,y) -> T(x,y)")
        db = parse_database("E(a,b).")
        evaluate(program, db)
        assert len(db) == 1

    def test_acdom_in_bodies(self):
        program = parse_theory("ACDom(x) -> Dom(x)")
        fixpoint = evaluate(program, parse_database("R(a,b)."))
        assert answers_in(fixpoint, "Dom") == {(A,), (B,)}

    def test_acdom_of_a_database_built_by_add(self):
        # ACDom is the input's constants however the input was built:
        # the run fixes it, not the empty Database() it started from.
        program = parse_theory("ACDom(x) -> D(x)")
        built = Database()
        built.add(Atom("E", (A, B)))
        fixpoint = evaluate(program, built)
        assert fixpoint == evaluate(program, parse_database("E(a,b)."))
        assert Atom("D", (A,)) in fixpoint and Atom("D", (B,)) in fixpoint

    def test_wide_join(self):
        program = parse_theory("E(x,y), E(y,z), E(z,w) -> Path3(x,w)")
        db = parse_database("E(a,b). E(b,c). E(c,d).")
        assert answers_in(evaluate(program, db), "Path3") == {(A, D)}

    def test_mutual_recursion(self):
        program = parse_theory(
            """
            Start(x) -> Even(x)
            Even(x), E(x,y) -> Odd(y)
            Odd(x), E(x,y) -> Even(y)
            """
        )
        db = parse_database("Start(a). E(a,b). E(b,c). E(c,d).")
        fixpoint = evaluate(program, db)
        assert Atom("Even", (C,)) in fixpoint
        assert Atom("Odd", (D,)) in fixpoint


class TestStratifiedNegation:
    def test_complement_query(self):
        program = parse_theory(
            """
            E(x,y) -> Connected(x)
            ACDom(x), not Connected(x) -> Isolated(x)
            """
        )
        db = parse_database("E(a,b). R(c).")
        fixpoint = evaluate(program, db)
        assert answers_in(fixpoint, "Isolated") == {(B,), (C,)}

    def test_three_strata(self):
        program = parse_theory(
            """
            E(x,y) -> T(x,y)
            E(x,y), T(y,z) -> T(x,z)
            ACDom(x), ACDom(y), not T(x,y) -> NotReach(x,y)
            NotReach(x,y), not Special(x) -> Report(x,y)
            """
        )
        db = parse_database("E(a,b). Special(b).")
        fixpoint = evaluate(program, db)
        reported = answers_in(fixpoint, "Report")
        assert (B, A) not in reported  # b is special
        assert (A, A) in reported

    def test_not_stratified_detected(self):
        program = parse_theory(
            """
            P(x), not Q(x) -> R(x)
            R(x) -> Q(x)
            """
        )
        with pytest.raises(NotStratifiedError):
            evaluate(program, parse_database("P(a)."))


class TestStratification:
    def test_stratum_assignment(self):
        program = parse_theory(
            """
            E(x,y) -> T(x,y)
            ACDom(x), not T(x,x) -> Loopless(x)
            """
        )
        strat = stratify(program)
        assert len(strat) == 2
        assert strat.relation_stratum["T"] < strat.relation_stratum["Loopless"]

    def test_positive_program_single_stratum(self):
        program = parse_theory("E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)")
        assert len(stratify(program)) == 1

    def test_is_stratified(self):
        assert is_stratified(parse_theory("P(x), not Q(x) -> R(x)"))
        assert not is_stratified(
            parse_theory("P(x), not Q(x) -> R(x)\nR(x) -> Q(x)")
        )

    def test_edb_idb_split(self):
        program = parse_theory("E(x,y) -> T(x,y)")
        assert edb_relations(program) == {"E"}
        assert idb_relations(program) == {"T"}

    def test_semipositive(self):
        assert is_semipositive(parse_theory("P(x), not Q(x) -> R(x)"))
        assert not is_semipositive(
            parse_theory("P(x) -> S(x)\nP(x), not S(x) -> R(x)")
        )

    def test_negation_on_acdom_is_semipositive(self):
        assert is_semipositive(parse_theory("P(x), not ACDom(x) -> R(x)"))


class TestStratifiedChase:
    def test_existential_rules_with_negation(self):
        from repro.chase import stratified_chase

        theory = parse_theory(
            """
            Person(x), not HasParent(x) -> exists y. ChildOf(x, y)
            ChildOf(x, y) -> Created(x)
            """
        )
        db = parse_database("Person(a). Person(b). HasParent(b).")
        result = stratified_chase(theory, db)
        assert result.complete
        created = answers_in(result.database, "Created")
        assert created == {(A,)}

    def test_strata_evaluated_in_order(self):
        from repro.chase import stratified_chase

        theory = parse_theory(
            """
            P(x) -> exists y. R(x, y)
            R(x,y) -> Done(x)
            ACDom(x), not Done(x) -> Failed(x)
            """
        )
        db = parse_database("P(a). Other(b).")
        result = stratified_chase(theory, db)
        assert answers_in(result.database, "Failed") == {(B,)}
