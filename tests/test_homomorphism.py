"""Unit tests for the homomorphism search."""

from contextlib import nullcontext

import pytest

from repro.core.atoms import Atom
from repro.core.database import Database
from repro.core.homomorphism import (
    database_homomorphism,
    databases_homomorphically_equivalent,
    first_homomorphism,
    has_homomorphism,
    homomorphisms,
    satisfies_rule,
)
from repro.core.parser import parse_database, parse_rule
from repro.core.plan import MAX_COMPILED_ATOMS, clear_plan_cache, plan_cache_stats
from repro.core.terms import Constant, Null, Variable
from repro.obs import instrumented

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
A, B, C = Constant("a"), Constant("b"), Constant("c")


class TestBasicMatching:
    def setup_method(self):
        self.db = parse_database("E(a,b). E(b,c).")

    def test_single_atom(self):
        homs = list(homomorphisms([Atom("E", (X, Y))], self.db))
        assert len(homs) == 2

    def test_join(self):
        homs = list(homomorphisms([Atom("E", (X, Y)), Atom("E", (Y, Z))], self.db))
        assert len(homs) == 1
        assert homs[0][X] == A and homs[0][Z] == C

    def test_constants_fixed(self):
        assert has_homomorphism([Atom("E", (A, Y))], self.db)
        assert not has_homomorphism([Atom("E", (C, Y))], self.db)

    def test_repeated_variable(self):
        db = parse_database("E(a,a). E(a,b).")
        homs = list(homomorphisms([Atom("E", (X, X))], db))
        assert len(homs) == 1

    def test_empty_pattern_single_empty_hom(self):
        assert list(homomorphisms([], self.db)) == [{}]

    def test_non_injective_allowed(self):
        db = parse_database("E(a,a).")
        assert has_homomorphism([Atom("E", (X, Y))], db)

    def test_partial_binding(self):
        homs = list(
            homomorphisms([Atom("E", (X, Y))], self.db, partial={X: B})
        )
        assert len(homs) == 1 and homs[0][Y] == C

    def test_pattern_longer_than_the_compile_limit(self, monkeypatch):
        # One nested loop per atom: Python's limit of 20 statically
        # nested blocks caps compiled patterns at MAX_COMPILED_ATOMS, and
        # longer ones take the interpreter, observed or not.
        monkeypatch.delenv("REPRO_NAIVE_JOIN", raising=False)
        for n in (MAX_COMPILED_ATOMS, MAX_COMPILED_ATOMS + 1, MAX_COMPILED_ATOMS + 6):
            for observed in (False, True):
                db = Database(
                    Atom("E", (Constant(f"c{i}"), Constant(f"c{i + 1}")))
                    for i in range(n)
                )
                path = [
                    Atom("E", (Variable(f"v{i}"), Variable(f"v{i + 1}")))
                    for i in range(n)
                ]
                nulls = Database(
                    Atom("E", (Null(f"n{i}"), Null(f"n{i + 1}"))) for i in range(n)
                )
                clear_plan_cache()
                codegen = plan_cache_stats()["codegen"]
                with instrumented() if observed else nullcontext():
                    (hom,) = homomorphisms(path, db)
                    equivalent = databases_homomorphically_equivalent(nulls, db)
                    image = database_homomorphism(nulls, db)
                compiled = plan_cache_stats()["codegen"] > codegen
                assert compiled == (n <= MAX_COMPILED_ATOMS)
                assert hom[Variable(f"v{n}")] == Constant(f"c{n}")
                assert equivalent is False
                assert image is not None

    def test_first_homomorphism_none(self):
        assert first_homomorphism([Atom("Z", (X,))], self.db) is None


class TestForcedMatching:
    def test_forced_atom_restricts(self):
        db = parse_database("E(a,b). E(b,c).")
        forced_fact = Atom("E", (B, C))
        homs = list(
            homomorphisms([Atom("E", (X, Y))], db, forced=(0, [forced_fact]))
        )
        assert len(homs) == 1 and homs[0][X] == B


class TestACDom:
    def test_acdom_binds_free_variable(self):
        db = parse_database("R(a,b).")
        homs = list(homomorphisms([Atom("ACDom", (X,))], db))
        assert {h[X] for h in homs} == {A, B}

    def test_acdom_checks_bound_variable(self):
        db = parse_database("R(a,b).")
        assert has_homomorphism(
            [Atom("R", (X, Y)), Atom("ACDom", (X,))], db
        )

    def test_acdom_rejects_nulls(self):
        db = Database([Atom("R", (Null("n"),))])
        assert not has_homomorphism([Atom("ACDom", (X,))], db)

    def test_acdom_join_filters_nulls(self):
        db = Database([Atom("R", (A,)), Atom("R", (Null("n"),))])
        homs = list(homomorphisms([Atom("R", (X,)), Atom("ACDom", (X,))], db))
        assert {h[X] for h in homs} == {A}


class TestRuleSatisfaction:
    def test_satisfied_datalog(self):
        db = parse_database("E(a,b). T(a,b).")
        assert satisfies_rule(db, parse_rule("E(x,y) -> T(x,y)"))

    def test_violated_datalog(self):
        db = parse_database("E(a,b).")
        assert not satisfies_rule(db, parse_rule("E(x,y) -> T(x,y)"))

    def test_existential_witness(self):
        db = parse_database("P(a). R(a, _:n0).")
        assert satisfies_rule(db, parse_rule("P(x) -> exists y. R(x,y)"))

    def test_existential_missing_witness(self):
        db = parse_database("P(a). R(b, _:n0).")
        assert not satisfies_rule(db, parse_rule("P(x) -> exists y. R(x,y)"))


class TestDatabaseHomomorphism:
    def test_nulls_map_flexibly(self):
        source = parse_database("R(a, _:n0).")
        target = parse_database("R(a, b).")
        mapping = database_homomorphism(source, target)
        assert mapping == {Null("n0"): B}

    def test_constants_rigid(self):
        source = parse_database("R(a).")
        target = parse_database("R(b).")
        assert database_homomorphism(source, target) is None

    def test_equivalence_of_isomorphic_null_structures(self):
        left = parse_database("R(a, _:n0). S(_:n0).")
        right = parse_database("R(a, _:m7). S(_:m7).")
        assert databases_homomorphically_equivalent(left, right)

    def test_fold_nulls_together(self):
        source = parse_database("R(a, _:n0). R(a, _:n1).")
        target = parse_database("R(a, _:m).")
        assert database_homomorphism(source, target) is not None

    def test_not_equivalent_when_target_smaller_in_ground_part(self):
        left = parse_database("R(a). R(b).")
        right = parse_database("R(a).")
        assert database_homomorphism(left, right) is None
        assert database_homomorphism(right, left) is not None
