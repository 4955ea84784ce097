"""Unit tests for the compiled join-plan layer (repro.core.plan).

Each case checks the compiled executor against the naive reference
interpreter on a handcrafted pattern, plus the plan-cache bookkeeping,
the ``REPRO_NAIVE_JOIN`` escape hatch, and the generated-source shape.
"""

import pytest

from repro.core import (
    Atom,
    Constant,
    Database,
    Variable,
    cached_plan,
    clear_plan_cache,
    compile_plan,
    execute_plan,
    homomorphisms,
    naive_homomorphisms,
    plan_cache_stats,
)
from repro.core.parser import parse_database, parse_theory
from repro.core.terms import Null
from repro.core.theory import ACDOM
from repro.datalog import evaluate
from repro.obs import instrumented

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
A, B, C = Constant("a"), Constant("b"), Constant("c")


def canon(assignments):
    """Order-insensitive canonical form of an assignment enumeration."""
    return sorted(
        sorted((v.name, str(t)) for v, t in assignment.items())
        for assignment in assignments
    )


def both_paths(pattern, database, **kwargs):
    compiled = canon(homomorphisms(pattern, database, **kwargs))
    naive = canon(naive_homomorphisms(pattern, database, **kwargs))
    assert compiled == naive
    return compiled


class TestCompiledEqualsNaive:
    def setup_method(self):
        self.db = parse_database("E(a,b). E(b,c). E(c,a). E(a,c). T(a).")

    def test_single_atom(self):
        results = both_paths([Atom("E", (X, Y))], self.db)
        assert len(results) == 4

    def test_chain_join(self):
        results = both_paths([Atom("E", (X, Y)), Atom("E", (Y, Z))], self.db)
        assert len(results) == 5

    def test_triangle(self):
        pattern = [Atom("E", (X, Y)), Atom("E", (Y, Z)), Atom("E", (Z, X))]
        results = both_paths(pattern, self.db)
        assert len(results) == 3  # a→b→c→a rotations

    def test_repeated_variable(self):
        db = parse_database("E(a,a). E(a,b).")
        assert both_paths([Atom("E", (X, X))], db) == [[("x", "a")]]

    def test_constants_in_pattern(self):
        results = both_paths([Atom("E", (A, Y))], self.db)
        assert len(results) == 2

    def test_no_match(self):
        assert both_paths([Atom("E", (X, X))], self.db) == []

    def test_empty_pattern(self):
        assert both_paths([], self.db) == [[]]

    def test_cross_product(self):
        results = both_paths([Atom("E", (X, Y)), Atom("T", (Z,))], self.db)
        assert len(results) == 4

    def test_nulls_in_database(self):
        db = Database([Atom("E", (A, Null("n0")))])
        results = both_paths([Atom("E", (X, Y))], db)
        assert results == [[("x", "a"), ("y", "_:n0")]]


class TestFullyBoundProbe:
    """A step whose every position is a constant or an earlier binding
    is one row-map probe; compiled and interpreted results agree."""

    def setup_method(self):
        self.db = Database(
            [
                Atom("E", (A, B)),
                Atom("E", (B, C)),
                Atom("E", (C, A)),
                Atom("E", (A, C)),
                Atom("T", (A,)),
                # Annotated: R[b](a), R[c](a).
                Atom("R", (A,), (B,)),
                Atom("R", (A,), (C,)),
            ]
        )

    def test_bound_by_slots(self):
        pattern = [Atom("E", (X, Y)), Atom("E", (Y, X))]
        assert both_paths(pattern, self.db) == [
            [("x", "a"), ("y", "c")],
            [("x", "c"), ("y", "a")],
        ]

    def test_bound_by_constants(self):
        assert both_paths([Atom("E", (A, B))], self.db) == [[]]
        assert both_paths([Atom("E", (B, A))], self.db) == []
        pattern = [Atom("E", (X, Y)), Atom("E", (C, A))]
        assert len(both_paths(pattern, self.db)) == 4

    def test_constant_absent_from_the_symbol_table(self):
        zz = Constant("zz")
        assert both_paths([Atom("E", (zz, A))], self.db) == []
        assert both_paths([Atom("E", (X, Y)), Atom("E", (X, zz))], self.db) == []

    def test_bound_annotation_positions(self):
        pattern = [Atom("E", (X, Y)), Atom("R", (X,), (Y,))]
        assert both_paths(pattern, self.db) == [
            [("x", "a"), ("y", "b")],
            [("x", "a"), ("y", "c")],
        ]
        assert both_paths([Atom("R", (A,), (A,))], self.db) == []

    def test_relation_absent_from_the_database(self):
        pattern = [Atom("E", (X, Y)), Atom("Q", (X, Y))]
        assert both_paths(pattern, self.db) == []
        assert both_paths([Atom("Q", (A, B))], self.db) == []

    def test_followed_by_a_binding_atom(self):
        # After E(x, y), T(x) is fully bound; E(y, z) then binds z.
        pattern = [Atom("E", (X, Y)), Atom("T", (X,)), Atom("E", (Y, Z))]
        assert both_paths(pattern, self.db) == [
            [("x", "a"), ("y", "b"), ("z", "c")],
            [("x", "a"), ("y", "c"), ("z", "a")],
        ]

    def test_rule_executors_agree_with_the_interpreter(self, monkeypatch):
        program = parse_theory(
            "E(x,y), E(y,x) -> Mutual(x,y)\n"
            "E(x,y), T(x), E(y,z) -> Two(x,z)\n"
            'E(x,y), E(y,"zz") -> Never(x)\n'
            "E(x,y), Q(x,y) -> Never(x)\n"
            "Two(x,z), E(x,z) -> Short(x,z)"
        )
        compiled = set(evaluate(program, self.db))
        monkeypatch.setenv("REPRO_NAIVE_JOIN", "1")
        assert set(evaluate(program, self.db)) == compiled
        assert Atom("Short", (A, C)) in compiled
        assert not any(atom.relation == "Never" for atom in compiled)

    def test_generated_step_is_a_probe_without_a_bucket_loop(self):
        plan = compile_plan((Atom("E", (X, Y)), Atom("E", (Y, X))))
        assert plan.order == (0, 1)
        source = plan.source()
        assert "RM1 = {} if rl1 is None else rl1.rowmap()" in source
        assert "if (s1, s0,) not in RM1: continue" in source
        assert "for o1 " not in source and "B1_" not in source


class TestPartialSeeds:
    def setup_method(self):
        self.db = parse_database("E(a,b). E(b,c).")

    def test_partial_restricts(self):
        results = both_paths([Atom("E", (X, Y))], self.db, partial={X: B})
        assert results == [[("x", "b"), ("y", "c")]]

    def test_partial_conflicts_yield_nothing(self):
        assert both_paths([Atom("E", (X, Y))], self.db, partial={X: C}) == []

    def test_extra_bindings_passed_through(self):
        # a partial binding on a variable outside the pattern rides along
        results = both_paths([Atom("E", (X, Y))], self.db, partial={W: C})
        assert all(("w", "c") in row for row in results)
        assert len(results) == 2

    def test_distinct_adornments_get_distinct_plans(self):
        pattern = (Atom("E", (X, Y)),)
        plan_x = cached_plan(pattern, frozenset({X}), None)
        plan_y = cached_plan(pattern, frozenset({Y}), None)
        assert plan_x is not plan_y
        assert plan_x is cached_plan(pattern, frozenset({X}), None)


class TestForcedPinning:
    def test_forced_restricts_one_atom(self):
        db = parse_database("E(a,b). E(b,c). E(c,a).")
        delta = [Atom("E", (B, C))]
        pattern = [Atom("E", (X, Y)), Atom("E", (Y, Z))]
        results = both_paths(pattern, db, forced=(0, delta))
        assert results == [[("x", "b"), ("y", "c"), ("z", "a")]]

    def test_forced_ignores_other_relations(self):
        db = parse_database("E(a,b). E(b,c).")
        results = both_paths(
            [Atom("E", (X, Y))], db, forced=(0, [Atom("F", (A, B))])
        )
        assert results == []

    def test_forced_key_is_part_of_cache_identity(self):
        pattern = (Atom("E", (X, Y)), Atom("E", (Y, Z)))
        assert cached_plan(pattern, frozenset(), 0) is not cached_plan(
            pattern, frozenset(), 1
        )


class TestACDomPatterns:
    def setup_method(self):
        self.db = parse_database("E(a,b). T(c).")

    def test_enumeration_when_unbound(self):
        results = both_paths([Atom(ACDOM, (X,))], self.db)
        assert results == [[("x", "a")], [("x", "b")], [("x", "c")]]

    def test_check_when_bound(self):
        pattern = [Atom("E", (X, Y)), Atom(ACDOM, (X,))]
        results = both_paths(pattern, self.db)
        assert len(results) == 1

    def test_constant_membership(self):
        assert both_paths([Atom(ACDOM, (A,))], self.db) == [[]]
        assert both_paths([Atom(ACDOM, (Constant("zz"),))], self.db) == []

    def test_null_never_in_acdom(self):
        db = Database([Atom("E", (A, Null("n0")))])
        pattern = [Atom("E", (X, Y)), Atom(ACDOM, (Y,))]
        assert both_paths(pattern, db) == []

    def test_malformed_acdom_raises_lazily(self):
        bad = [Atom(ACDOM, (X, Y)), Atom("E", (X, Y))]
        # building the generator does not raise ...
        compiled = homomorphisms(bad, self.db)
        naive = naive_homomorphisms(bad, self.db)
        # ... consuming it does, on both paths, with the same message
        with pytest.raises(ValueError, match="ACDom is unary"):
            list(compiled)
        with pytest.raises(ValueError, match="ACDom is unary"):
            list(naive)


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def test_hit_and_miss_counters(self):
        pattern = (Atom("E", (X, Y)), Atom("E", (Y, Z)))
        before = plan_cache_stats()
        first = cached_plan(pattern, frozenset(), None)
        second = cached_plan(pattern, frozenset(), None)
        after = plan_cache_stats()
        assert first is second
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_obs_counters(self, monkeypatch):
        # counters are a compiled-path contract; pin the escape hatch off
        # so the test holds even when the suite runs under REPRO_NAIVE_JOIN=1
        monkeypatch.delenv("REPRO_NAIVE_JOIN", raising=False)
        db = parse_database("E(a,b). E(b,c).")
        pattern = (Atom("E", (X, Y)), Atom("E", (Y, Z)))
        with instrumented() as instr:
            list(homomorphisms(pattern, db))
            list(homomorphisms(pattern, db))
            list(homomorphisms((Atom("E", (X, Y)), Atom("E", (Y, B))), db))
            # same shape, another constant: a miss, but no new executor
            list(homomorphisms((Atom("E", (X, Y)), Atom("E", (Y, A))), db))
        assert instr.metrics.counter("plan.compile_calls") == 3
        assert instr.metrics.counter("plan.cache_hits") == 1
        assert instr.metrics.counter("plan.codegen") == 2

    def test_reuse_across_databases(self):
        pattern = (Atom("E", (X, Y)),)
        plan = cached_plan(pattern, frozenset(), None)
        db1 = parse_database("E(a,b).")
        db2 = parse_database("E(b,c). E(c,a).")
        assert len(list(execute_plan(plan, db1))) == 1
        assert len(list(execute_plan(plan, db2))) == 2

    def test_cap_eviction(self, monkeypatch):
        import repro.core.plan as plan_mod

        monkeypatch.setattr(plan_mod, "_PLAN_CACHE_CAP", 2)
        evictions = plan_cache_stats()["evictions"]
        for name in ("P", "Q", "R"):
            cached_plan((Atom(name, (X,)),), frozenset(), None)
        assert plan_cache_stats()["evictions"] > evictions
        assert plan_cache_stats()["size"] <= 2


class TestPlanCacheLru:
    """Eviction is least-recently-*used*, not clear-everything: a plan
    that keeps getting hit survives an overflow that evicts a colder
    one (the service's warm-worker contract)."""

    def setup_method(self):
        clear_plan_cache()

    def test_hit_refreshes_recency(self):
        from repro.core import set_plan_cache_capacity

        previous = set_plan_cache_capacity(2)
        try:
            hot = cached_plan((Atom("Hot", (X,)),), frozenset(), None)
            cached_plan((Atom("Cold", (X,)),), frozenset(), None)
            # Touch the older entry, making "Cold" the LRU victim…
            assert cached_plan((Atom("Hot", (X,)),), frozenset(), None) is hot
            cached_plan((Atom("New", (X,)),), frozenset(), None)
            # …so re-requesting the hot plan is still a hit (identity),
            # while the cold plan was the one evicted.
            hits = plan_cache_stats()["hits"]
            assert cached_plan((Atom("Hot", (X,)),), frozenset(), None) is hot
            assert plan_cache_stats()["hits"] == hits + 1
            misses = plan_cache_stats()["misses"]
            cached_plan((Atom("Cold", (X,)),), frozenset(), None)
            assert plan_cache_stats()["misses"] == misses + 1
        finally:
            set_plan_cache_capacity(previous)
            clear_plan_cache()

    def test_shrinking_capacity_evicts_immediately(self):
        from repro.core import set_plan_cache_capacity

        previous = plan_cache_stats()["capacity"]
        for name in ("P", "Q", "R", "S"):
            cached_plan((Atom(name, (X,)),), frozenset(), None)
        evictions = plan_cache_stats()["evictions"]
        assert set_plan_cache_capacity(2) == previous
        try:
            stats = plan_cache_stats()
            assert stats["size"] == 2
            assert stats["capacity"] == 2
            assert stats["evictions"] == evictions + 2
        finally:
            set_plan_cache_capacity(previous)
            clear_plan_cache()

    def test_capacity_must_be_positive(self):
        from repro.core import set_plan_cache_capacity

        with pytest.raises(ValueError):
            set_plan_cache_capacity(0)

    def test_eviction_obs_counter(self, monkeypatch):
        from repro.core import set_plan_cache_capacity

        previous = set_plan_cache_capacity(1)
        try:
            with instrumented() as instr:
                cached_plan((Atom("P", (X,)),), frozenset(), None)
                cached_plan((Atom("Q", (X,)),), frozenset(), None)
            assert instr.metrics.counter("plan.cache_evictions") == 1
        finally:
            set_plan_cache_capacity(previous)
            clear_plan_cache()


class TestEscapeHatch:
    def test_env_routes_to_interpreter(self, monkeypatch):
        db = parse_database("E(a,b). E(b,c).")
        pattern = (Atom("E", (X, Y)), Atom("E", (Y, Z)))
        program = parse_theory("E(x,y), E(y,z), not E(z,x) -> P(x,z)")
        expected = canon(homomorphisms(pattern, db))
        model = set(evaluate(program, db))
        clear_plan_cache()
        monkeypatch.setenv("REPRO_NAIVE_JOIN", "1")
        misses = plan_cache_stats()["misses"]
        assert canon(homomorphisms(pattern, db)) == expected
        assert set(evaluate(program, db)) == model
        # the interpreter path never consults the plan cache, and the
        # Datalog rule executors take it too
        assert plan_cache_stats()["misses"] == misses

    def test_zero_means_compiled(self, monkeypatch):
        db = parse_database("E(a,b).")
        pattern = (Atom("E", (X, Y)),)
        clear_plan_cache()
        monkeypatch.setenv("REPRO_NAIVE_JOIN", "0")
        misses = plan_cache_stats()["misses"]
        list(homomorphisms(pattern, db))
        assert plan_cache_stats()["misses"] == misses + 1


class TestCompiledPlanShape:
    def test_static_order_seeds_from_forced_atom(self):
        pattern = (Atom("E", (X, Y)), Atom("E", (Y, Z)))
        plan = compile_plan(pattern, forced_index=1)
        assert plan.order[0] == 1

    def test_adornment_outside_pattern_ignored(self):
        plan = compile_plan((Atom("E", (X, Y)),), adornment=(W,))
        assert W not in plan.adornment
        assert plan.has_extras

    def test_generated_source_is_a_generator(self):
        plan = compile_plan((Atom("E", (X, Y)), Atom("E", (Y, Z))))
        source = plan.source()
        assert "def _plan_fn(" in source
        assert "yield" in source
        # The executor execute_plan runs unifies in the store's ID space.
        assert "_symtab" in source

    def test_plans_cover_all_atoms(self):
        pattern = (Atom("E", (X, Y)), Atom("T", (Z,)), Atom("E", (Y, Z)))
        plan = compile_plan(pattern)
        assert sorted(plan.order) == [0, 1, 2]
        assert plan.pattern_vars == frozenset({X, Y, Z})
