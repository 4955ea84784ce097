"""Differential property tests: compiled join plans vs the naive
interpreter.

The compiled path (:func:`repro.core.plan.execute_plan` behind
:func:`homomorphisms`) and the reference interpreter
(:func:`naive_homomorphisms`, also reachable via ``REPRO_NAIVE_JOIN=1``)
must enumerate exactly the same assignment sets on arbitrary patterns,
databases, ``partial=`` seeds and ``forced=`` delta pinning — including
the virtual ``ACDom`` relation.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    Atom,
    Constant,
    Database,
    Query,
    Variable,
    cached_plan,
    clear_plan_cache,
    execute_plan,
    homomorphisms,
    naive_homomorphisms,
    plan_cache_stats,
)
from repro.core.plan import derive_rule_rows
from repro.core.terms import Null
from repro.core.theory import ACDOM
from repro.chase import certain_answers, chase
from repro.bench.generators import (
    random_database,
    random_guarded_theory,
    random_signature,
)

VARIABLES = [Variable(name) for name in ("x", "y", "z", "w")]
CONSTANTS = [Constant(name) for name in ("a", "b", "c", "d", "e")]
A, B, C = CONSTANTS[:3]
NULLS = [Null(name) for name in ("n0", "n1")]
RELATIONS = {"E": 2, "R": 2, "S": 1, "T": 3}

variables = st.sampled_from(VARIABLES)
constants = st.sampled_from(CONSTANTS)
pattern_terms = st.one_of(variables, constants)


@st.composite
def pattern_atoms(draw):
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        # an occasional ACDom atom: enumeration when its term is a free
        # variable, membership check when bound or constant
        return Atom(ACDOM, (draw(pattern_terms),))
    name = draw(st.sampled_from(sorted(RELATIONS)))
    terms = tuple(draw(pattern_terms) for _ in range(RELATIONS[name]))
    return Atom(name, terms)


@st.composite
def fact_atoms(draw):
    name = draw(st.sampled_from(sorted(RELATIONS)))
    pool = st.one_of(constants, st.sampled_from(NULLS))
    return Atom(name, tuple(draw(pool) for _ in range(RELATIONS[name])))


@st.composite
def workloads(draw):
    pattern = tuple(
        draw(pattern_atoms()) for _ in range(draw(st.integers(1, 4)))
    )
    database = Database(
        [draw(fact_atoms()) for _ in range(draw(st.integers(0, 20)))]
    )
    partial = None
    if draw(st.booleans()):
        # seeds may bind variables outside the pattern (extras ride along)
        partial = {
            variable: draw(constants)
            for variable in draw(
                st.sets(st.sampled_from(VARIABLES), min_size=1, max_size=3)
            )
        }
    forced = None
    if draw(st.booleans()):
        index = draw(st.integers(0, len(pattern) - 1))
        key = pattern[index].relation_key
        candidates = [fact for fact in database if fact.relation_key == key]
        extra = [draw(fact_atoms()) for _ in range(draw(st.integers(0, 2)))]
        forced = (index, candidates + extra)
    return pattern, database, partial, forced


def canon(assignments):
    return sorted(
        sorted((v.name, str(t)) for v, t in assignment.items())
        for assignment in assignments
    )


@settings(max_examples=200, deadline=None)
@given(workloads())
def test_compiled_equals_interpreter(workload):
    pattern, database, partial, forced = workload
    try:
        compiled = canon(
            homomorphisms(pattern, database, partial=partial, forced=forced)
        )
        compiled_error = None
    except ValueError as error:
        compiled, compiled_error = None, str(error)
    try:
        naive = canon(
            naive_homomorphisms(
                pattern, database, partial=partial, forced=forced
            )
        )
        naive_error = None
    except ValueError as error:
        naive, naive_error = None, str(error)
    assert compiled == naive
    assert compiled_error == naive_error


@settings(max_examples=50, deadline=None)
@given(workloads())
def test_escape_hatch_equals_compiled(workload):
    pattern, database, partial, forced = workload
    kwargs = {"partial": partial, "forced": forced}
    try:
        compiled = canon(homomorphisms(pattern, database, **kwargs))
    except ValueError:
        return  # malformed-ACDom parity is covered above
    import os

    os.environ["REPRO_NAIVE_JOIN"] = "1"
    try:
        hatch = canon(homomorphisms(pattern, database, **kwargs))
    finally:
        del os.environ["REPRO_NAIVE_JOIN"]
    assert hatch == compiled


class TestWholeRunDifferential:
    """End-to-end parity: chase and certain answers agree between the
    compiled and interpreter join paths on seeded random theories."""

    def _flip(self, fn, monkeypatch):
        clear_plan_cache()
        compiled = fn()
        monkeypatch.setenv("REPRO_NAIVE_JOIN", "1")
        try:
            interpreted = fn()
        finally:
            monkeypatch.delenv("REPRO_NAIVE_JOIN")
        return compiled, interpreted

    def test_chase_atoms_identical(self, monkeypatch):
        for seed in range(8):
            rng = random.Random(seed)
            signature = random_signature(rng, n_relations=3, max_arity=2)
            theory = random_guarded_theory(rng, signature, n_rules=4)
            database = random_database(rng, signature, n_atoms=8)
            compiled, interpreted = self._flip(
                lambda: chase(theory, database).database.atoms(), monkeypatch
            )
            assert compiled == interpreted, f"seed {seed}"

    def test_certain_answers_identical(self, monkeypatch):
        for seed in range(8):
            rng = random.Random(100 + seed)
            signature = random_signature(rng, n_relations=3, max_arity=2)
            theory = random_guarded_theory(rng, signature, n_rules=4)
            database = random_database(rng, signature, n_atoms=8)
            output = sorted(signature.arities)[0]
            compiled, interpreted = self._flip(
                lambda: certain_answers(Query(theory, output), database),
                monkeypatch,
            )
            assert compiled == interpreted, f"seed {seed}"


# ----------------------------------------------------------------------
# constant-lifted executors
# ----------------------------------------------------------------------
# A shape is a pattern whose constant positions hold placeholder indices;
# an assignment turns the placeholders into constants.  Two patterns with
# the same shape and the same equalities among their constants share the
# generated executors, so the second one must generate no code.
PLACEHOLDERS = range(3)


@st.composite
def lifted_shapes(draw):
    placeholder_or_var = st.one_of(variables, st.sampled_from(PLACEHOLDERS))
    body = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            body.append((ACDOM, (draw(placeholder_or_var),)))
            continue
        name = draw(st.sampled_from(sorted(RELATIONS)))
        body.append(
            (name, tuple(draw(placeholder_or_var) for _ in range(RELATIONS[name])))
        )
    body_vars = sorted(
        {t for _, terms in body for t in terms if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    head_terms = st.sampled_from(PLACEHOLDERS)
    if body_vars:
        head_terms = st.one_of(st.sampled_from(body_vars), head_terms)
    head = ("H", tuple(draw(head_terms) for _ in range(2)))
    return body, head


def _instantiate(atom_shape, assignment):
    name, terms = atom_shape
    return Atom(
        name,
        tuple(
            term if isinstance(term, Variable) else assignment[term]
            for term in terms
        ),
    )


def _sharing(pattern):
    """Which constant positions hold equal constants (first-occurrence
    numbering) — the part of a pattern's lifted shape that depends on
    its constants."""
    first: dict = {}
    return tuple(
        tuple(
            first.setdefault(term, len(first))
            for term in atom.all_terms
            if not isinstance(term, Variable)
        )
        for atom in pattern
    )


def _compiled(pattern, database):
    return canon(execute_plan(cached_plan(pattern, frozenset(), None), database))


def _rows(body, head, database):
    """``derive_rule_rows`` staged rows, decoded to atoms."""
    out: dict = {}
    derive_rule_rows(body, (head,), database, None, out)
    terms = database._symtab._terms
    return {
        Atom(key[0], tuple(terms[i] for i in row))
        for key, rows in out.items()
        for row in rows
    }


def _naive_rows(body, head, database):
    derived = {head.substitute(a) for a in naive_homomorphisms(body, database)}
    return {atom for atom in derived if atom not in database}


@settings(max_examples=150, deadline=None)
@given(
    lifted_shapes(),
    st.lists(constants, min_size=3, max_size=3),
    st.lists(constants, min_size=3, max_size=3),
    st.lists(fact_atoms(), max_size=20),
    st.fixed_dictionaries({v: constants for v in VARIABLES}),
)
def test_lifted_executors_bind_constants_per_call(
    shape, first, second, facts, witness
):
    body_shape, head_shape = shape
    # Seed each assignment's body instance under ``witness`` so that both
    # patterns usually match and their head rows are compared.
    for values in (first, second):
        for atom in body_shape:
            if atom[0] != ACDOM:
                facts.append(_instantiate(atom, values).substitute(witness))
    database = Database(facts)
    generated = []
    for values in (first, second):
        body = tuple(_instantiate(atom, values) for atom in body_shape)
        head = _instantiate(head_shape, values)
        before = plan_cache_stats()["codegen"]
        assert _compiled(body, database) == canon(
            naive_homomorphisms(body, database)
        )
        assert _rows(body, head, database) == _naive_rows(body, head, database)
        generated.append(plan_cache_stats()["codegen"] - before)
    patterns = [
        [_instantiate(atom, values) for atom in (*body_shape, head_shape)]
        for values in (first, second)
    ]
    if _sharing(patterns[0]) == _sharing(patterns[1]):
        assert generated[1] == 0


def test_repeated_constant_is_not_confused_with_distinct_ones():
    database = Database(
        [
            Atom("R", (A, A)),
            Atom("R", (A, B)),
            Atom("R", (B, B)),
        ]
    )
    same = (Atom("R", (A, A)),)
    distinct = (Atom("R", (A, B)),)
    for pattern in (same, distinct, (Atom("R", (B, B)),), (Atom("R", (B, A)),)):
        assert _compiled(pattern, database) == canon(
            naive_homomorphisms(pattern, database)
        )
    assert _compiled(same, database) == [[]]
    assert _compiled((Atom("R", (B, A)),), database) == []


def test_acdom_and_head_constants_are_arguments():
    database = Database([Atom("E", (A, B)), Atom("E", (B, C))])
    x = VARIABLES[0]
    for constant, expected in ((A, True), (C, True), (Constant("zz"), False)):
        pattern = (Atom(ACDOM, (constant,)), Atom("E", (x, B)))
        got = _compiled(pattern, database)
        assert got == canon(naive_homomorphisms(pattern, database))
        assert bool(got) == expected
    # Head constants that differ from the body's share one executor.
    before = plan_cache_stats()["codegen"]
    for tag in (A, C, Constant("d")):
        body = (Atom("E", (x, B)),)
        head = Atom("H", (x, tag))
        assert _rows(body, head, database) == {Atom("H", (A, tag))}
    assert plan_cache_stats()["codegen"] - before <= 1
