"""Differential property tests for the fact store against its oracles.

* Facade operations (``add``/``remove`` return values, ``in``,
  iteration, ``len``, ``==``, ``relations``/``constants``/``nulls``/
  ``terms``, ``atoms_matching``, ``content_hash``) must agree with a
  plain ``set[Atom]`` model, also across interleaved additions,
  row-block appends and swap-remove deletions, and the store's own
  indexes (row map, built hash buckets, decoded-atom cache) must match
  the rows they index.
* The row-executor Datalog fixpoint must equal the same program run on
  the naive homomorphism interpreter (``REPRO_NAIVE_JOIN=1``), which
  matches boxed atoms and checks negated literals by boxed membership.
* Snapshots must round-trip to an equal database.

Join and chase results on the store are held to the naive interpreter
by ``tests/test_plan_differential.py``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Atom, Constant, Database, NegatedAtom, Null, Rule, Theory, Variable
from repro.core.store import load_snapshot, save_snapshot
from repro.datalog import evaluate
from repro.bench.generators import (
    random_database,
    random_guarded_theory,
    random_signature,
)

CONSTANTS = [Constant(name) for name in ("a", "b", "c", "d")]
NULLS = [Null(name) for name in ("n0", "n1")]
RELATIONS = {"E": 2, "R": 2, "S": 1, "T": 3}

terms = st.sampled_from(CONSTANTS + NULLS)
relation_names = st.sampled_from(sorted(RELATIONS))


@st.composite
def ground_atoms(draw):
    relation = draw(relation_names)
    args = tuple(draw(terms) for _ in range(RELATIONS[relation]))
    return Atom(relation, args)


atom_lists = st.lists(ground_atoms(), max_size=24)


def model_terms(model: set[Atom]) -> set:
    return {term for atom in model for term in atom.all_terms}


def model_matching(model: set[Atom], key, bindings) -> set[Atom]:
    return {
        atom
        for atom in model
        if atom.relation_key == key
        and all(atom.all_terms[i] == term for i, term in bindings.items())
    }


def assert_indexes_match_rows(database: Database) -> None:
    """Every relation's row map, built buckets and decoded atoms agree
    with its columns, whatever order deletions left the rows in."""
    for key, relation in database._relations.items():
        rows = list(relation.iter_rows())
        assert len(rows) == relation.n_rows
        assert relation.rowmap() == {row: o for o, row in enumerate(rows)}
        for position, bucket in enumerate(relation._buckets):
            if bucket is None:
                continue
            expected: dict = {}
            for ordinal, row in enumerate(rows):
                expected.setdefault(row[position], []).append(ordinal)
            assert {v: sorted(o) for v, o in bucket.items()} == expected
        for ordinal, atom in enumerate(relation._decoded):
            assert atom is None or atom == database._decode_row(key, rows[ordinal])


def assert_agrees_with_model(database: Database, model: set[Atom], probes) -> None:
    assert len(database) == len(model)
    assert set(database) == model
    assert_indexes_match_rows(database)
    assert database.content_hash() == Database(model).content_hash()
    for probe in probes:
        assert (probe in database) == (probe in model)
        args = probe.all_terms
        for bindings in (
            {0: args[0]},
            {0: args[0], len(args) - 1: args[-1]},  # two bound (or all)
            dict(enumerate(args)),
        ):
            assert database.atoms_matching(
                probe.relation_key, bindings
            ) == model_matching(model, probe.relation_key, bindings)


#: One step of an interleaved sequence: add, remove, or remove and
#: re-add the same atom (its row comes back at another ordinal), or
#: append a list of atoms as one encoded block per relation.
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "remove", "readd"]), ground_atoms()),
        st.tuples(st.just("block"), st.lists(ground_atoms(), max_size=8)),
    ),
    max_size=30,
)


def append_blocks(database: Database, model: set[Atom], atoms: list[Atom]) -> None:
    """Append ``atoms`` through ``Database._add_rows``, one block per
    relation, encoded as the rule executors stage rows: interned
    without marking occurrence.  Each block must be the atoms not yet
    in ``model``, once each, in list order."""
    intern = database._symtab.intern
    per_key: dict = {}
    for atom in atoms:
        per_key.setdefault(atom.relation_key, []).append(atom)
    for key, group in per_key.items():
        fresh = [atom for atom in dict.fromkeys(group) if atom not in model]
        rows = [tuple(intern(term) for term in atom.all_terms) for atom in group]
        appended = database._add_rows(key, rows)
        assert appended == [
            tuple(intern(term) for term in atom.all_terms) for atom in fresh
        ]
        model.update(group)


class TestFacadeAgreement:
    @given(atom_lists, atom_lists)
    @settings(max_examples=60, deadline=None)
    def test_add_contains_iterate(self, atoms, probes):
        database, model = Database(), set()
        for atom in atoms:
            assert database.add(atom) == (atom not in model)
            model.add(atom)
        assert set(database) == model
        assert len(database) == len(model)
        assert database == Database(model)
        assert database.copy() == database
        for atom in atoms + probes:
            assert (atom in database) == (atom in model)
        if probes and probes[0] not in model:
            assert database != Database(model | {probes[0]})
        assert database.relations() == {atom.relation_key for atom in model}
        assert database.terms() == model_terms(model)
        assert database.constants() == {
            t for t in model_terms(model) if isinstance(t, Constant)
        }
        assert database.nulls() == {
            t for t in model_terms(model) if isinstance(t, Null)
        }
        for probe in probes:
            for bindings in (
                {},
                {0: probe.args[0]},
                dict(enumerate(probe.args)),
            ):
                assert database.atoms_matching(
                    probe.relation_key, bindings
                ) == model_matching(model, probe.relation_key, bindings)

    @given(
        initial=atom_lists,
        sequence=steps,
        probes=atom_lists,
        from_snapshot=st.booleans(),
        build=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_interleaved_add_remove(
        self, initial, sequence, probes, from_snapshot, build, tmp_path_factory
    ):
        if from_snapshot:
            path = str(tmp_path_factory.mktemp("snap") / "model.snap")
            save_snapshot(Database(initial), path)
            database = load_snapshot(path)  # removals thaw mapped columns
        else:
            database = Database(initial)
        model = set(initial)
        if build:
            # Build every index first, so deletions must keep them current.
            for relation in database._relations.values():
                relation.rowmap()
                for position in range(relation.width):
                    relation.bucket(position)
            database.content_hash()
            for atom in initial:
                database.atoms_matching(atom.relation_key, dict(enumerate(atom.args)))
        for kind, item in sequence:
            if kind == "block":
                append_blocks(database, model, item)
                assert all(database.has_term(t) for t in model_terms(set(item)))
                assert_agrees_with_model(database, model, probes + item)
                continue
            atom = item
            if kind == "add":
                assert database.add(atom) == (atom not in model)
                model.add(atom)
            else:
                assert database.remove(atom) == (atom in model)
                model.discard(atom)
                if kind == "readd":
                    assert_agrees_with_model(database, model, [atom])
                    assert database.add(atom)
                    model.add(atom)
            assert_agrees_with_model(database, model, probes + [atom])

    def test_remove_from_snapshot_and_readd(self, tmp_path):
        atoms = [
            Atom("T", (CONSTANTS[i % 4], CONSTANTS[(i + 1) % 4], NULLS[i % 2]))
            for i in range(8)
        ] + [Atom("E", (CONSTANTS[0], CONSTANTS[1]))]
        path = str(tmp_path / "model.snap")
        save_snapshot(Database(atoms), path)
        database = load_snapshot(path)
        model = set(atoms)
        database.content_hash()
        for atom in (atoms[0], atoms[5], atoms[0], atoms[-1]):
            assert database.remove(atom) == (atom in model)
            model.discard(atom)
            assert_agrees_with_model(database, model, atoms)
        for atom in (atoms[0], atoms[-1]):
            assert database.add(atom)
            model.add(atom)
            assert_agrees_with_model(database, model, atoms)


def assert_agrees_with_interpreter(program: Theory, database: Database) -> None:
    rows = evaluate(program, database)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NAIVE_JOIN", "1")
        naive = evaluate(program, database)
    assert set(rows) == set(naive)


class TestEngineAgreement:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_datalog_fixpoints_agree(self, seed):
        rng = random.Random(seed)
        signature = random_signature(rng, n_relations=3, max_arity=2)
        database = random_database(rng, signature, n_constants=5, n_atoms=10)
        theory = random_guarded_theory(
            rng, signature, n_rules=4, existential_probability=0.0
        )
        program = Theory([rule for rule in theory if rule.is_datalog()])
        assert_agrees_with_interpreter(program, database)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_negated_fixpoints_agree(self, seed):
        # The generated negation check probes encoded row sets; the
        # interpreter checks boxed membership.
        rng = random.Random(seed)
        signature = random_signature(rng, n_relations=3, max_arity=2)
        database = random_database(rng, signature, n_constants=5, n_atoms=10)
        constants = [Constant(f"c{i}") for i in range(5)]
        for _ in range(6):
            database.add(Atom("Q", (rng.choice(constants), rng.choice(constants))))
        theory = random_guarded_theory(
            rng, signature, n_rules=4, existential_probability=0.0
        )
        rules = [rule for rule in theory if rule.is_datalog()]
        relations = signature.relations()
        for index in range(4):
            guard_relation, other = rng.choice(relations), rng.choice(relations)
            xs = [Variable(f"x{i}") for i in range(signature.arity(guard_relation))]
            x, y = rng.choice(xs), rng.choice(xs)
            negated = [
                Atom("Q", (x, y)),
                Atom("Q", (x, x)),  # a repeated variable
                Atom("Q", (x, Constant("absent"))),  # a constant in no fact
                # a relation the random rules may derive (a lower stratum)
                Atom(other, tuple(rng.choice(xs) for _ in range(signature.arity(other)))),
            ][index]
            body = (Atom(guard_relation, tuple(xs)), NegatedAtom(negated))
            rules.append(Rule(body, (Atom(f"N{index}", (x, y)),)))
        assert_agrees_with_interpreter(Theory(rules), database)


class TestSnapshotRoundTripProperty:
    @given(atoms=atom_lists)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_equals_both_stores(self, atoms, tmp_path_factory):
        # Both references: the store that was saved and the plain set.
        path = str(tmp_path_factory.mktemp("snap") / "model.snap")
        original = Database(atoms)
        save_snapshot(original, path)
        loaded = load_snapshot(path)
        assert loaded == original
        assert set(loaded) == set(atoms)
        assert loaded.content_hash() == original.content_hash()
        for key in original.relations():
            assert loaded.atoms_for(key) == original.atoms_for(key)
