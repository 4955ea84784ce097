"""Differential property tests: incremental maintenance vs recompute.

Random stratified Datalog programs and random interleaved
insert/retract sequences, asserting after *every* batch that the
maintained :class:`~repro.incremental.LiveModel` equals a from-scratch
evaluation of the post-update input database — model equality (the full
atom sets) and per-relation CQ answers.  A dedicated generator biases
retractions onto facts with derived consequences so the Backward/Forward
delete runs constantly; retractions are also drawn from binary facts
that lie on a cycle (the recursive case, where facts of the cycle
support each other and only a proof from the extensional rows keeps
one), including one deterministic retraction inside a 60-node strongly
connected component.
A chase variant checks the delta-restricted chase against full
re-chasing on the constant-only (certain) fragment.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from repro.core import Atom, Constant, Database
from repro.core.theory import Theory
from repro.chase.runner import ChaseBudget, chase
from repro.datalog.engine import evaluate
from repro.incremental import ChaseLiveModel, LiveModel
from repro.robustness.errors import ReproError
from repro.bench.generators import (
    random_database,
    random_datalog_theory,
    random_guarded_theory,
    random_signature,
)


def rebuild(database: Database) -> Database:
    """A fresh database with the same contents (fresh ACDom freeze,
    fresh memo) — what a from-scratch run would parse."""
    return Database(list(database))


def model_atoms(model: Database) -> set[Atom]:
    return set(model)


def answers_by_relation(model: Database) -> dict[str, set]:
    by_relation: dict[str, set] = {}
    for atom in model:
        if all(isinstance(term, Constant) for term in atom.args):
            by_relation.setdefault(atom.relation, set()).add(atom.args)
    return by_relation


@st.composite
def datalog_workloads(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    signature = random_signature(rng, n_relations=3, max_arity=2)
    program = random_datalog_theory(rng, signature, n_rules=4)
    database = random_database(rng, signature, n_constants=4, n_atoms=8)
    n_batches = draw(st.integers(min_value=1, max_value=4))
    batch_seeds = [
        draw(st.integers(min_value=0, max_value=10_000))
        for _ in range(n_batches)
    ]
    return signature, program, database, batch_seeds


def on_cycle(facts) -> list[Atom]:
    """The binary facts ``R(u, v)`` that lie on a cycle of the graph
    whose edges are all binary facts (``v`` reaches ``u``; a loop
    ``R(u, u)`` included), in the order given."""
    successors: dict = {}
    for atom in facts:
        if len(atom.args) == 2:
            successors.setdefault(atom.args[0], set()).add(atom.args[1])

    def reaches(source, target) -> bool:
        seen, stack = set(), [source]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(successors.get(node, ()))
        return False

    return [
        atom
        for atom in facts
        if len(atom.args) == 2 and reaches(atom.args[1], atom.args[0])
    ]


def random_batch(rng, signature, edb):
    """One insert/retract batch; retracts are drawn from the live EDB so
    deletions actually hit supported facts, half of them (when there is
    one) from the facts that lie on a cycle."""
    constants = [Constant(f"c{i}") for i in range(5)]
    inserts = []
    for _ in range(rng.randint(0, 3)):
        relation = rng.choice(signature.relations())
        args = tuple(
            rng.choice(constants)
            for _ in range(signature.arity(relation))
        )
        inserts.append(Atom(relation, args))
    current = sorted(edb)
    cyclic = on_cycle(current)
    retracts = []
    if current:
        for _ in range(rng.randint(0, 2)):
            pool = cyclic if cyclic and rng.random() < 0.5 else current
            retracts.append(rng.choice(pool))
    return inserts, retracts


#: Transitive closure plus the nodes on a cycle: every cycle in the
#: edges is a strongly connected component of ``t``.
CYCLE_PROGRAM = """
e(x,y) -> t(x,y)
e(x,y), t(y,z) -> t(x,z)
t(x,y), e(y,x) -> c(x)
"""


def edge(u, v) -> Atom:
    return Atom("e", (u, v))


@st.composite
def cyclic_graph_workloads(draw):
    """A small graph with at least one cycle, and batches of edge
    inserts, each with a seed for drawing its retraction."""
    nodes = [Constant(f"n{i}") for i in range(draw(st.integers(1, 7)))]
    cycle = draw(st.permutations(nodes))[: draw(st.integers(1, len(nodes)))]
    edges = {edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
    node_pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges |= {edge(u, v) for u, v in draw(st.lists(node_pairs, max_size=8))}
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(node_pairs, max_size=2),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return sorted(edges), batches


class TestDatalogDifferential:
    @given(datalog_workloads())
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_recompute(self, workload):
        signature, program, database, batch_seeds = workload
        live = LiveModel(program, database)
        assume(live.mode == "counting")
        for seed in batch_seeds:
            rng = random.Random(seed)
            inserts, retracts = random_batch(rng, signature, live.edb)
            live.apply(inserts=inserts, retracts=retracts)
            reference = evaluate(program, rebuild(live.edb))
            assert model_atoms(live.model) == model_atoms(reference)
            assert answers_by_relation(live.model) == answers_by_relation(
                reference
            )
            for relation in signature.relations():
                assert live.answers(relation) == {
                    atom.args
                    for atom in reference
                    if atom.relation == relation
                    and all(isinstance(t, Constant) for t in atom.args)
                }

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=60, deadline=None)
    def test_dred_overdelete_rederive_path(self, seed):
        # Transitive closure with random edge churn: every retraction of
        # a bridge edge exercises the backward proof search and the
        # forward deletion, and alternative paths must survive.
        from repro.core.parser import parse_theory

        program = parse_theory("e(x,y) -> t(x,y)\ne(x,y), t(y,z) -> t(x,z)")
        rng = random.Random(seed)
        nodes = [Constant(f"n{i}") for i in range(5)]
        edges = {
            Atom("e", (rng.choice(nodes), rng.choice(nodes)))
            for _ in range(6)
        }
        live = LiveModel(program, Database(sorted(edges)))
        touched_dred = False
        for _ in range(4):
            inserts = [
                Atom("e", (rng.choice(nodes), rng.choice(nodes)))
                for _ in range(rng.randint(0, 2))
            ]
            current = sorted(live.edb)
            retracts = [rng.choice(current)] if current else []
            stats = live.apply(inserts=inserts, retracts=retracts)
            touched_dred = touched_dred or stats.overdeleted > 0
            reference = evaluate(program, rebuild(live.edb))
            assert model_atoms(live.model) == model_atoms(reference)
        # Not every random episode overdeletes, but the suite as a whole
        # must keep hitting the path; at minimum the counters stay sane.
        assert live.mode == "counting"

    @given(cyclic_graph_workloads())
    @settings(max_examples=60, deadline=None)
    def test_retractions_inside_cycles(self, workload):
        # Every batch retracts an edge on a cycle when one is left: the
        # cycle's facts support each other, so the delete must keep
        # exactly those a proof from the remaining edges still reaches.
        from repro.core.parser import parse_theory

        edges, batches = workload
        program = parse_theory(CYCLE_PROGRAM)
        live = LiveModel(program, Database(edges))
        for index, (pairs, seed) in enumerate(batches):
            cyclic = on_cycle(sorted(live.edb))
            if index == 0:
                assert cyclic  # the drawn graph starts with a cycle
            retracts = [random.Random(seed).choice(cyclic)] if cyclic else []
            stats = live.apply(
                inserts=[edge(u, v) for u, v in pairs], retracts=retracts
            )
            assert stats.mode == "counting"
            if retracts:
                assert stats.overdeleted > 0
            reference = evaluate(program, rebuild(live.edb))
            assert model_atoms(live.model) == model_atoms(reference)

    def test_retraction_inside_a_large_scc(self):
        # One 60-node strongly connected component (a Hamiltonian cycle
        # plus seeded chords): retracting a cycle edge puts nearly all of
        # t in doubt, and the maintained model must equal a fresh one.
        # The examined/kept counts are Backward/Forward's on either join
        # path; DRed overdeleted (3660, 3480 rederived) and (3479, 3419).
        from repro.core.parser import parse_theory

        rng = random.Random(60)
        nodes = [Constant(f"v{i}") for i in range(60)]
        edges = {edge(nodes[i], nodes[(i + 1) % 60]) for i in range(60)}
        while len(edges) < 120:
            u, v = rng.sample(nodes, 2)
            edges.add(edge(u, v))
        program = parse_theory(CYCLE_PROGRAM)
        live = LiveModel(program, Database(sorted(edges)))
        assert len(live.answers("c")) == 60
        for retract, insert, work in (
            (edge(nodes[0], nodes[1]), None, (1540, 1359)),
            (edge(nodes[30], nodes[31]), edge(nodes[0], nodes[1]), (1576, 1515)),
        ):
            assert retract in on_cycle(sorted(live.edb))
            stats = live.apply(
                inserts=[insert] if insert else [], retracts=[retract]
            )
            assert (stats.overdeleted, stats.rederived) == work
            assert stats.rederived > 0
            reference = evaluate(program, rebuild(live.edb))
            assert model_atoms(live.model) == model_atoms(reference)

    def test_dred_path_definitely_runs(self):
        # A deterministic bridge retraction that must examine a chain
        # and keep the survivors — pinned so the Backward/Forward delete
        # is exercised even if every random example above misses it.
        from repro.core.parser import parse_atom, parse_database, parse_theory

        program = parse_theory("e(x,y) -> t(x,y)\ne(x,y), t(y,z) -> t(x,z)")
        live = LiveModel(
            program,
            parse_database("e(a, b). e(b, c). e(c, d). e(a, c)."),
        )
        stats = live.apply(
            retracts=[parse_atom("e(b, c)", data_mode=True)]
        )
        assert stats.overdeleted > 0
        assert stats.rederived > 0  # t(a,c) survives via e(a,c)
        reference = evaluate(program, rebuild(live.edb))
        assert model_atoms(live.model) == model_atoms(reference)


@st.composite
def chase_workloads(draw):
    seed = draw(st.integers(min_value=0, max_value=5_000))
    rng = random.Random(seed)
    signature = random_signature(rng, n_relations=3, max_arity=2)
    theory = random_guarded_theory(
        rng, signature, n_rules=3, existential_probability=0.5
    )
    database = random_database(rng, signature, n_constants=3, n_atoms=5)
    n_batches = draw(st.integers(min_value=1, max_value=3))
    batch_seeds = [
        draw(st.integers(min_value=0, max_value=5_000))
        for _ in range(n_batches)
    ]
    return signature, theory, database, batch_seeds


class TestChaseDifferential:
    @given(chase_workloads())
    @settings(max_examples=40, deadline=None)
    def test_delta_chase_certain_facts_equal_full_chase(self, workload):
        signature, theory, database, batch_seeds = workload
        budget = ChaseBudget(max_steps=2_000)
        try:
            live = ChaseLiveModel(theory, database, budget=budget)
        except ReproError:
            assume(False)  # chase does not terminate within budget
        constants = [Constant(f"c{i}") for i in range(4)]
        for seed in batch_seeds:
            rng = random.Random(seed)
            inserts = []
            for _ in range(rng.randint(1, 2)):
                relation = rng.choice(signature.relations())
                args = tuple(
                    rng.choice(constants)
                    for _ in range(signature.arity(relation))
                )
                inserts.append(Atom(relation, args))
            try:
                stats = live.apply(inserts=inserts)
            except ReproError:
                assume(False)
            assert stats.mode == "chase_delta" or stats.fallback is not None
            try:
                reference = chase(
                    theory, rebuild(live.edb), budget=ChaseBudget(max_steps=2_000)
                )
            except ReproError:
                assume(False)
            assume(reference.complete)
            # Constant-only facts of any two universal models coincide
            # (they are exactly the certain ground atoms).
            assert answers_by_relation(live.model) == answers_by_relation(
                reference.database
            )

    @given(chase_workloads())
    @settings(max_examples=20, deadline=None)
    def test_retraction_fallback_equals_full_chase(self, workload):
        signature, theory, database, batch_seeds = workload
        budget = ChaseBudget(max_steps=2_000)
        try:
            live = ChaseLiveModel(theory, database, budget=budget)
        except ReproError:
            assume(False)
        current = sorted(live.edb)
        assume(current)
        rng = random.Random(batch_seeds[0])
        try:
            stats = live.apply(retracts=[rng.choice(current)])
        except ReproError:
            assume(False)
        assert stats.mode == "recompute"
        assert stats.fallback is not None
        try:
            reference = chase(
                theory, rebuild(live.edb), budget=ChaseBudget(max_steps=2_000)
            )
        except ReproError:
            assume(False)
        assume(reference.complete)
        assert answers_by_relation(live.model) == answers_by_relation(
            reference.database
        )
