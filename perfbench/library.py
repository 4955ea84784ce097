"""The three in-process workloads.

Each op is one closed-loop call sequence from this process.  An op has a
*write* half, in which its facts enter the store, and a *read* half, in
which answers come out; ``update_*`` and ``query_*`` report those halves
and ``op_*`` the whole.  ``run`` is what a library user calls;
``run_traced`` makes the same calls into each layer's public functions
under a :class:`harness.Spans` recorder.  Where a workload has one call
sequence for both, ``run`` is ``run_traced`` with :func:`harness.no_spans`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import inputs
from harness import no_spans
from repro.chase import RESTRICTED, answers_in, chase
from repro.core import Atom, Constant, Database, Query, Variable, parse_database, parse_theory
from repro.datalog import evaluate
from repro.queries import ConjunctiveQuery, evaluate_cq
from repro.translate import (
    answer_wfg_query,
    nearly_guarded_to_datalog,
    partial_grounding,
    rewrite_weakly_frontier_guarded,
)

#: The Section 7 weakly guarded exemplar (one existential, ``M(y, w)``).
WG_THEORY = """
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
T(x,y) -> exists w. M(y, w)
M(y,w), T(x,y) -> Reach(x)
"""

#: Transitive closure plus one join rule.
TC_PROGRAM = """
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
E(x,y), E(y,z) -> P2(x,z)
"""

T_KEY = ("T", 2, 0)

#: How many op inputs the input digest covers.
DIGEST_OPS = 32


@dataclass
class Op:
    write_s: float
    read_s: float
    observed: object
    #: Work counts of this op, keyed by per-layer metric name.
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Probes:
    """Seeded point probes of ``T``: ``len(pairs)`` membership tests, then
    the same pairs as fully bound ``atoms_matching`` lookups."""

    pairs: list           # (u, v) name pairs
    member: list          # the pairs as T atoms
    bound: list           # the pairs as position bindings


def _probes(seed: int, index: int, nodes, count: int) -> Probes:
    rng = inputs.stream(seed, "probes", index)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]
    return Probes(
        pairs,
        [Atom("T", (Constant(u), Constant(v))) for u, v in pairs],
        [{0: Constant(u), 1: Constant(v)} for u, v in pairs],
    )


def _probe_failure(pairs, hits, reach) -> str | None:
    for (u, v), hit in zip(pairs, hits):
        if hit != (v in reach[u]):
            return f"T({u}, {v}) membership {hit}, expected {not hit}"
    return None


class WfgFreshDb:
    """``answer_wfg_query`` for ``Reach`` on a chain whose constants are
    fresh every op, so every op pays rewrite, grounding, saturation,
    executor codegen and the fixpoint."""

    name = "wfg_fresh_db"
    CHAIN = 3
    #: ``answer_wfg_query``'s default saturation budget.
    SATURATION_MAX_RULES = 200_000
    probes_per_op = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.query = Query(parse_theory(WG_THEORY), "Reach")

    def op_input(self, index: int) -> tuple[list[str], str]:
        names = inputs.fresh_names(inputs.stream(self.seed, "chain", index), self.CHAIN + 1)
        return names, inputs.database_text(zip(names, names[1:]))

    def input_digest(self) -> str:
        return inputs.digest(WG_THEORY, *(self.op_input(i)[1] for i in range(DIGEST_OPS)))

    def sizes(self) -> dict:
        return {"chain_edges": self.CHAIN, "fresh_constants_per_op": self.CHAIN + 1}

    def run(self, inp) -> Op:
        _, text = inp
        start = time.perf_counter()
        database = parse_database(text)
        loaded = time.perf_counter()
        answers = answer_wfg_query(self.query, database).answers
        return Op(loaded - start, time.perf_counter() - loaded, answers)

    def run_traced(self, inp, spans) -> Op:
        _, text = inp
        output = self.query.output
        with spans("op"):
            with spans("core.parser"):
                database = parse_database(text)
            with spans("translate.annotations"):
                rewriting = rewrite_weakly_frontier_guarded(self.query.theory)
                prepared = rewriting.prepare_database(database)
            with spans("translate.grounding"):
                grounded = partial_grounding(rewriting.theory, prepared)
            with spans("translate.saturation"):
                program = nearly_guarded_to_datalog(
                    grounded, max_rules=self.SATURATION_MAX_RULES
                )
            with spans("datalog.engine"):
                fixpoint = evaluate(program, prepared)
            with spans("decode"):
                answers = {
                    rewriting.restore_answer(output, answer)
                    for answer in answers_in(fixpoint, output)
                }
            with spans("core.store.release"):
                del database, prepared, fixpoint
        counts = {
            "translate.grounding.rules_out": len(grounded),
            "translate.saturation.rules_out": len(program),
        }
        return Op(0.0, 0.0, answers, counts)

    def check(self, inp, op: Op) -> str | None:
        """``Reach(x)`` holds exactly when ``x`` has an out-edge."""
        names, _ = inp
        expected = {(name,) for name in names[:-1]}
        got = {tuple(term.name for term in answer) for answer in op.observed}
        if got != expected:
            return f"Reach answers {sorted(got)}, expected {sorted(expected)}"
        return None


@dataclass(frozen=True)
class _TcOracle:
    reach: dict
    cycles: frozenset
    model_atoms: int


class _GraphWorkload:
    """A seeded graph bulk-loaded into a fresh store every op, then
    probed with ``PROBES`` seeded ``T`` pairs."""

    THEORY: str
    NODES: int
    EDGES: int
    PROBES: int

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.graph = inputs.seeded_graph(self.seed, self.NODES, self.EDGES)
        self.theory = parse_theory(self.THEORY)
        self.edge_atoms = [Atom("E", (Constant(u), Constant(v))) for u, v in self.graph.edges]

    def op_input(self, index: int) -> Probes:
        return _probes(self.seed, index, self.graph.nodes, self.PROBES)

    def input_digest(self) -> str:
        probes = (repr(p.pairs) for p in map(self.op_input, range(DIGEST_OPS)))
        return inputs.digest(self.THEORY, inputs.database_text(self.graph.edges), *probes)

    def sizes(self) -> dict:
        return {"nodes": len(self.graph.nodes), "edges": len(self.graph.edges),
                "probes_per_op": self.probes_per_op}

    def run(self, inp: Probes) -> Op:
        return self.run_traced(inp, no_spans)


class DatalogMaterialize(_GraphWorkload):
    """Bulk load one seeded graph into a fresh store, evaluate TC plus a
    join rule, probe the model and run one CQ: store, engine and CQ
    layers with a warm plan cache and no translation."""

    name = "datalog_materialize"
    THEORY = TC_PROGRAM
    NODES, EDGES = 300, 900
    #: Probes per op of each kind (``in`` and ``atoms_matching``).
    PROBES = 1000
    probes_per_op = 2 * PROBES

    def setup(self) -> None:
        super().setup()
        x, y = Variable("x"), Variable("y")
        self.cq = ConjunctiveQuery((x,), (Atom("T", (x, y)), Atom("E", (y, x))))

    @cached_property
    def oracle(self) -> _TcOracle:
        nodes, edges = self.graph.nodes, self.graph.edges
        reach = inputs.reach_sets(nodes, edges)
        succ = inputs.successors(edges)
        two_hop = {(u, w) for u, v in edges for w in succ.get(v, ())}
        return _TcOracle(
            reach,
            inputs.cycle_nodes(nodes, edges),
            len(edges) + sum(map(len, reach.values())) + len(two_hop),
        )

    def run_traced(self, inp: Probes, spans) -> Op:
        start = time.perf_counter()
        with spans("op"):
            with spans("core.store.bulk_load"):
                database = Database(self.edge_atoms)
            loaded = time.perf_counter()
            with spans("datalog.engine"):
                model = evaluate(self.theory, database)
            with spans("core.store.probe"):
                hits = [atom in model for atom in inp.member]
                rows = [model.atoms_matching(T_KEY, binding) for binding in inp.bound]
            with spans("queries.cq"):
                cyclic = evaluate_cq(self.cq, model)
            atoms = len(model)
            with spans("core.store.release"):
                del database, model
        done = time.perf_counter()
        return Op(loaded - start, done - loaded, (hits, rows, cyclic),
                  {"datalog.engine.model_atoms": atoms})

    def check(self, inp: Probes, op: Op) -> str | None:
        """TC probes and the CQ against BFS/SCC over the edge list."""
        oracle = self.oracle
        hits, rows, cyclic = op.observed
        atoms = op.counts["datalog.engine.model_atoms"]
        if atoms != oracle.model_atoms:
            return f"model has {atoms} atoms, expected {oracle.model_atoms}"
        failure = _probe_failure(inp.pairs, hits, oracle.reach)
        if failure:
            return failure
        failure = _probe_failure(inp.pairs, [len(row) == 1 for row in rows], oracle.reach)
        if failure or any(len(row) > 1 for row in rows):
            return f"atoms_matching: {failure or 'duplicate rows'}"
        names = {answer[0].name for answer in cyclic}
        if len(cyclic) != len(names) or names != oracle.cycles:
            return "CQ q(x) <- T(x,y), E(y,x) disagrees with the SCC oracle"
        return None


class ChaseMaterialize(_GraphWorkload):
    """The restricted chase of the WG exemplar over a seeded graph, then
    decode ``Reach``: the path the advisor routes proven-terminating
    theories to."""

    name = "chase_materialize"
    THEORY = WG_THEORY
    NODES, EDGES = 80, 240
    PROBES = 500
    probes_per_op = PROBES

    @cached_property
    def oracle(self) -> tuple[dict, frozenset]:
        reach = inputs.reach_sets(self.graph.nodes, self.graph.edges)
        return reach, frozenset(u for u, _ in self.graph.edges)

    def run_traced(self, inp: Probes, spans) -> Op:
        start = time.perf_counter()
        with spans("op"):
            with spans("core.store.bulk_load"):
                database = Database(self.edge_atoms)
            loaded = time.perf_counter()
            with spans("chase.runner"):
                result = chase(self.theory, database, policy=RESTRICTED)
            with spans("decode"):
                answers = answers_in(result.database, "Reach")
            with spans("core.store.probe"):
                hits = [atom in result.database for atom in inp.member]
            complete = result.complete
            counts = {"chase.runner.steps": result.steps, "chase.runner.rounds": result.rounds}
            with spans("core.store.release"):
                del database, result
        done = time.perf_counter()
        return Op(loaded - start, done - loaded, (complete, answers, hits), counts)

    def check(self, inp: Probes, op: Op) -> str | None:
        """``Reach(x)`` iff ``x`` has an out-edge; T probes against BFS."""
        reach, sources = self.oracle
        complete, answers, hits = op.observed
        if not complete:
            return "chase truncated"
        names = {answer[0].name for answer in answers}
        if len(answers) != len(names) or names != sources:
            return "Reach answers disagree with the out-edge oracle"
        return _probe_failure(inp.pairs, hits, reach)


LIBRARY_WORKLOADS = {cls.name: cls for cls in (WfgFreshDb, DatalogMaterialize, ChaseMaterialize)}
