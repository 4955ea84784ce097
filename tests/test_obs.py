"""Tests for the :mod:`repro.obs` instrumentation layer.

Covers the unit behaviour of :class:`MetricsRegistry` / :class:`Tracer` /
:class:`JsonLinesSink`, the ambient ``contextvars`` activation, exact
counter values on a deterministic chase, the ``ChaseResult.stats``
snapshot, and — crucially — that disabled instrumentation leaves engine
results identical.
"""

import io
import json

import pytest

from repro.chase.runner import ChaseBudget, chase
from repro.core import Atom, Constant, Database
from repro.core.homomorphism import homomorphisms
from repro.core.parser import parse_database, parse_theory
from repro.core.plan import clear_plan_cache, plan_cache_stats
from repro.core.theory import Query
from repro.datalog.engine import evaluate
from repro.obs import (
    Instrumentation,
    JsonLinesSink,
    MetricsRegistry,
    Tracer,
    current,
    instrumented,
    render_report,
)
from repro.obs.runtime import span as ambient_span
from repro.translate.saturation import saturate

TC_THEORY = "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)\n"
TC_DATA = "E(a,b). E(b,c). E(c,d)."

#: TC plus a rule that negates it from a higher stratum.
TC_NEGATED_THEORY = TC_THEORY + "E(x,y), not T(y,x) -> OneWay(x,y)\n"
#: The weakly guarded exemplar, which the advisor sends to the restricted chase.
WG_THEORY = TC_THEORY + "T(x,y) -> exists w. M(y, w)\nM(y,w), T(x,y) -> Reach(x)\n"


def seeded_graph(n: int = 60) -> Database:
    """A fixed graph with cycles on ``n`` nodes: every node i has an edge
    to i*i + 1 (mod n), and every even node one more to 3*i + 7 (mod n)."""
    edges = {(i, (i * i + 1) % n) for i in range(n)}
    edges |= {(i, (3 * i + 7) % n) for i in range(0, n, 2)}
    return Database(
        Atom("E", (Constant(f"n{u}"), Constant(f"n{v}"))) for u, v in sorted(edges)
    )


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


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.inc("x")
        metrics.inc("x", 4)
        assert metrics.counter("x") == 5
        assert metrics.counter("missing") == 0

    def test_gauges_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.gauge("g", 1)
        metrics.gauge("g", 7)
        assert metrics.gauges["g"] == 7

    def test_series_append(self):
        metrics = MetricsRegistry()
        for value in (3, 1, 2):
            metrics.observe("s", value)
        assert metrics.series["s"] == [3, 1, 2]

    def test_snapshot_is_json_serialisable_copy(self):
        metrics = MetricsRegistry()
        metrics.inc("c", 2)
        metrics.gauge("g", 1.5)
        metrics.observe("s", 9)
        snap = metrics.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        metrics.inc("c")
        assert snap["counters"]["c"] == 2  # a copy, not a view

    def test_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("c", 1)
        left.observe("s", 1)
        right.inc("c", 2)
        right.observe("s", 2)
        right.gauge("g", 3)
        left.merge(right)
        assert left.counter("c") == 3
        assert left.series["s"] == [1, 2]
        assert left.gauges["g"] == 3

    def test_bool(self):
        metrics = MetricsRegistry()
        assert not metrics
        metrics.inc("c")
        assert metrics


class TestTracer:
    def test_nesting_depth_and_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        names = [(s.name, s.depth) for s in tracer.spans]
        assert names == [("outer", 0), ("inner", 1), ("sibling", 1)]
        assert [s.name for s in tracer.roots()] == ["outer"]

    def test_durations_measured(self):
        clock_values = iter([0.0, 1.0, 3.0, 4.0])
        tracer = Tracer(clock=lambda: next(clock_values))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        outer, inner = tracer.spans
        assert inner.duration == pytest.approx(2.0)
        assert outer.duration == pytest.approx(4.0)

    def test_on_close_fires_in_close_order(self):
        closed = []
        tracer = Tracer(on_close=lambda s: closed.append(s.name))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert closed == ["inner", "outer"]

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("fails"):
                raise RuntimeError("boom")
        assert tracer.spans[0].end is not None
        assert tracer.current is None

    def test_attrs_settable_while_open(self):
        tracer = Tracer()
        with tracer.span("s", fixed=1) as span:
            span.set(found=42)
        assert tracer.spans[0].attrs == {"fixed": 1, "found": 42}


class TestJsonLinesSink:
    def test_span_and_metrics_records(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        with instrumented(sink) as instr:
            with instr.span("phase", detail="x"):
                instr.inc("things", 3)
            instr.observe("sizes", 7)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [record["type"] for record in lines] == ["span", "metrics"]
        span = lines[0]
        assert span["name"] == "phase"
        assert span["attrs"] == {"detail": "x"}
        assert span["duration_ms"] >= 0
        metrics = lines[1]
        assert metrics["counters"] == {"things": 3}
        assert metrics["series"] == {"sizes": [7]}

    def test_path_target_owns_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with instrumented(JsonLinesSink(str(path))) as instr:
            with instr.span("only"):
                pass
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["name"] == "only"
        assert lines[-1]["type"] == "metrics"


class TestAmbientActivation:
    def test_disabled_by_default(self):
        assert current() is None

    def test_activation_scoped_and_nested(self):
        with instrumented() as outer:
            assert current() is outer
            with instrumented() as inner:
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_ambient_span_noop_when_disabled(self):
        with ambient_span("nothing") as span:
            assert span is None

    def test_report_renders_all_sections(self):
        with instrumented() as instr:
            with instr.span("phase"):
                instr.inc("counter_name", 2)
                instr.gauge("gauge_name", 5)
                instr.observe("series_name", 1)
        report = instr.report(title="test run")
        for fragment in (
            "test run",
            "phase",
            "counter_name",
            "gauge_name",
            "series_name",
        ):
            assert fragment in report
        assert render_report(instr.metrics) != ""


class TestChaseCounters:
    """Exact counter values on a small deterministic chase."""

    def test_transitive_closure_exact_counts(self):
        theory = parse_theory(TC_THEORY)
        database = parse_database(TC_DATA)
        with instrumented() as instr:
            result = chase(theory, database)
        # E has 3 facts -> 3 copy triggers; T-closure fires 3 = |paths>1|.
        assert instr.metrics.counter("triggers_fired") == 6
        assert instr.metrics.counter("atoms_derived") == 6
        assert instr.metrics.counter("nulls_created") == 0
        assert instr.metrics.counter("chase.rounds") == result.rounds == 3
        assert instr.metrics.series["chase.delta_size"] == [3, 2, 1]
        assert instr.metrics.counter("homomorphism_calls") > 0
        assert result.steps == 6

    def test_publication_ontology_exact_counts(self):
        theory = parse_theory(PUBLICATION_THEORY)
        database = parse_database(PUBLICATION_DATA)
        with instrumented() as instr:
            result = chase(theory, database)
        counters = instr.metrics.counters
        # Oblivious default: 8 triggers fire, one derives nothing new.
        assert counters["triggers_fired"] == result.steps == 8
        assert counters["nulls_created"] == result.nulls_created == 4
        assert counters["atoms_derived"] == 7
        assert counters["chase.triggers_enumerated"] == 8
        assert instr.metrics.series["chase.delta_size"] == [3, 2, 1, 1]
        assert len(result.database) == 15

    def test_restricted_counts_each_atom_once(self):
        theory = parse_theory(PUBLICATION_THEORY)
        database = parse_database(PUBLICATION_DATA)
        with instrumented() as instr:
            result = chase(theory, database, policy="restricted")
        counters = instr.metrics.counters
        # Datalog facts are steps: 3 in round 1 (Q(a1) and two existential
        # triggers), 4 in round 2; the Datalog loop counts its own facts.
        assert counters["triggers_fired"] == result.steps == 7
        assert counters["atoms_derived"] == 7
        assert counters["chase.triggers_enumerated"] == 2
        assert counters["chase.rounds"] == result.rounds == 2
        assert instr.metrics.series["chase.delta_size"] == [3, 4]

    def test_chase_span_recorded(self):
        theory = parse_theory(TC_THEORY)
        database = parse_database(TC_DATA)
        with instrumented() as instr:
            chase(theory, database)
        (span,) = instr.tracer.roots()
        assert span.name == "chase"
        assert span.attrs["rounds"] == 3
        assert span.end is not None


class TestChaseResultStats:
    def test_stats_snapshot_without_instrumentation(self):
        theory = parse_theory(PUBLICATION_THEORY)
        database = parse_database(PUBLICATION_DATA)
        assert current() is None  # no ambient registry involved
        result = chase(theory, database)
        stats = result.stats
        assert [r.round for r in stats.rounds] == [1, 2, 3, 4]
        assert stats.triggers_fired == result.steps == 8
        assert stats.triggers_enumerated == 8
        assert stats.atoms_added == 7
        assert sum(r.nulls_created for r in stats.rounds) == 4

    def test_stats_round_totals_match_budget_truncation(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)\n")
        database = parse_database("E(a,b).")
        result = chase(theory, database, budget=ChaseBudget(max_steps=5))
        assert not result.complete
        assert result.stats.triggers_fired == result.steps == 5


class TestDatalogCounters:
    def test_delta_series_per_iteration(self):
        program = parse_theory(TC_THEORY)
        database = parse_database(TC_DATA)
        with instrumented() as instr:
            evaluate(program, database)
        # T(x,y) copies land with the first full round; then path lengths
        # 2, 3 arrive one semi-naive iteration each, then the empty delta.
        assert instr.metrics.series["delta_size"] == [3, 2, 1, 0]
        assert instr.metrics.counter("atoms_derived") == 6
        names = [s.name for s in instr.tracer.spans]
        assert "datalog.evaluate" in names and "datalog.stratum" in names

    def test_naive_strategy_also_counted(self):
        program = parse_theory(TC_THEORY)
        database = parse_database(TC_DATA)
        with instrumented() as instr:
            evaluate(program, database, strategy="naive")
        assert instr.metrics.counter("atoms_derived") == 6


class TestSaturationCounters:
    def test_rules_added_series_and_gauges(self):
        theory = parse_theory("A(x) -> exists y. R(x,y)\nR(x,y) -> S(x)\n")
        with instrumented() as instr:
            result = saturate(theory)
        series = instr.metrics.series["saturation_rules_added"]
        assert sum(series) == result.derived_rules
        assert series[-1] == 0  # fixpoint round adds nothing
        assert instr.metrics.gauges["saturation.datalog_rules"] == len(
            result.datalog
        )
        (span,) = [
            s for s in instr.tracer.spans if s.name == "translate.saturate"
        ]
        assert span.attrs["iterations"] == result.iterations


class TestHomomorphismCounters:
    def test_calls_counted(self):
        database = parse_database("R(a,b). R(b,c).")
        pattern = list(parse_theory("R(x,y), R(y,z) -> T(x,z)").rules[0].positive_body())
        with instrumented() as instr:
            found = list(homomorphisms(pattern, database))
        assert len(found) == 1
        assert instr.metrics.counter("homomorphism_calls") == 1


class TestDisabledIsIdentical:
    """Instrumentation off (the default) must not change any result."""

    def test_chase_results_identical(self):
        theory = parse_theory(PUBLICATION_THEORY)
        database = parse_database(PUBLICATION_DATA)
        plain = chase(theory, database)
        with instrumented():
            observed = chase(theory, database)
        assert sorted(map(str, plain.database)) == sorted(
            map(str, observed.database)
        )
        assert plain.steps == observed.steps
        assert plain.rounds == observed.rounds
        assert plain.nulls_created == observed.nulls_created

    def test_datalog_results_identical(self):
        program = parse_theory(TC_THEORY)
        database = parse_database(TC_DATA)
        plain = evaluate(program, database)
        with instrumented():
            observed = evaluate(program, database)
        assert sorted(map(str, plain)) == sorted(map(str, observed))

    def test_observed_datalog_runs_the_plain_executors(self):
        program = parse_theory(TC_NEGATED_THEORY)
        database = seeded_graph()
        clear_plan_cache()
        plain = evaluate(program, database)
        codegen = plan_cache_stats()["codegen"]
        with instrumented() as instr:
            observed = evaluate(program, database)
        assert plan_cache_stats()["codegen"] == codegen
        assert set(observed) == set(plain)
        # Golden values recorded on the boxed assignment path: the
        # executor that fires a rule must not change what is counted.
        metrics = instr.metrics
        assert metrics.counter("homomorphism_calls") == 9
        assert metrics.counter("atoms_derived") == 651
        assert metrics.series["delta_size"] == [90, 120, 142, 114, 71, 36, 0, 78, 0]

    def test_observed_restricted_chase_runs_the_plain_executors(self):
        theory = parse_theory(WG_THEORY)
        database = seeded_graph()
        clear_plan_cache()
        plain = chase(theory, database, policy="restricted")
        codegen = plan_cache_stats()["codegen"]
        with instrumented():
            observed = chase(theory, database, policy="restricted")
        assert plan_cache_stats()["codegen"] == codegen
        assert set(observed.database) == set(plain.database)
        assert (observed.steps, observed.rounds) == (plain.steps, plain.rounds)

    def test_certain_answers_unchanged_under_instrumentation(self):
        from repro.chase.runner import certain_answers

        theory = parse_theory(PUBLICATION_THEORY)
        database = parse_database(PUBLICATION_DATA)
        query = Query(theory, "Q")
        plain = certain_answers(query, database)
        with instrumented():
            observed = certain_answers(query, database)
        assert plain == observed
        assert {t[0].name for t in plain} == {"a1", "a2"}
