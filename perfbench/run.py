"""The repository benchmark: four workloads, every metric printed by name
and unit, every answer checked against the benchmark's own oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and imports the
program from ``src/``.  The last stdout line is the result: with
``--trace 0`` it carries the ``end_to_end`` metrics of BENCHMARK.json,
with ``--trace 1`` the ``per_layer`` ones.  The line before it is the run
record: input digest, environment, set-up times, hygiene.  Each run is
a fresh interpreter, so the plan cache and interning tables start cold.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("wfg_fresh_db", "datalog_materialize", "chase_materialize", "serve_read_write")

#: Op index of the untimed warm-up op (lazy imports, first-use caches).
WARMUP_INDEX = 10**9
#: The untraced ops of a traced run take their inputs from this index on,
#: so they never warm a cache for the traced op that follows.
SHADOW_BASE = 10**6

#: Per-layer self-time metric -> the span the library workloads record.
LAYER_SPANS = {
    "translate.annotations.self_ms": "translate.annotations",
    "translate.grounding.self_ms": "translate.grounding",
    "translate.saturation.self_ms": "translate.saturation",
    "datalog.engine.self_ms": "datalog.engine",
    "core.parser.db_parse_ms": "core.parser",
    "core.store.bulk_load_ms": "core.store.bulk_load",
    "queries.cq.self_ms": "queries.cq",
    "chase.runner.self_ms": "chase.runner",
    "decode.self_ms": "decode",
}


def attempt(workload, runner, inp):
    """Run and check one op: ``(op, elapsed_s, failure)``."""
    start = time.perf_counter()
    try:
        op = runner(inp)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return op, elapsed, workload.check(inp, op) or ""


#: One library set-up in a fresh interpreter: import the layers the
#: workload calls, generate its inputs, parse its theory.
SETUP_PROGRAM = """
import sys
sys.path[:0] = sys.argv[1:3]
from library import LIBRARY_WORKLOADS
LIBRARY_WORKLOADS[sys.argv[3]](int(sys.argv[4])).setup()
"""


def cold_setup_s(name: str, seed: int) -> float:
    # No timeout: with one, ``wait`` polls and rounds the time up to 50 ms.
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM, str(BENCH), str(ROOT / "src"), name, str(seed)],
        cwd=ROOT, check=True,
    )
    return time.perf_counter() - start


def run_library(cls, seed: int, seconds: float, traced: bool):
    from harness import SETUP_REPS, HostSpeed, Tally, median, op_indices, peak_rss_mb, ratio, tail

    speed = HostSpeed()
    setups = [cold_setup_s(cls.name, seed) * speed.scale() for _ in range(SETUP_REPS)]
    workload = cls(seed)
    workload.setup()
    tally = Tally()
    warm_s, warm_failure = attempt(workload, workload.run, workload.op_input(WARMUP_INDEX))[1:]
    record = {
        "inputs": {"sha256": workload.input_digest(), "sizes": workload.sizes()},
        "setup_s": setups,
        "warmup_s": warm_s,
        "setup_failures": [warm_failure] if warm_failure else [],
    }
    if traced:
        metrics = _traced(workload, seconds, tally, record)
    else:
        write_ms, read_ms, op_ms, raw_ms = [], [], [], []
        speed = HostSpeed()
        for index in op_indices(seconds):
            inp = workload.op_input(index)
            op, elapsed, failure = attempt(workload, workload.run, inp)
            scale = speed.scale()
            tally.record(not failure, failure)
            if not failure:
                raw_ms.append(elapsed * 1e3)
                op_ms.append(elapsed * 1e3 * scale)
                write_ms.append(op.write_s * 1e3 * scale)
                read_ms.append(op.read_s * 1e3 * scale)
            del op  # free this op's model before the next op starts
        query_tail, query_pct = tail(read_ms)
        record["tail_percentiles"] = {"query": query_pct}
        record["raw_op_p50_ms"] = median(raw_ms)
        record["calibration_ms"] = median(speed.samples)
        metrics = {
            "setup_s": median(setups),
            "op_p50_ms": median(op_ms),
            "ops_per_s": ratio(len(op_ms), sum(op_ms) / 1e3),
            "query_p50_ms": median(read_ms),
            "query_tail_ms": query_tail,
            "update_p50_ms": median(write_ms),
            "peak_rss_mb": peak_rss_mb(),
        }
    record["ops"] = tally.attempted
    record["failure_samples"] = tally.samples
    correct = tally.failed == 0 and not warm_failure
    return correct, tally, metrics, record


def _traced(workload, seconds: float, tally, record) -> dict:
    """Traced ops on the untraced run's inputs, each paired with an
    untraced op on a fresh input; their ratio is the tracing overhead."""
    from harness import (
        PER_LAYER, Spans, coverage, layer_medians_ms, median, op_indices, ratio, tail,
    )
    from repro.core.plan import plan_cache_stats

    traced, traced_ms, shadow_ms, shadow_write_ms = [], [], [], []
    counts = defaultdict(list)
    plan = {"hits": 0, "misses": 0, "evictions": 0}
    for index in op_indices(seconds):
        for traced_turn in ((True, False) if index % 2 == 0 else (False, True)):
            if not traced_turn:
                op, elapsed, failure = attempt(
                    workload, workload.run, workload.op_input(SHADOW_BASE + index)
                )
                tally.record(not failure, failure)
                if not failure:
                    shadow_ms.append(elapsed * 1e3)
                    shadow_write_ms.append(op.write_s * 1e3)
                del op
                continue
            spans = Spans()
            before = plan_cache_stats()
            op, elapsed, failure = attempt(
                workload, lambda inp: workload.run_traced(inp, spans), workload.op_input(index)
            )
            after = plan_cache_stats()
            tally.record(not failure, failure)
            for key in plan:
                plan[key] += after[key] - before[key]
            if not failure:
                traced.append(spans)
                traced_ms.append(elapsed * 1e3)
                for key, value in op.counts.items():
                    counts[key].append(value)
            del op

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    medians = layer_medians_ms(traced, LAYER_SPANS.values())
    metrics.update({metric: medians[span] for metric, span in LAYER_SPANS.items()})
    if workload.probes_per_op:
        metrics["core.store.probe_us"] = median(
            spans.self_s["core.store.probe"] / workload.probes_per_op * 1e6
            for spans in traced
        )
    for key, values in counts.items():
        metrics[key] = median(values)
    record["count_values"] = {key: sorted(set(values)) for key, values in counts.items()}
    attempts = len(traced_ms) or 1
    metrics["core.plan.cache_misses_per_op"] = plan["misses"] / attempts
    metrics["core.plan.cache_evictions_per_op"] = plan["evictions"] / attempts
    metrics["core.plan.cache_hit_ratio"] = ratio(plan["hits"], plan["hits"] + plan["misses"])
    metrics["update_tail_ms"], record["update_tail_percentile"] = tail(shadow_write_ms)
    metrics["failed_ratio"] = tally.failed_ratio
    metrics["layer_coverage"] = coverage(traced, [ms / 1e3 for ms in traced_ms])
    if traced_ms and shadow_ms:
        metrics["trace_overhead"] = median(traced_ms) / median(shadow_ms) - 1.0
    record["traced_ops"] = len(traced_ms)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from harness import END_TO_END, PER_LAYER, environment, result_line
    from library import LIBRARY_WORKLOADS
    from served import ServeReadWrite

    traced = bool(args.trace)
    if args.workload == ServeReadWrite.name:
        workload = ServeReadWrite(args.seed)
        inputs_record = {"sha256": workload.input_digest(), "sizes": workload.sizes()}
        correct, tally, metrics, record = workload.run(args.seconds, traced)
        record["inputs"] = inputs_record
        if traced:
            metrics = {**dict.fromkeys(PER_LAYER, 0.0), **metrics}
    else:
        correct, tally, metrics, record = run_library(
            LIBRARY_WORKLOADS[args.workload], args.seed, args.seconds, traced
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **record,
    }
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(result_line(correct, tally, metrics, PER_LAYER if traced else END_TO_END))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
