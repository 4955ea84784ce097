#!/usr/bin/env python
"""Load benchmark for the reasoning service (``repro serve``).

Starts a real server subprocess against the Section 7 weakly-guarded
exemplar, fires N concurrent certain-answer queries from a thread-pool
of blocking clients (one connection each — the protocol answers in
order per connection, so concurrency means connections), and records:

* **latency** — p50 / p95 / p99 / max per pass, in milliseconds;
* **throughput** — completed queries per second per pass;
* **warmth** — the server's ``service.worker.*`` registry and plan-cache
  counters scraped from ``/metrics`` after each pass: the second pass
  over the same theory+database must be all registry hits and
  materialization reuse, which is the point of a warm service;
* **hygiene** — zero transport errors, zero non-``ok`` responses, zero
  tracebacks on the server's stderr, worker PIDs reaped after SIGTERM.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --output BENCH_PR5.json
    PYTHONPATH=src python benchmarks/bench_serve.py --queries 40 --chain 4  # smoke
    PYTHONPATH=src python benchmarks/bench_serve.py --compare-tracing \
        --output BENCH_PR6.json   # tracing overhead: on vs off, same workload

``--compare-tracing`` interleaves two rounds of the whole workload per
mode (tracing on / ``--no-trace``, alternating T/U/T/U so machine drift
cancels instead of being booked as overhead) and reports the deltas
between the *best warm pass* of each mode (min latency / max throughput
over passes 2+ across rounds), which is how the "< 5% p95 overhead"
acceptance bar is measured.

The JSON record pins its workload, is machine-readable and embeds the
environment.  The repository benchmark (``perfbench/``) covers served
reads and writes; this script stays for what perfbench lacks
(``--compare-tracing`` and ``--chaos-rate``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

SCHEMA = "repro-bench-serve/1"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (values need not be pre-sorted)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


def scrape_counters(host: str, port: int) -> dict[str, float]:
    from repro.service.client import http_get

    _, body = http_get(host, port, "/metrics")
    counters: dict[str, float] = {}
    for line in body.strip().splitlines():
        name, _, value = line.rpartition(" ")
        try:
            counters[name] = float(value)
        except ValueError:
            continue
    return counters


def run_pass(
    host: str,
    port: int,
    *,
    queries: int,
    concurrency: int,
    database: str,
    timeout: float,
) -> dict:
    """One load pass: ``queries`` certain-answer requests, ``concurrency``
    blocking clients, each on its own connection."""
    from repro.service.client import ServiceClient

    latencies: list[float] = []
    failures: list[str] = []
    answers_seen: set[str] = set()

    def one_query(index: int) -> None:
        started = time.perf_counter()
        try:
            with ServiceClient(host, port, timeout=timeout + 60) as client:
                response = client.query(
                    "Reach",
                    database=database,
                    timeout=timeout,
                    request_id=index,
                )
        except Exception as exc:  # noqa: BLE001 - hygiene accounting
            failures.append(f"{type(exc).__name__}: {exc}")
            return
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if response.get("ok") and response.get("complete"):
            latencies.append(elapsed_ms)
            answers_seen.add(json.dumps(response["answers"]))
        else:
            failures.append(json.dumps(response)[:200])

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        list(pool.map(one_query, range(queries)))
    wall = time.perf_counter() - wall_start

    record = {
        "queries": queries,
        "concurrency": concurrency,
        "completed": len(latencies),
        "failures": len(failures),
        "failure_samples": failures[:5],
        "distinct_answer_sets": len(answers_seen),
        "wall_s": round(wall, 4),
        "throughput_qps": round(len(latencies) / wall, 2) if wall else None,
    }
    if latencies:
        record.update(
            p50_ms=round(percentile(latencies, 50), 3),
            p95_ms=round(percentile(latencies, 95), 3),
            p99_ms=round(percentile(latencies, 99), 3),
            max_ms=round(max(latencies), 3),
            mean_ms=round(statistics.fmean(latencies), 3),
        )
    return record


def run_session(
    args, theory_path: str, database: str, *, tracing: bool
) -> tuple[list[dict], dict]:
    """One full server lifecycle: start (``--no-trace`` when asked),
    run every load pass, SIGTERM-drain, account hygiene.

    With ``--chaos-rate`` above zero the load passes run through the
    seeded fault-injection proxy restricted to ``delay`` faults —
    latency without loss, so the zero-failure hygiene bar still holds
    while the latency distribution absorbs deterministic jitter (how
    resilient the percentiles are to a lossy-feeling network)."""
    from repro.service.client import http_get, wait_until_ready

    port, http_port = free_port(), free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    command = [
        sys.executable, "-m", "repro.cli", "serve", theory_path,
        "--port", str(port), "--http-port", str(http_port),
        "--workers", str(args.workers),
        "--queue-limit", str(max(args.queries, 64)),
        "--default-timeout", str(args.timeout),
    ]
    if not tracing:
        command.append("--no-trace")
    if getattr(args, "snapshot_dir", None):
        command += ["--snapshot-dir", args.snapshot_dir]
    server = subprocess.Popen(
        command,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    mode = "traced" if tracing else "untraced"
    passes: list[dict] = []
    hygiene: dict = {}
    proxy = None
    try:
        wait_until_ready("127.0.0.1", port, timeout=120)
        load_port = port
        if args.chaos_rate > 0:
            from repro.chaos import ChaosProxy, ChaosSchedule

            proxy = ChaosProxy(
                "127.0.0.1", port,
                ChaosSchedule(
                    args.chaos_seed, faults=("delay",), rate=args.chaos_rate
                ),
            )
            _, load_port = proxy.start()
        for index in range(args.passes):
            before = scrape_counters("127.0.0.1", http_port)
            record = run_pass(
                "127.0.0.1", load_port,
                queries=args.queries,
                concurrency=args.concurrency,
                database=database,
                timeout=args.timeout,
            )
            after = scrape_counters("127.0.0.1", http_port)
            record["warmth"] = {
                key.removeprefix("repro_service_worker_"): int(
                    after.get(key, 0) - before.get(key, 0)
                )
                for key in (
                    "repro_service_worker_registry_hits",
                    "repro_service_worker_registry_misses",
                    "repro_service_worker_plan_compile_calls",
                    "repro_service_worker_plan_cache_hits",
                    "repro_service_worker_materializations",
                    "repro_service_worker_snapshot_loads",
                    "repro_service_worker_snapshot_saves",
                )
            }
            record["pass"] = index + 1
            record["tracing"] = tracing
            passes.append(record)
            print(
                f"{mode} pass {index + 1}: "
                f"{record['completed']}/{record['queries']} ok, "
                f"p50={record.get('p50_ms')}ms p95={record.get('p95_ms')}ms "
                f"{record['throughput_qps']} q/s, warmth={record['warmth']}",
                file=sys.stderr,
            )

        health = json.loads(http_get("127.0.0.1", http_port, "/healthz")[1])
        worker_pids = health["worker_pids"]
        final = scrape_counters("127.0.0.1", http_port)
        server.send_signal(signal.SIGTERM)
        exit_code = server.wait(timeout=120)
        deadline = time.monotonic() + 15
        orphans = worker_pids
        while orphans and time.monotonic() < deadline:
            orphans = [
                pid for pid in worker_pids
                if _pid_alive(pid)
            ]
            time.sleep(0.1)
        stderr_text = server.stderr.read().decode()
        hygiene = {
            "exit_code": exit_code,
            "orphan_workers": orphans,
            "restarts": int(final.get("repro_service_worker_restarts_total", 0)),
            "traceback_on_stderr": "Traceback" in stderr_text,
        }
        if proxy is not None:
            hygiene["chaos"] = {
                "seed": args.chaos_seed,
                "rate": args.chaos_rate,
                "exchanges": proxy.exchanges,
                "injected": dict(sorted(proxy.injected.items())),
            }
    finally:
        if proxy is not None:
            proxy.stop()
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
    return passes, hygiene


def _merge_hygiene(accumulated: dict, fresh: dict) -> dict:
    """Fold one session's hygiene into the running account — every
    session of a multi-round comparison must drain cleanly."""
    if not accumulated:
        return dict(fresh)
    return {
        "exit_code": accumulated["exit_code"] or fresh.get("exit_code", 0),
        "orphan_workers": accumulated["orphan_workers"]
        + fresh.get("orphan_workers", []),
        "restarts": accumulated["restarts"] + fresh.get("restarts", 0),
        "traceback_on_stderr": accumulated["traceback_on_stderr"]
        or fresh.get("traceback_on_stderr", False),
    }


def _best_warm(passes: list[dict]) -> dict:
    """Per-metric best over the warm passes (pass 2+): min latency, max
    throughput.  Single short passes jitter by ±5% on an idle machine —
    the best sustained value is the noise-robust steady-state estimator
    (same rationale as ``min`` in timeit)."""
    warm = [p for p in passes if p.get("pass", 1) > 1] or passes[-1:]
    best: dict = {}
    for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
        values = [p[key] for p in warm if p.get(key) is not None]
        if values:
            best[key] = min(values)
    throughputs = [
        p["throughput_qps"] for p in warm if p.get("throughput_qps")
    ]
    if throughputs:
        best["throughput_qps"] = max(throughputs)
    return best


def tracing_overhead(
    traced: list[dict], untraced: list[dict]
) -> dict:
    """Best-warm-pass deltas, tracing on vs off: positive percentages
    mean tracing costs that much."""
    if not traced or not untraced:
        return {}
    warm_on, warm_off = _best_warm(traced), _best_warm(untraced)
    overhead: dict = {}
    for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
        on, off = warm_on.get(key), warm_off.get(key)
        if on is not None and off:
            overhead[f"{key}_pct"] = round((on - off) / off * 100, 2)
    on_qps, off_qps = warm_on.get("throughput_qps"), warm_off.get("throughput_qps")
    if on_qps is not None and off_qps:
        overhead["throughput_pct"] = round((on_qps - off_qps) / off_qps * 100, 2)
    return overhead


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=200,
                        help="queries per pass (default 200)")
    parser.add_argument("--concurrency", type=int, default=50,
                        help="concurrent client connections (default 50)")
    parser.add_argument("--workers", type=int, default=4,
                        help="server worker processes (default 4)")
    parser.add_argument("--chain", type=int, default=5,
                        help="Section 7 chain length (default 5: medium)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-query deadline sent with each request")
    parser.add_argument("--passes", type=int, default=2,
                        help="load passes (pass 2+ measures warmth)")
    parser.add_argument("--output", default=None,
                        help="write the JSON record here (default stdout)")
    parser.add_argument("--label", default="current")
    parser.add_argument("--chaos-rate", type=float, default=0.0,
                        help="route load through the chaos proxy injecting "
                        "delay faults at this rate (0 = off; latency "
                        "without loss, hygiene bars unchanged)")
    parser.add_argument("--chaos-seed", type=int, default=7,
                        help="seed for the chaos proxy's fault schedule")
    parser.add_argument("--snapshot-dir", default=None,
                        help="pass --snapshot-dir through to the server "
                        "(materialization snapshots persist across "
                        "sessions, so a second run starts warm)")
    parser.add_argument("--compare-tracing", action="store_true",
                        help="run the workload twice (tracing on, then "
                        "--no-trace) and report the overhead deltas")
    args = parser.parse_args()

    from bench_section7_cq_pipeline import WG_THEORY_TEXT, chain_data

    database = chain_data(args.chain)
    theory_path = os.path.join(HERE, "_bench_serve_theory.rules")
    with open(theory_path, "w", encoding="utf-8") as handle:
        handle.write(WG_THEORY_TEXT)

    try:
        comparison = None
        if args.compare_tracing:
            # Interleave the modes over two rounds (T/U/T/U).  A small
            # shared machine drifts by more than the effect under
            # measurement over minutes; alternating sessions and taking
            # the best warm pass per mode cancels the drift instead of
            # booking it as tracing overhead.
            passes, untraced_passes = [], []
            hygiene, untraced_hygiene = {}, {}
            # Three warm passes per session: a p95 over 200 samples is
            # the ~10th-slowest value, far too jittery from one pass.
            args.passes = max(args.passes, 4)
            for round_index in (1, 2, 3):
                for tracing in (True, False):
                    round_passes, round_hygiene = run_session(
                        args, theory_path, database, tracing=tracing
                    )
                    for record in round_passes:
                        record["round"] = round_index
                    if tracing:
                        passes.extend(round_passes)
                        hygiene = _merge_hygiene(hygiene, round_hygiene)
                    else:
                        untraced_passes.extend(round_passes)
                        untraced_hygiene = _merge_hygiene(
                            untraced_hygiene, round_hygiene
                        )
            comparison = {
                "traced": passes,
                "untraced": untraced_passes,
                "untraced_hygiene": untraced_hygiene,
                "traced_best_warm": _best_warm(passes),
                "untraced_best_warm": _best_warm(untraced_passes),
                "overhead": tracing_overhead(passes, untraced_passes),
            }
            if comparison["overhead"]:
                print(
                    "tracing overhead (best warm pass): "
                    + " ".join(
                        f"{key}={value}"
                        for key, value in comparison["overhead"].items()
                    ),
                    file=sys.stderr,
                )
        else:
            passes, hygiene = run_session(
                args, theory_path, database, tracing=True
            )
    finally:
        if os.path.exists(theory_path):
            os.remove(theory_path)

    record = {
        "schema": SCHEMA,
        "label": args.label,
        "workload": {
            "theory": "section7-wg-exemplar",
            "chain": args.chain,
            "output": "Reach",
            "workers": args.workers,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "passes": passes,
        "hygiene": hygiene,
    }
    if comparison is not None:
        record["tracing_comparison"] = comparison
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)

    checked_passes = list(passes)
    checked_hygiene = [hygiene]
    if comparison is not None:
        checked_passes += comparison["untraced"]
        checked_hygiene.append(comparison["untraced_hygiene"])
    ok = all(p["failures"] == 0 for p in checked_passes) and all(
        h.get("exit_code") == 0
        and not h.get("orphan_workers")
        and not h.get("traceback_on_stderr")
        for h in checked_hygiene
    )
    return 0 if ok else 1


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


if __name__ == "__main__":
    raise SystemExit(main())
