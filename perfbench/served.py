"""The served workload: ``repro serve`` under a seeded read/write mix.

One client connection sends, in a closed loop, four ``query`` ops for
every ``update``.  Each update is a 1-edge batch.  They come in cycles of
four over a seeded pair ``(a, b)`` of the graph's sinks (nodes without
out-edges): insert ``a -> b``, insert ``b -> a`` (now both are on a
cycle), retract ``b -> a``, retract ``a -> b``.  So the database stays
within two edges of its size, every cycle changes the queried answer,
and each batch's delta stays within the node count.  (Retracting an
edge inside the graph's giant strongly connected component instead
overdeletes nearly all of the 80k-atom model and takes seconds, which
would leave too few updates in a run to measure.)  An update op, as
``update_p50_ms`` reports it, is an edge's insert plus its retract.  The
client keeps its own copy of the edge set and checks every answer
against a strongly-connected-components oracle over it.

The untraced run starts the server with ``--no-trace``.  The traced run
starts it with request tracing on and ``--trace-sample 0`` (server-side
phase histograms for every request, no instrumented worker runs) and
afterwards replays, in this process, the two costs every request pays
in the worker: parsing and hashing the live database text, and
``LiveModel.apply`` on the same update batches.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import inputs
from harness import ROOT, SETUP_REPS, SRC, HostSpeed, Tally, median, op_indices, ratio, tail
from library import DatalogMaterialize
from repro.core import Atom, Constant, Database, parse_database, parse_theory
from repro.incremental import LiveModel
from repro.obs.metrics import Histogram
from repro.service.client import ServiceClient, ServiceError, healthz, http_get, wait_until_ready

#: Transitive closure, and the nodes on a cycle as the queried output.
SERVED_THEORY = """
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
T(x,y), E(y,x) -> Cyc(x)
"""
OUTPUT = "Cyc"
QUERIES_PER_UPDATE = 4
#: At least the one client connection, so nothing is shed.
QUEUE_LIMIT = 4
REQUEST_TIMEOUT_S = 60.0
PHASES = ("admission", "queue", "dispatch", "respond")
#: Update batches replayed through ``LiveModel.apply`` in the traced run.
REPLAY_BATCHES = 24
#: Repetitions of the parse/hash replay.
REPLAY_REPS = 10
WORK_DIR = ROOT / "perfbench" / ".work"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _wait_gone(pids, seconds: float) -> list[int]:
    deadline = time.monotonic() + seconds
    alive = [pid for pid in pids if _alive(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _alive(pid)]
    return alive


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One ``repro serve --workers 1`` process and its hygiene account."""

    def __init__(self, theory_path, data_path, traced: bool) -> None:
        self.port, self.http_port = _free_port(), _free_port()
        command = [
            sys.executable, "-m", "repro.cli", "serve", str(theory_path),
            "--data", str(data_path), "--workers", "1",
            "--port", str(self.port), "--http-port", str(self.http_port),
            "--queue-limit", str(QUEUE_LIMIT),
        ]
        command += ["--trace-sample", "0"] if traced else ["--no-trace"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        # Workers inherit the stderr pipe: read it on a thread until every
        # writer is gone, never after a kill from this one.
        self._stderr: list[bytes] = []
        self._reader = threading.Thread(
            target=lambda: self._stderr.append(self.process.stderr.read()),
            daemon=True,
        )
        self._reader.start()
        self.worker_pids: list[int] = []

    def wait_ready(self) -> None:
        wait_until_ready("127.0.0.1", self.port, timeout=120)
        self.worker_pids = healthz("127.0.0.1", self.http_port)["worker_pids"]

    def metrics_text(self) -> str:
        return http_get("127.0.0.1", self.http_port, "/metrics")[1]

    def peak_rss_mb(self) -> float:
        """Server plus worker peak resident set size."""
        return sum(_vm_hwm_mb(pid) for pid in [self.process.pid, *self.worker_pids])

    def drain(self) -> dict:
        """SIGTERM drain: exit code 0, no orphan workers, no traceback."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            code = None
        orphans = _wait_gone(self.worker_pids, 15)
        self.kill()
        self._reader.join(timeout=10)
        stderr = b"".join(self._stderr).decode("utf-8", "replace")
        account = {
            "exit_code": code,
            "orphan_workers": orphans,
            "traceback": "Traceback" in stderr,
            "stderr_open": self._reader.is_alive(),
        }
        account["clean"] = (
            code == 0 and not orphans and not account["traceback"]
            and not account["stderr_open"]
        )
        return account

    def kill(self) -> None:
        """Stop the server and its workers, whatever state they are in."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        for pid in _wait_gone(self.worker_pids, 0):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _wait_gone(self.worker_pids, 10)


def _histograms(text: str) -> dict[str, dict]:
    """Histogram families of a Prometheus exposition:
    ``{family: {"le": {bound: cumulative}, "sum": s, "count": c}}``."""
    families: dict[str, dict] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                family = families.setdefault(
                    name[: -len(suffix)], {"le": {}, "sum": 0.0, "count": 0.0}
                )
                if suffix == "_bucket":
                    bound = labels.split('le="', 1)[1].split('"', 1)[0]
                    family["le"][float(bound)] = float(value)
                else:
                    family[suffix[1:]] = float(value)
    return families


def _delta(before: dict, after: dict, family: str) -> Histogram:
    """The observations ``family`` gained between two scrapes."""
    new = after.get(family, {"le": {}, "sum": 0.0, "count": 0.0})
    old = before.get(family, {"le": {}, "sum": 0.0, "count": 0.0})
    bounds = sorted(new["le"])
    hist = Histogram([bound for bound in bounds if bound != float("inf")])
    cumulative = [new["le"][bound] - old["le"].get(bound, 0.0) for bound in bounds]
    hist.bucket_counts = [
        int(count - previous)
        for count, previous in zip(cumulative, [0.0] + cumulative[:-1])
    ]
    hist.count = int(cumulative[-1]) if cumulative else 0
    hist.sum = new["sum"] - old["sum"]
    return hist


def _p50(hist: Histogram) -> float:
    return hist.quantile(0.5) or 0.0


def _round_trips_ms(log, scaled: bool) -> list[float]:
    """Per edge, the insert latency plus the retract latency: one update
    op.  Inserts cost about a third of the DRed retracts, so a median
    over single requests would sit on the gap between the two modes."""
    pending: dict = {}
    trips = []
    for (kind, edge), (latency, scale, _) in zip(log["batches"], log["update"]):
        ms = latency * (scale if scaled else 1.0) * 1e3
        if kind == "insert":
            pending[edge] = ms
        elif edge in pending:
            trips.append(pending.pop(edge) + ms)
    return trips


class ServeReadWrite:
    """``repro serve`` with the TC theory over the ``datalog_materialize``
    graph: writes beside reads through ``service`` and ``incremental``."""

    name = "serve_read_write"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graph = inputs.seeded_graph(
            seed, DatalogMaterialize.NODES, DatalogMaterialize.EDGES
        )
        self.base = frozenset(self.graph.edges)
        has_out = {u for u, _ in self.base}
        self.sinks = [node for node in self.graph.nodes if node not in has_out]
        self.work = WORK_DIR / f"run-{os.getpid()}"
        self.servers: list[Server] = []

    def batches(self, label: str):
        """The seeded update stream: ``(kind, edge)`` in cycles of four."""
        rng = inputs.stream(self.seed, label)
        while True:
            a, b = rng.sample(self.sinks, 2)
            yield from (
                ("insert", (a, b)), ("insert", (b, a)),
                ("retract", (b, a)), ("retract", (a, b)),
            )

    def input_digest(self) -> str:
        stream = self.batches("updates")
        updates = [next(stream) for _ in range(32)]
        return inputs.digest(
            SERVED_THEORY, inputs.database_text(self.graph.edges), repr(updates)
        )

    def sizes(self) -> dict:
        return {"nodes": len(self.graph.nodes), "edges": len(self.graph.edges),
                "sinks": len(self.sinks), "queries_per_update": QUERIES_PER_UPDATE}

    # -- one exchange ----------------------------------------------------
    @staticmethod
    def _exchange(call, **request) -> tuple[dict | None, float, str]:
        """``(response, latency_s, failure)``; a shed, ``ok: false`` or a
        transport error is a failure."""
        start = time.perf_counter()
        try:
            response = call(**request)
        except ServiceError as exc:
            return None, time.perf_counter() - start, f"transport: {exc}"
        latency = time.perf_counter() - start
        if response.get("shed"):
            return response, latency, f"shed: {response.get('error')}"
        if not response.get("ok"):
            return response, latency, f"error: {response.get('error')}"
        return response, latency, ""

    def query(self, client, cycles) -> tuple[dict | None, float, str]:
        response, latency, failure = self._exchange(
            client.query, output=OUTPUT, timeout=REQUEST_TIMEOUT_S
        )
        if not failure:
            if not response.get("complete"):
                failure = f"incomplete: {response.get('exhausted')}"
            else:
                answers = response.get("answers", [])
                names = {answer[0] for answer in answers}
                if len(answers) != len(names) or names != cycles:
                    failure = "Cyc answers disagree with the SCC oracle"
        return response, latency, failure

    def update(self, client, kind: str, edge) -> tuple[dict | None, float, str]:
        batch = [inputs.edge_text(*edge)]
        request = {"insert": batch} if kind == "insert" else {"retract": batch}
        return self._exchange(client.update, timeout=REQUEST_TIMEOUT_S, **request)

    # -- set-up ----------------------------------------------------------
    def start(self, traced: bool) -> tuple[Server, ServiceClient, list[str]]:
        """Start a server and warm it: the first query materializes, the
        first update cycle builds the live model."""
        self.work.mkdir(parents=True, exist_ok=True)
        theory_path, data_path = self.work / "theory.rules", self.work / "graph.db"
        theory_path.write_text(SERVED_THEORY)
        data_path.write_text(inputs.database_text(self.graph.edges))
        server = Server(theory_path, data_path, traced)
        self.servers.append(server)
        server.wait_ready()
        client = ServiceClient("127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S)
        edges = set(self.base)
        failures = [self.query(client, inputs.cycle_nodes(self.graph.nodes, edges))[2]]
        warmup = self.batches("warmup")
        for _ in range(4):
            kind, edge = next(warmup)
            failures.append(self.update(client, kind, edge)[2])
            (edges.add if kind == "insert" else edges.discard)(edge)
            failures.append(self.query(client, inputs.cycle_nodes(self.graph.nodes, edges))[2])
        return server, client, [failure for failure in failures if failure]

    # -- the run ---------------------------------------------------------
    def run(self, seconds: float, traced: bool) -> tuple[bool, Tally, dict, dict]:
        try:
            return self._run(seconds, traced)
        finally:
            for server in self.servers:
                server.kill()
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK_DIR.rmdir()
            except OSError:  # another run still uses it
                pass

    def _run(self, seconds: float, traced: bool):
        setups, hygiene, setup_failures = [], [], []
        speed = HostSpeed()
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            server, client, failures = self.start(traced)
            setups.append((time.perf_counter() - start) * speed.scale())
            setup_failures += failures
            if rep < SETUP_REPS - 1:
                client.close()
                hygiene.append(server.drain())

        before = server.metrics_text() if traced else ""
        tally, log = self._timed(client, seconds)
        after = server.metrics_text() if traced else ""
        peak_mb = server.peak_rss_mb()
        client.close()
        hygiene.append(server.drain())

        clean = all(account["clean"] for account in hygiene)
        correct = tally.failed == 0 and not setup_failures and clean
        record = {
            "setup_s": setups,
            "setup_failures": setup_failures,
            "hygiene": hygiene,
            "requests": {kind: len(log[kind]) for kind in ("query", "update")},
            "failure_samples": tally.samples,
        }
        if traced:
            metrics = self._layers(log, before, after, tally, record)
            correct = correct and record["replay"]["answers_agree"]
        else:
            query_ms = [latency * scale * 1e3 for latency, scale, _ in log["query"]]
            every = query_ms + [latency * scale * 1e3 for latency, scale, _ in log["update"]]
            query_tail, query_pct = tail(query_ms)
            record["tail_percentiles"] = {"query": query_pct}
            record["raw_op_p50_ms"] = median(
                latency * 1e3 for latency, _, _ in log["query"] + log["update"]
            )
            record["calibration_ms"] = median(log["calibration_ms"])
            metrics = {
                "setup_s": median(setups),
                "op_p50_ms": median(every),
                "ops_per_s": ratio(len(every), sum(every) / 1e3),
                "query_p50_ms": median(query_ms),
                "query_tail_ms": query_tail,
                "update_p50_ms": median(_round_trips_ms(log, scaled=True)),
                "peak_rss_mb": peak_mb,
            }
        return correct, tally, metrics, record

    def _timed(self, client, seconds: float) -> tuple[Tally, dict]:
        """The closed loop; ``log`` keeps ``(latency_s, host_speed_scale,
        response)`` of each answered request by kind, and the applied
        update batches."""
        tally = Tally()
        speed = HostSpeed()
        log: dict = {"query": [], "update": [], "batches": [], "edges": set(self.base),
                     "calibration_ms": speed.samples}
        edges = log["edges"]
        cycles = inputs.cycle_nodes(self.graph.nodes, edges)
        batches = self.batches("updates")
        for index in op_indices(seconds):
            if index % (QUERIES_PER_UPDATE + 1) == QUERIES_PER_UPDATE:
                kind, edge = next(batches)
                response, latency, failure = self.update(client, kind, edge)
                scale = speed.scale()
                if not failure:
                    log["update"].append((latency, scale, response))
                    log["batches"].append((kind, edge))
                    (edges.add if kind == "insert" else edges.discard)(edge)
                    cycles = inputs.cycle_nodes(self.graph.nodes, edges)
            else:
                response, latency, failure = self.query(client, cycles)
                scale = speed.scale()
                if not failure:
                    log["query"].append((latency, scale, response))
            tally.record(not failure, failure)
        return tally, log

    # -- traced-run layers -----------------------------------------------
    def _layers(self, log, before_text, after_text, tally, record) -> dict:
        before, after = _histograms(before_text), _histograms(after_text)
        answered = log["query"] + log["update"]
        stats = [response.get("stats", {}) for _, _, response in answered]

        def total(key):
            return sum(entry.get(key, 0) for entry in stats)

        phase_hists = {
            phase: _delta(before, after, f"repro_service_phase_ms_{phase}")
            for phase in PHASES
        }
        worker = _delta(before, after, "repro_service_worker_elapsed_ms")
        latency_ms = sum(latency for latency, _, _ in answered) * 1e3
        updates = [response.get("update", {}) for _, _, response in log["update"]]
        overdeleted = sum(entry.get("overdeleted", 0) for entry in updates)
        rederived = sum(entry.get("rederived", 0) for entry in updates)
        replay = self._replay(log["batches"], log["edges"])
        record["replay"] = replay
        record["phase_counts"] = {phase: hist.count for phase, hist in phase_hists.items()}
        lookups = total("registry_hits") + total("registry_misses")
        plan_lookups = total("plan_cache_hits") + total("plan_compile_calls")
        metrics = {
            f"service.phase.{phase}_ms": _p50(hist) for phase, hist in phase_hists.items()
        }
        update_tail, record["update_tail_percentile"] = tail(
            _round_trips_ms(log, scaled=False)
        )
        metrics.update({
            "update_tail_ms": update_tail,
            "service.worker.elapsed_ms": _p50(worker),
            "service.client_overhead_ms": median(
                latency * 1e3 - response.get("stats", {}).get("elapsed_ms", 0.0)
                for latency, _, response in answered
            ),
            "service.registry.materializations": total("materializations"),
            "service.registry.hit_ratio": ratio(total("registry_hits"), lookups),
            "core.plan.cache_misses_per_op": ratio(total("plan_compile_calls"), len(stats)),
            "core.plan.cache_evictions_per_op": ratio(total("plan_cache_evictions"), len(stats)),
            "core.plan.cache_hit_ratio": ratio(total("plan_cache_hits"), plan_lookups),
            "core.parser.db_parse_ms": replay["parse_ms"],
            "core.store.content_hash_ms": replay["hash_ms"],
            "incremental.apply_ms": replay["apply_ms"],
            "incremental.fallbacks": sum(entry.get("fallback") is not None for entry in updates)
            + replay["fallbacks"],
            "incremental.dred_useful_ratio": 1.0 - ratio(rederived, overdeleted),
            "failed_ratio": tally.failed_ratio,
            "layer_coverage": ratio(
                sum(hist.sum for hist in phase_hists.values()), latency_ms
            ),
        })
        return metrics

    def _replay(self, batches, edges) -> dict:
        """Worker-side costs replayed in-process on the same inputs: the
        live database text as the worker renders it, and the update
        batches through ``LiveModel.apply``."""
        live_db = Database(Atom("E", (Constant(u), Constant(v))) for u, v in edges)
        text = "\n".join(f"{atom}." for atom in sorted(live_db))
        parse_ms, hash_ms = [], []
        for _ in range(REPLAY_REPS):
            start = time.perf_counter()
            database = parse_database(text)
            parsed = time.perf_counter()
            database.content_hash()
            parse_ms.append((parsed - start) * 1e3)
            hash_ms.append((time.perf_counter() - parsed) * 1e3)

        base = Database(Atom("E", (Constant(u), Constant(v))) for u, v in self.graph.edges)
        live = LiveModel(parse_theory(SERVED_THEORY), base)
        replayed = set(self.base)
        apply_ms, fallbacks = [], 0
        for kind, (u, v) in batches[:REPLAY_BATCHES]:
            atom = Atom("E", (Constant(u), Constant(v)))
            start = time.perf_counter()
            stats = live.apply(inserts=[atom]) if kind == "insert" else live.apply(retracts=[atom])
            apply_ms.append((time.perf_counter() - start) * 1e3)
            fallbacks += stats.fallback is not None
            (replayed.add if kind == "insert" else replayed.discard)((u, v))
        answers = {answer[0].name for answer in live.answers(OUTPUT)}
        return {
            "text_bytes": len(text),
            "parse_ms": median(parse_ms),
            "hash_ms": median(hash_ms),
            "batches": len(apply_ms),
            "apply_ms": median(apply_ms),
            "fallbacks": fallbacks,
            "answers_agree": answers == inputs.cycle_nodes(self.graph.nodes, replayed),
        }
