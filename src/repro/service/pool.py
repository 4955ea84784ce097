"""Persistent worker pool: warm processes, batching, crash recovery.

Query answering is CPU-bound Python, so the service's parallelism unit
is the **process**: ``N`` workers, each owning a private
:class:`~repro.service.registry.TheoryRegistry` (compiled theories,
materialized models) and the process-global join-plan cache — the warmth
the one-shot CLI kept throwing away.  Workers are started with the
``spawn`` method: the parent runs threads (the result pump, the health
monitor), and forking a threaded process is how you inherit a locked
allocator; spawn keeps restarts safe at the cost of ~a hundred
milliseconds per worker, paid only at start and after a crash.

Dispatch is **batched per theory**: the server groups queued queries by
theory content hash and ships one message carrying the rule text once
plus every job in the group, so a worker registers (or cache-hits) the
theory a single time per batch.  Each worker has a private inbox; the
parent tracks which jobs are in flight on which worker, which is what
makes crash recovery exact:

* a per-worker **result pump** (thread) drains that worker's private
  result queue and hands completions to the server's callback;
* the **health monitor** (thread) watches ``Process.is_alive``; when a
  worker dies it fails that worker's in-flight jobs with a structured
  ``worker_crashed`` error (never a traceback), spawns a replacement,
  and counts a restart.  A worker that exceeds a job's hard kill
  deadline is terminated through the same path.

Result queues are deliberately **not shared** across workers.
``mp.Queue.put`` hands the payload to a background feeder thread that
acquires a cross-process write lock before touching the pipe; a worker
dying mid-``put`` (fault injection's ``os._exit``, or the watchdog's
``terminate()``) can take that lock to the grave and wedge every other
writer forever.  With one queue per worker the blast radius of a dirty
death is the dead worker's own channel, which is discarded with it.

Graceful drain (:meth:`WorkerPool.stop`) sends each inbox a poison
pill, joins with a grace period, and only then escalates to
``terminate``/``kill`` — the SIGTERM contract of ``repro serve`` is
"no orphan workers, exit 0", and tests assert both.

Crash-loop protection: a worker that dies is normally respawned on the
next health sweep, but a *crash loop* (a poisoned input, a broken
binary, an OOM-killer feedback cycle) would turn instant respawn into a
fork bomb.  The monitor therefore tracks crash times in a sliding
window; past ``crash_loop_threshold`` crashes in ``crash_loop_window``
seconds, respawns are delayed by capped exponential backoff
(``respawn_backoff_base``··``respawn_backoff_max``).  The pool keeps
serving with whatever workers remain — degraded but alive — and the
backoff state is exported (``respawn_backoff_ms`` gauge,
``crash_loops`` counter, ``worker.crash_loop`` events) so operators see
the loop, not just its symptoms.

Fault injection: when the pool is constructed with ``allow_faults``
(test harnesses, the CI smoke job, ``repro soak``), a query may carry
``{"inject": …}`` with any action from
:data:`repro.robustness.faults.WORKER_FAULT_ACTIONS`:

* ``"crash"`` — the worker hard-exits mid-query via ``os._exit``
  (exercises crash recovery end-to-end);
* ``"stall"`` — the worker wedges in non-ticking code (exercises the
  hard-kill watchdog);
* ``"slow:<ms>"`` — the worker sleeps, then answers normally
  (exercises latency tolerance);
* ``"corrupt_envelope"`` — the worker puts a malformed item on its
  result queue (exercises the parent's poisoned-channel handling: the
  worker is terminated and its jobs fail structured, never hang).

Without the flag every ``inject`` is rejected, so a production
deployment cannot be crashed by request payload.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import multiprocessing as mp

from ..core.database import Database
from .registry import REQUESTABLE_STRATEGIES, TheoryRegistry, UnknownDatabase

__all__ = [
    "NoLiveWorkers",
    "PoolConfig",
    "WorkerPool",
    "run_job",
    "worker_main",
]

_POISON = None

#: Marker payload ``run_job`` returns for the ``corrupt_envelope`` fault;
#: ``worker_main`` turns it into an actually-malformed queue item.
_CORRUPT_MARKER = "__corrupt_envelope__"


class NoLiveWorkers(RuntimeError):
    """Dispatch found no live worker process (all crashed, respawns
    possibly held back by crash-loop backoff).  The server maps this to
    an ``overloaded`` shed whose ``retry_after_ms`` reflects the
    remaining backoff — degraded-but-serving, never a hang."""


@dataclass
class PoolConfig:
    """Worker-pool knobs (everything the worker process needs rides in
    here, so it must stay picklable)."""

    workers: int = 2
    registry_capacity: int = 32
    strict_registry: bool = False
    max_rules: int = 100_000
    saturation_max_rules: int = 200_000
    #: Directory for persistent materialization snapshots (``None`` off);
    #: every worker's registry loads from and saves to it.
    snapshot_dir: Optional[str] = None
    allow_faults: bool = False
    #: Seconds between health sweeps.
    health_interval: float = 0.25
    #: Grace period for drain before escalating to terminate().
    drain_grace: float = 10.0
    #: A job overrunning its own timeout by this factor (plus a floor)
    #: is presumed wedged in non-ticking code; its worker is killed and
    #: restarted.  ``None`` disables the watchdog.
    hard_kill_factor: Optional[float] = 4.0
    hard_kill_floor: float = 30.0
    #: Crash-loop detection: more than ``crash_loop_threshold`` worker
    #: deaths inside ``crash_loop_window`` seconds switches respawn from
    #: immediate to exponential backoff (base doubling per excess crash,
    #: capped) — degraded-but-serving instead of a fork bomb.
    crash_loop_window: float = 10.0
    crash_loop_threshold: int = 5
    #: First backoff step, seconds (doubles per excess crash).
    respawn_backoff_base: float = 0.25
    #: Backoff ceiling, seconds.
    respawn_backoff_max: float = 10.0


# ----------------------------------------------------------------------
# worker side (runs in the child process)
# ----------------------------------------------------------------------
def run_job(registry: TheoryRegistry, job: dict, *, allow_faults: bool) -> dict:
    """Execute one register/query/update job against the worker's registry.

    Returns the response payload (without the envelope ``id``).  Every
    failure mode is a structured error dict — this function must never
    raise, because an escaped exception would take down the worker and
    turn one bad request into a crash-recovery event.

    A query or update names its database either by text (``database``,
    parsed and hashed here, counted in the ``db_parses`` stat) or by
    content hash alone (``db_key``).  A key the registry holds nothing
    for answers the ``unknown_db`` error before any state changes; the
    server then resends the job with the text.

    When the job carries ``trace: true`` the engine work runs under a
    fresh ambient :func:`~repro.obs.runtime.instrumented` scope and the
    recorded span tree (compile phases, materialization, CQ evaluation)
    ships back in the payload under ``trace`` — the worker half of the
    end-to-end request trace the server assembles.  The envelope anchors
    its spans with the worker's ``time.monotonic()`` at job start, which
    shares ``CLOCK_MONOTONIC`` with the parent on one host.
    """
    if not job.get("trace"):
        return _run_job_inner(registry, job, allow_faults=allow_faults)
    from ..obs.runtime import instrumented
    from .tracing import spans_to_wire

    anchor_monotonic = time.monotonic()
    anchor_perf = time.perf_counter()
    with instrumented() as instr:
        with instr.span("worker.job", kind=job.get("kind", "query")):
            payload = _run_job_inner(registry, job, allow_faults=allow_faults)
    wire_spans, dropped = spans_to_wire(instr.tracer.spans, anchor_perf)
    payload["trace"] = {
        "trace_id": job.get("trace_id"),
        "parent_span_id": job.get("span_id"),
        "started_monotonic": anchor_monotonic,
        "spans": wire_spans,
        "dropped": dropped,
    }
    return payload


def _run_job_inner(registry: TheoryRegistry, job: dict, *, allow_faults: bool) -> dict:
    """The untraced body of :func:`run_job` (see its contract)."""
    # Imported lazily so the module stays importable for type checking
    # without triggering package cycles at spawn time.
    from ..core.parser import ParseError, parse_atom, parse_database
    from ..chase.runner import ChaseBudget
    from ..core.plan import plan_cache_stats
    from ..incremental import incremental_stats
    from ..robustness.errors import (
        BudgetExceeded,
        Cancelled,
        InvalidRequestError,
        InvalidTheoryError,
        ReproError,
    )
    from ..robustness.governor import ResourceGovernor, governed
    from . import protocol

    started = time.perf_counter()
    plan_before = plan_cache_stats()
    registry_before = registry.stats()
    incremental_before = incremental_stats()
    db_parses = 0

    def stats(extra: Optional[dict] = None) -> dict:
        plan_after = plan_cache_stats()
        registry_after = registry.stats()
        incremental_after = incremental_stats()
        payload = {
            "elapsed_ms": round((time.perf_counter() - started) * 1e3, 3),
            "db_parses": db_parses,
            "registry_hits": registry_after["hits"] - registry_before["hits"],
            "registry_misses": registry_after["misses"] - registry_before["misses"],
            "registry_evictions": registry_after["evictions"]
            - registry_before["evictions"],
            "advisor_predicted_chase": registry_after["advisor_predicted_chase"]
            - registry_before["advisor_predicted_chase"],
            "advisor_fallbacks": registry_after["advisor_fallbacks"]
            - registry_before["advisor_fallbacks"],
            "plan_cache_hits": plan_after["hits"] - plan_before["hits"],
            "plan_compile_calls": plan_after["misses"] - plan_before["misses"],
            "plan_cache_evictions": plan_after["evictions"] - plan_before["evictions"],
            "plan_codegen": plan_after["codegen"] - plan_before["codegen"],
            "materializations": registry_after["materializations"]
            - registry_before["materializations"],
            "snapshot_loads": registry_after["snapshot_loads"]
            - registry_before["snapshot_loads"],
            "snapshot_saves": registry_after["snapshot_saves"]
            - registry_before["snapshot_saves"],
            "snapshot_errors": registry_after["snapshot_errors"]
            - registry_before["snapshot_errors"],
            # Absolute gauges (resident size of cached materializations),
            # not deltas — the server republishes the latest value.
            "store_bytes": registry_after["store_bytes"],
            "store_symbols": registry_after["store_symbols"],
        }
        # Incremental-maintenance deltas (repro.incremental process
        # counters), folded into ``service.worker.incremental_*``.
        for key, after in incremental_after.items():
            payload[f"incremental_{key}"] = after - incremental_before[key]
        if extra:
            payload.update(extra)
        return payload

    def failure(code: str, message: str) -> dict:
        return {
            "ok": False,
            "error": {"code": code, "message": message},
            "stats": stats(),
        }

    def named_database() -> tuple[Optional[Database], str]:
        """The job's database and its key: parsed from the text when the
        job carries one, else ``None`` and the key the job names."""
        nonlocal db_parses
        if "db_key" in job:
            return None, job["db_key"]
        db_parses += 1
        database = parse_database(job.get("database", ""))
        # Structural content hash, memoized on the store: equal fact
        # sets share one materialization regardless of database-text
        # formatting.
        return database, database.content_hash()

    try:
        kind = job.get("kind", "query")
        strategy = job.get("strategy", "auto")
        if strategy not in REQUESTABLE_STRATEGIES:
            return failure(
                protocol.ERR_INVALID_REQUEST,
                f"unknown strategy {strategy!r}; expected one of "
                f"{REQUESTABLE_STRATEGIES}",
            )
        timeout = job.get("timeout")
        governor = (
            ResourceGovernor(timeout=float(timeout)) if timeout is not None else None
        )

        inject = job.get("inject")
        if inject is not None:
            from ..robustness.faults import parse_worker_fault

            if not allow_faults:
                return failure(
                    protocol.ERR_INVALID_REQUEST,
                    "fault injection is disabled on this server",
                )
            fault_kind, fault_arg = parse_worker_fault(inject)
            if fault_kind == "crash":
                os._exit(70)  # simulated hard crash mid-query
            elif fault_kind == "stall":
                # Wedge in non-ticking code: only the hard-kill watchdog
                # (or drain escalation) gets this worker back.
                while True:  # pragma: no cover - killed externally
                    time.sleep(3600)
            elif fault_kind == "corrupt_envelope":
                return {_CORRUPT_MARKER: True}
            else:  # "slow:<ms>" — delay, then answer normally.
                assert fault_arg is not None
                time.sleep(fault_arg / 1e3)

        scope = governed(governor) if governor is not None else None
        try:
            if scope is not None:
                scope.__enter__()
            compiled = registry.register(
                job["theory"], source=job.get("source", "<request>"),
                strategy=strategy,
            )
            if kind == "register":
                return {"ok": True, **compiled.describe(), "stats": stats()}
            budget = ChaseBudget(
                max_steps=job.get("max_steps") or 100_000,
                max_depth=job.get("max_depth"),
            )
            if kind == "update":
                inserts = [
                    parse_atom(text, data_mode=True)
                    for text in job.get("insert", ())
                ]
                retracts = [
                    parse_atom(text, data_mode=True)
                    for text in job.get("retract", ())
                ]
                database, old_key = named_database()
                new_key, ustats, _ = compiled.update(
                    database, inserts, retracts, db_key=old_key, budget=budget
                )
                return {
                    "ok": True,
                    "theory": compiled.content_hash,
                    "strategy": compiled.strategy,
                    "db_key": new_key,
                    "old_db_key": old_key,
                    "update": ustats.to_dict(),
                    "stats": stats(),
                }
            database, db_key = named_database()
            outcome = compiled.answer(
                database, job["output"], budget=budget, db_key=db_key
            )
            answers = sorted(
                [term.name for term in answer] for answer in outcome.value
            )
            return {
                "ok": True,
                "theory": compiled.content_hash,
                "strategy": compiled.strategy,
                "answers": answers,
                "complete": outcome.complete,
                "exhausted": outcome.exhausted,
                "sound": outcome.sound,
                "stats": stats(),
            }
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)
    except (BudgetExceeded, Cancelled) as exc:
        # Exhaustion is an expected result: a sound (possibly empty)
        # partial with the machine-readable reason, mirroring Outcome.
        return {
            "ok": True,
            "answers": [],
            "complete": False,
            "exhausted": getattr(exc, "reason", "budget"),
            "sound": True,
            "stats": stats(),
        }
    except UnknownDatabase as exc:
        # Nothing changed: the server resends the job with the text.
        return failure(protocol.ERR_UNKNOWN_DB, str(exc))
    except ParseError as exc:
        return failure(protocol.ERR_PARSE, str(exc))
    except (InvalidTheoryError, InvalidRequestError) as exc:
        return failure(protocol.ERR_INVALID_REQUEST, str(exc))
    except ReproError as exc:
        return failure(protocol.ERR_ENGINE, f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 - the no-traceback boundary
        return failure(protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}")


def worker_main(worker_id: int, inbox, results, config: PoolConfig) -> None:
    """Child-process entry point: drain the inbox until the poison pill.

    Messages are ``(theory_text, jobs)`` with ``jobs`` a list of
    ``{"job_id": …, …}`` dicts sharing one theory; each job is answered
    individually on this worker's private result queue as
    ``(worker_id, job_id, payload)``."""
    registry = TheoryRegistry(
        capacity=config.registry_capacity,
        strict=config.strict_registry,
        max_rules=config.max_rules,
        saturation_max_rules=config.saturation_max_rules,
        snapshot_dir=config.snapshot_dir,
    )
    while True:
        message = inbox.get()
        if message is _POISON:
            break
        theory_text, jobs = message
        for job in jobs:
            job = dict(job)
            job["theory"] = theory_text
            payload = run_job(registry, job, allow_faults=config.allow_faults)
            if config.allow_faults and payload.get(_CORRUPT_MARKER):
                # Injected envelope corruption: a deliberately malformed
                # item (wrong shape) lands on the result queue.  The
                # parent's pump must treat the channel as poisoned.
                results.put(("corrupt-envelope", job["job_id"]))
                continue
            results.put((worker_id, job["job_id"], payload))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Parent-side view of one child process."""

    process: mp.process.BaseProcess
    inbox: Any
    #: This worker's private result queue — never shared, so a dirty
    #: death cannot wedge another worker's result path.
    results: Any
    #: Set by the monitor once the process is declared dead; tells the
    #: pump thread to stop polling the (now writerless) result queue.
    dead: threading.Event
    pump: Optional[threading.Thread] = None
    #: job_id -> (payload, enqueue monotonic time, hard deadline or None)
    in_flight: dict[str, tuple[dict, float, Optional[float]]] = field(
        default_factory=dict
    )


class WorkerPool:
    """N spawn-started workers behind per-worker inbox/result queues,
    with health monitoring and exact crash recovery."""

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self._ctx = mp.get_context("spawn")
        self._workers: dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._lock = threading.Lock()
        self._on_result: Optional[Callable[[str, dict], None]] = None
        self._on_restart: Optional[Callable[[int], None]] = None
        self._on_event: Optional[Callable[[str, dict], None]] = None
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self.restarts = 0
        self.hard_kills = 0
        #: Malformed result-queue items seen (each poisons its worker).
        self.corrupt_envelopes = 0
        #: Times respawn was pushed into crash-loop backoff.
        self.crash_loops = 0
        #: Current respawn backoff (gauge; 0.0 while healthy).
        self.respawn_backoff_ms = 0.0
        #: Recent crash times (sliding ``crash_loop_window``).
        self._crash_times: deque[float] = deque()
        #: Workers owed a replacement (respawn may be backed off).
        self._pending_respawns = 0
        self._respawn_not_before = 0.0

    # ------------------------------------------------------------------
    def start(
        self,
        on_result: Callable[[str, dict], None],
        *,
        on_restart: Optional[Callable[[int], None]] = None,
        on_event: Optional[Callable[[str, dict], None]] = None,
    ) -> None:
        """Spawn the workers (each with its own pump thread) and the
        monitor thread.

        ``on_result(job_id, payload)`` fires on a pump thread — the
        server wraps it in ``loop.call_soon_threadsafe``.  ``on_event``
        (same threading caveat) receives typed lifecycle events —
        ``worker.crashed``, ``worker.hard_kill``, ``worker.crash_loop``,
        ``worker.corrupt_envelope``, ``worker.respawned`` — which the
        server forwards to the flight recorder."""
        self._on_result = on_result
        self._on_restart = on_restart
        self._on_event = on_event
        for _ in range(self.config.workers):
            self._spawn_worker()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-pool-monitor", daemon=True
        )
        self._monitor.start()

    def _spawn_worker(self) -> int:
        """Start one worker and publish it.  While respawns are owed the
        worker is a replacement: it counts as a restart in the locked
        section that publishes it, and only if it is alive, so no reader
        sees the replacement before the count."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        inbox = self._ctx.Queue()
        results = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, inbox, results, self.config),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        worker = _Worker(
            process=process, inbox=inbox, results=results,
            dead=threading.Event(),
        )
        worker.pump = threading.Thread(
            target=self._pump_loop,
            args=(worker,),
            name=f"repro-pool-pump-{worker_id}",
            daemon=True,
        )
        with self._lock:
            self._workers[worker_id] = worker
            if self._pending_respawns and process.is_alive():
                self._pending_respawns -= 1
                self.restarts += 1
        worker.pump.start()
        return worker_id

    def _emit(self, event: str, **attrs: Any) -> None:
        """Fire the lifecycle-event callback; a listener error must never
        take down a pool thread."""
        callback = self._on_event
        if callback is None:
            return
        try:
            callback(event, attrs)
        except Exception:  # noqa: BLE001 - observer isolation
            pass

    # ------------------------------------------------------------------
    def dispatch(
        self,
        theory_text: str,
        jobs: list[dict],
        *,
        prefer: Optional[int] = None,
    ) -> int:
        """Send one same-theory batch to the least-loaded live worker;
        returns that worker's id (for trace attribution).

        ``prefer`` names a worker to favour when it is still alive —
        the server's sticky affinity for live (incrementally updated)
        databases, whose in-memory state lives on exactly one worker.
        A dead preference silently falls back to least-loaded (the
        replacement misses the live database's key, and the server
        resends the job with the database text)."""
        now = time.monotonic()
        with self._lock:
            live = [
                (len(worker.in_flight), worker_id, worker)
                for worker_id, worker in self._workers.items()
                if worker.process.is_alive()
            ]
            if not live:
                raise NoLiveWorkers("no live workers")
            preferred = [
                entry for entry in live if prefer is not None and entry[1] == prefer
            ]
            _, worker_id, worker = (
                preferred[0]
                if preferred
                else min(live, key=lambda item: (item[0], item[1]))
            )
            for job in jobs:
                worker.in_flight[job["job_id"]] = (
                    job,
                    now,
                    self._hard_deadline(job, now),
                )
        worker.inbox.put((theory_text, jobs))
        return worker_id

    def _hard_deadline(self, job: dict, now: float) -> Optional[float]:
        factor = self.config.hard_kill_factor
        if factor is None:
            return None
        timeout = job.get("timeout")
        if timeout is None:
            return None
        return now + max(self.config.hard_kill_floor, float(timeout) * factor)

    def in_flight(self) -> int:
        with self._lock:
            return sum(len(w.in_flight) for w in self._workers.values())

    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1 for w in self._workers.values() if w.process.is_alive()
            )

    def respawn_backoff_remaining_ms(self) -> float:
        """Milliseconds until the next delayed respawn may run (0 when
        no backoff is active) — the server's ``retry_after_ms`` hint for
        no-live-worker sheds."""
        if not self._pending_respawns:
            return 0.0
        return max(
            0.0,
            round((self._respawn_not_before - time.monotonic()) * 1e3, 3),
        )

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [
                w.process.pid
                for w in self._workers.values()
                if w.process.pid is not None and w.process.is_alive()
            ]

    # ------------------------------------------------------------------
    def _pump_loop(self, worker: _Worker) -> None:
        """Drain one worker's private result queue until the pool stops
        or the monitor declares the worker dead.

        A dirty death can leave a half-written message on the pipe, and
        fault injection can put a deliberately malformed item there.
        Either way the channel is *poisoned*: the worker is terminated
        so the monitor's crash path fails its in-flight jobs with a
        structured ``worker_crashed`` — a corrupt envelope must cost a
        worker restart, never a silently hung request."""
        while True:
            try:
                item = worker.results.get(timeout=0.2)
            except queue.Empty:
                if self._stopping.is_set() or worker.dead.is_set():
                    return
                continue
            except Exception:  # noqa: BLE001 - corrupt stream from a dirty death
                self._poison_channel(worker)
                return
            try:
                worker_id, job_id, payload = item
                if not isinstance(payload, dict):
                    raise TypeError("result payload must be a dict")
            except (TypeError, ValueError):
                self._poison_channel(worker)
                continue
            with self._lock:
                current = self._workers.get(worker_id)
                if current is worker:
                    worker.in_flight.pop(job_id, None)
            callback = self._on_result
            if callback is not None:
                callback(job_id, payload)

    def _poison_channel(self, worker: _Worker) -> None:
        """A malformed item arrived on ``worker``'s result queue: count
        it and terminate the worker — the monitor then fails its
        in-flight jobs and (backoff permitting) respawns."""
        self.corrupt_envelopes += 1
        self._emit("worker.corrupt_envelope", pid=worker.process.pid)
        if worker.process.is_alive():
            worker.process.terminate()

    def _monitor_loop(self) -> None:
        from . import protocol

        while not self._stopping.wait(self.config.health_interval):
            now = time.monotonic()
            dead: list[tuple[int, _Worker, str]] = []
            with self._lock:
                for worker_id, worker in list(self._workers.items()):
                    if not worker.process.is_alive():
                        dead.append((worker_id, worker, "crashed"))
                        del self._workers[worker_id]
                        continue
                    wedged = [
                        job_id
                        for job_id, (_, _, deadline) in worker.in_flight.items()
                        if deadline is not None and now > deadline
                    ]
                    if wedged:
                        # Non-cooperative overrun: kill through the same
                        # recovery path a crash takes.
                        worker.process.terminate()
                        self.hard_kills += 1
                        dead.append((worker_id, worker, "hard timeout"))
                        del self._workers[worker_id]
            for worker_id, worker, why in dead:
                worker.dead.set()
                orphaned = list(worker.in_flight.items())
                worker.in_flight.clear()
                exit_code = worker.process.exitcode
                self._emit(
                    "worker.hard_kill" if why == "hard timeout"
                    else "worker.crashed",
                    worker=worker_id,
                    exit_code=exit_code,
                    failed_jobs=len(orphaned),
                )
                callback = self._on_result
                for job_id, _ in orphaned:
                    if callback is not None:
                        callback(
                            job_id,
                            {
                                "ok": False,
                                "error": {
                                    "code": protocol.ERR_WORKER_CRASHED,
                                    "message": (
                                        f"worker {why} (exit code {exit_code}) "
                                        "while handling this request"
                                    ),
                                },
                            },
                        )
                if not self._stopping.is_set():
                    self._crash_times.append(time.monotonic())
                    self._pending_respawns += 1
            self._respawn_pending()

    def _respawn_pending(self) -> None:
        """Replace dead workers, with crash-loop backoff.

        Respawn is immediate while crashes are rare; past
        ``crash_loop_threshold`` crashes inside ``crash_loop_window``
        seconds each further respawn waits ``respawn_backoff_base *
        2**excess`` (capped) — the pool degrades to fewer workers
        instead of fork-bombing a host whose workers die on arrival.

        Accounting contract: ``restarts`` and ``on_restart`` fire only
        *after* the replacement process was spawned and confirmed alive
        — a failed spawn leaves the counter untouched and retries on the
        next health sweep."""
        while self._pending_respawns and not self._stopping.is_set():
            now = time.monotonic()
            window = self.config.crash_loop_window
            while self._crash_times and now - self._crash_times[0] > window:
                self._crash_times.popleft()
            excess = len(self._crash_times) - self.config.crash_loop_threshold
            if excess >= 0:
                backoff = min(
                    self.config.respawn_backoff_max,
                    self.config.respawn_backoff_base * (2 ** excess),
                )
                self.respawn_backoff_ms = round(backoff * 1e3, 3)
                if now < self._respawn_not_before:
                    return  # still backing off; retry next sweep
            else:
                backoff = 0.0
                self.respawn_backoff_ms = 0.0
            restarts = self.restarts
            try:
                replacement = self._spawn_worker()
            except Exception:  # noqa: BLE001 - spawn failure: retry next sweep
                return
            if self.restarts == restarts:
                # Died before confirmation: the next sweep's dead-worker
                # scan reaps it; no restart is recorded for a replacement
                # that never served.
                return
            if backoff > 0.0:
                self.crash_loops += 1
                self._respawn_not_before = time.monotonic() + backoff
                self._emit(
                    "worker.crash_loop",
                    backoff_ms=self.respawn_backoff_ms,
                    crashes_in_window=len(self._crash_times),
                    pending=self._pending_respawns,
                )
            self._emit("worker.respawned", worker=replacement)
            if self._on_restart is not None:
                self._on_restart(replacement)

    # ------------------------------------------------------------------
    def stop(self, grace: Optional[float] = None) -> bool:
        """Drain: poison pills, join with grace, escalate if needed.

        Returns ``True`` when every worker exited within the grace
        period (a clean drain)."""
        grace = self.config.drain_grace if grace is None else grace
        self._stopping.set()
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.inbox.put(_POISON)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + grace
        clean = True
        for worker in workers:
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(remaining)
            if worker.process.is_alive():
                clean = False
                worker.process.terminate()
                worker.process.join(2.0)
                if worker.process.is_alive():  # pragma: no cover - last resort
                    worker.process.kill()
                    worker.process.join(1.0)
        for worker in workers:
            if worker.pump is not None:
                worker.pump.join(2.0)
        if self._monitor is not None:
            self._monitor.join(2.0)
        with self._lock:
            self._workers.clear()
        return clean
