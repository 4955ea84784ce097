"""The asyncio front-end: admission control, batching, two listeners.

One process, one event loop, two listeners:

* the **query plane** (``asyncio.start_server``) speaks the NDJSON
  protocol of :mod:`repro.service.protocol` — requests on a connection
  are handled sequentially, so responses stay in order and concurrency
  comes from concurrent connections;
* the **ops plane** (a second listener on ``http_port``) speaks just
  enough HTTP/1.1 for ``GET /healthz`` (JSON liveness: version, worker
  PIDs, drain state), ``GET /metrics`` (Prometheus text exposition of
  the server's :class:`~repro.obs.metrics.MetricsRegistry`, latency
  histograms included), ``GET /debug/requests[/<trace_id>]`` (the
  flight recorder: recent/slowest trace summaries, or one full
  end-to-end span tree by trace id — see :mod:`repro.service.tracing`),
  and ``GET /debug/theories`` (per-registered-theory compile summaries:
  chosen strategy plus the strategy advisor's reasoning).

Admission control is a single bounded count: ``queue_limit`` caps jobs
that are admitted but not yet answered (queued *or* in flight on a
worker).  A request over the cap is refused immediately with an
``overloaded`` shed response — a structured partial per the protocol,
never a traceback, and never a silent hang: the server's job is to stay
responsive by refusing work, not to buffer unboundedly.  While draining
(SIGTERM) every new request sheds with ``draining`` while in-flight work
runs to completion.

Batching: admitted query jobs land in a pending list and a dispatcher
task drains it in one sweep, grouping jobs by theory content hash —
each group travels to one worker as a single batch, so the worker
resolves (or compiles) the theory once per batch rather than once per
request.  Under load the sweep naturally collects many requests; at low
load it degrades to batches of one with no added latency.

Worker results arrive on the pool's pump thread and are marshalled onto
the loop with ``call_soon_threadsafe``; per-job engine statistics
(registry hits, plan-cache traffic) are folded into the server metrics
under ``service.worker.*`` so ``/metrics`` shows cross-request warmth.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from .. import __version__
from ..core.atoms import Atom
from ..core.parser import parse_atom, parse_database, render_atom
from ..robustness.errors import InternalError
from ..obs.metrics import MetricsRegistry
from ..obs.prometheus import render_exposition
from . import protocol
from .pool import NoLiveWorkers, PoolConfig, WorkerPool
from .registry import REQUESTABLE_STRATEGIES, content_hash
from .tracing import FlightRecorder, RequestTrace

#: One registered continuous query: the connection to push to, the
#: theory it watches, and the last answer set delivered (diff base).
@dataclass
class _Subscription:
    sub_id: int
    writer: asyncio.StreamWriter = field(repr=False)
    theory: str
    theory_text: str
    output: str
    answers: list = field(default_factory=list)


@dataclass
class _LiveDatabase:
    """A theory's live database as the server holds it: the content key
    workers know it by, and its facts, rendered only for a worker that
    holds nothing under the key."""

    db_key: str
    facts: set[Atom]

    def copy(self) -> "_LiveDatabase":
        return _LiveDatabase(self.db_key, set(self.facts))

    def apply(self, inserts: list, retracts: list, db_key: str) -> None:
        """Advance by one batch a worker applied: retracts first, then
        inserts, as ``LiveModel.apply`` does; ``db_key`` is the worker's
        post-update key."""
        self.facts.difference_update(
            parse_atom(text, data_mode=True) for text in retracts
        )
        self.facts.update(parse_atom(text, data_mode=True) for text in inserts)
        self.db_key = db_key

    def render(self) -> str:
        """Data text that parses back to these facts (constants quoted,
        so every name reads back as the constant it was)."""
        return "\n".join(f"{render_atom(atom)}." for atom in sorted(self.facts))

__all__ = ["ServiceConfig", "ReasoningServer", "serve"]


def _no_theory(request_id: Any) -> dict:
    """The response to a request that names no theory the server has."""
    return protocol.error_response(
        protocol.ERR_UNKNOWN_THEORY,
        "no theory: name a registered content hash in 'theory', inline "
        "rules in 'theory_text', or start the server with a default theory",
        request_id=request_id,
    )


#: Per-job stat keys folded into the server's ``service.worker.*``
#: counters when a result arrives.
_WORKER_STAT_KEYS = (
    "registry_hits",
    "registry_misses",
    "registry_evictions",
    "advisor_predicted_chase",
    "advisor_fallbacks",
    "plan_cache_hits",
    "plan_compile_calls",
    "plan_cache_evictions",
    "plan_codegen",
    "materializations",
    "snapshot_loads",
    "snapshot_saves",
    "snapshot_errors",
    "updates",
    "incremental_updates",
    "incremental_inserted",
    "incremental_retracted",
    "incremental_derived_added",
    "incremental_derived_removed",
    "incremental_overdeleted",
    "incremental_rederived",
    "incremental_fallbacks",
    "db_parses",
)

#: Per-job stat keys that are absolute gauges (the worker's current
#: value replaces the server's), not deltas to accumulate.
_WORKER_GAUGE_KEYS = ("store_bytes", "store_symbols")


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 7464
    #: Ops (healthz/metrics) listener port; ``None`` → ``port + 1``.
    http_port: Optional[int] = None
    workers: int = 2
    #: Admission cap: jobs admitted but not yet answered.
    queue_limit: int = 64
    #: Applied when a query carries no ``timeout`` of its own.
    default_timeout: Optional[float] = 30.0
    #: Default chase step budget (per query, overridable per request).
    default_max_steps: int = 100_000
    #: Theory text served to queries that name no theory (optional).
    theory_text: Optional[str] = None
    theory_source: str = "<default>"
    #: Initial live database of every theory, for requests that carry
    #: none (optional).
    database_text: str = ""
    strategy: str = "auto"
    strict: bool = False
    allow_faults: bool = False
    registry_capacity: int = 32
    max_rules: int = 100_000
    saturation_max_rules: int = 200_000
    #: Persistent materialization snapshots: workers save every complete
    #: materialization here and read a database's file the first time
    #: its key is asked for, so a restarted service answers without
    #: re-chasing.
    snapshot_dir: Optional[str] = None
    drain_grace: float = 10.0
    #: Baseline backoff hint carried by every shed response; when the
    #: shed is caused by a crash-looping pool the hint grows to cover
    #: the pool's current respawn backoff instead.
    shed_retry_after_ms: float = 100.0
    #: Crash-loop protection knobs (see ``PoolConfig`` for semantics).
    crash_loop_window: float = 10.0
    crash_loop_threshold: int = 5
    respawn_backoff_base: float = 0.25
    respawn_backoff_max: float = 10.0
    #: End-to-end request tracing (trace ids, worker span capture, the
    #: flight recorder).  Off, requests run exactly as before.
    trace: bool = True
    #: Deep-trace (capture the worker's span tree for) one request in
    #: ``trace_sample``; requests with explicit trace context
    #: (client-supplied ``trace_id``/``span_id``) or ``explain: true``
    #: always deep-trace.  0 disables sampling (explicit-only).  The
    #: server-side trace — marks, phase breakdown, latency histograms,
    #: flight-recorder entry — is kept for *every* request regardless;
    #: only the worker-side instrumentation + envelope is sampled, so
    #: the hot path stays within the tracing overhead budget.
    trace_sample: int = 16
    #: Flight-recorder ring sizes: last N traces / slowest M traces.
    recent_traces: int = 256
    slow_traces: int = 32

    def pool_config(self) -> PoolConfig:
        return PoolConfig(
            workers=self.workers,
            registry_capacity=self.registry_capacity,
            strict_registry=self.strict,
            max_rules=self.max_rules,
            saturation_max_rules=self.saturation_max_rules,
            snapshot_dir=self.snapshot_dir,
            allow_faults=self.allow_faults,
            drain_grace=self.drain_grace,
            crash_loop_window=self.crash_loop_window,
            crash_loop_threshold=self.crash_loop_threshold,
            respawn_backoff_base=self.respawn_backoff_base,
            respawn_backoff_max=self.respawn_backoff_max,
        )


@dataclass
class _Job:
    """One admitted unit of work awaiting its worker response."""

    job_id: str
    payload: dict
    theory_text: str
    future: asyncio.Future = field(repr=False)
    trace: Optional[RequestTrace] = None


class ReasoningServer:
    """The service: listeners + admission + dispatcher + worker pool."""

    def __init__(self, config: ServiceConfig) -> None:
        if config.strategy not in REQUESTABLE_STRATEGIES:
            raise ValueError(
                f"unknown strategy {config.strategy!r}; expected one of "
                f"{REQUESTABLE_STRATEGIES}"
            )
        self.config = config
        self.metrics = MetricsRegistry()
        self.recorder = FlightRecorder(config.recent_traces, config.slow_traces)
        self.pool = WorkerPool(config.pool_config())
        #: content hash -> rule text, for queries naming a theory by hash.
        self._texts: dict[str, str] = {}
        #: content hash -> compile summary (strategy, classes, advisor
        #: verdict), captured from register results for ``/debug/theories``.
        self._theories: dict[str, dict] = {}
        self._default_hash: Optional[str] = None
        if config.theory_text is not None:
            self._default_hash = content_hash(config.theory_text)
            self._texts[self._default_hash] = config.theory_text
        self._pending: list[_Job] = []
        self._in_flight: dict[str, _Job] = {}
        # Parsed and hashed once, before anything binds: a bad database
        # file fails the start, and no request pays for it again.
        default = parse_database(config.database_text)
        #: The live database of every theory no update has touched.
        self._default_db = _LiveDatabase(default.content_hash(), set(default))
        #: theory hash -> the authoritative live database of a theory
        #: some update touched, advanced by every successful update.
        self._live_dbs: dict[str, _LiveDatabase] = {}
        #: theory hash -> lock holding that theory's updates to one at a
        #: time, so each names the key its predecessor produced.
        self._update_locks: dict[str, asyncio.Lock] = {}
        #: theory hash -> worker id holding that theory's live models
        #: (sticky dispatch; falls back when the worker died).
        self._affinity: dict[str, int] = {}
        self._subscriptions: dict[int, _Subscription] = {}
        self._sub_ids = itertools.count(1)
        self._job_ids = itertools.count(1)
        self._trace_seq = itertools.count()
        self._dispatch_wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._servers: list[asyncio.base_events.Server] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def http_port(self) -> int:
        return (
            self.config.http_port
            if self.config.http_port is not None
            else self.config.port + 1
        )

    def bound_ports(self) -> tuple[int, int]:
        """The actually-bound (query, ops) ports — differs from the
        config when it asked for port 0 (tests bind ephemerally)."""
        if len(self._servers) != 2:
            raise RuntimeError("server not started")
        return tuple(
            server.sockets[0].getsockname()[1] for server in self._servers
        )

    async def start(self) -> None:
        """Bind both listeners, start the pool, warm the default theory."""
        self._loop = asyncio.get_running_loop()
        self._dispatch_wakeup = asyncio.Event()
        self.pool.start(
            self._on_worker_result,
            on_restart=self._on_worker_restart,
            on_event=self._on_pool_event,
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatch"
        )
        # Warm before binding: once the query plane answers at all, the
        # default theory is compiled on every worker — no request can
        # race the warm-up registers (a crash-injected query sharing a
        # warm-up batch would otherwise take the whole server down).
        if self.config.theory_text is not None:
            await self._warm_default_theory()
        query_server = await asyncio.start_server(
            self._handle_query_connection,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        ops_server = await asyncio.start_server(
            self._handle_http_connection,
            self.config.host,
            self.http_port,
            limit=64 * 1024,
        )
        self._servers = [query_server, ops_server]

    async def _warm_default_theory(self) -> None:
        """Broadcast a register job so every worker compiles the default
        theory before the first query lands."""
        assert self.config.theory_text is not None
        jobs = []
        for _ in range(self.config.workers):
            job = self._admit(
                {"kind": "register", "strategy": self.config.strategy,
                 "source": self.config.theory_source},
                self.config.theory_text,
                force=True,
            )
            jobs.append(job)
        # One register per worker: dispatch one batch at a time so the
        # least-loaded choice rotates across workers.
        for job in jobs:
            self.pool.dispatch(job.theory_text, [job.payload])
            self._in_flight[job.job_id] = job
            self._pending.remove(job)
        results = await asyncio.gather(*(job.future for job in jobs))
        for result in results:
            if not result.get("ok"):
                raise InternalError(
                    "default theory failed to compile: "
                    f"{result.get('error', {}).get('message', result)}"
                )

    async def run(self) -> None:
        """Start, install signal-driven drain, serve until drained."""
        try:
            await self.start()
        except Exception:
            # Startup failed after the pool was spawned (e.g. the default
            # theory's warm-up register came back as an error): reap the
            # workers before propagating so a failed boot leaves no
            # orphan processes behind.
            if self._dispatcher is not None:
                self._dispatcher.cancel()
            await asyncio.get_running_loop().run_in_executor(
                None, self.pool.stop
            )
            raise
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.drain())
                )
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        await self._drained.wait()

    async def drain(self) -> bool:
        """Graceful shutdown: shed new work, finish in-flight, stop all.

        Returns ``True`` when the pool drained cleanly within grace."""
        if self._draining:
            await self._drained.wait()
            return True
        self._draining = True
        deadline = time.monotonic() + self.config.drain_grace
        while (self._pending or self._in_flight) and time.monotonic() < deadline:
            if self._dispatch_wakeup is not None:
                self._dispatch_wakeup.set()
            await asyncio.sleep(0.05)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        loop = asyncio.get_running_loop()
        clean = await loop.run_in_executor(None, self.pool.stop)
        for job in list(self._in_flight.values()) + list(self._pending):
            if not job.future.done():
                job.future.set_result(
                    protocol.error_response(
                        protocol.ERR_DRAINING, "server shut down mid-request"
                    )
                )
        self._pending.clear()
        self._in_flight.clear()
        self._drained.set()
        return clean

    # ------------------------------------------------------------------
    # admission + dispatch
    # ------------------------------------------------------------------
    def _outstanding(self) -> int:
        return len(self._pending) + len(self._in_flight)

    def _admit(
        self,
        payload: dict,
        theory_text: str,
        *,
        force: bool = False,
        trace: Optional[RequestTrace] = None,
    ) -> _Job:
        """Assign a job id, enqueue, wake the dispatcher.

        ``force`` bypasses the cap (internal warm-up jobs only).  Raises
        nothing — admission *refusal* happens in the caller, which has
        the request id to shed with."""
        job_id = f"job-{next(self._job_ids)}"
        payload = dict(payload)
        payload["job_id"] = job_id
        if trace is not None and trace.deep:
            # The worker runs the job under instrumentation and ships its
            # span tree back in the result envelope (see pool.run_job).
            payload["trace"] = True
            payload["trace_id"] = trace.trace_id
            payload["span_id"] = trace.span_id
        assert self._loop is not None
        job = _Job(
            job_id=job_id,
            payload=payload,
            theory_text=theory_text,
            future=self._loop.create_future(),
            trace=trace,
        )
        self._pending.append(job)
        if trace is not None:
            trace.mark("admitted")
        if not force and self._dispatch_wakeup is not None:
            self._dispatch_wakeup.set()
        return job

    async def _dispatch_loop(self) -> None:
        """Sweep the pending list, group by theory hash, batch-dispatch."""
        assert self._dispatch_wakeup is not None
        while True:
            await self._dispatch_wakeup.wait()
            self._dispatch_wakeup.clear()
            if not self._pending:
                continue
            batch, self._pending = self._pending, []
            groups: dict[str, list[_Job]] = {}
            for job in batch:
                groups.setdefault(content_hash(job.theory_text), []).append(job)
            for digest, jobs in groups.items():
                self.metrics.inc("service.batches")
                self.metrics.inc("service.batched_jobs", len(jobs))
                for job in jobs:
                    self._in_flight[job.job_id] = job
                try:
                    worker_id = self.pool.dispatch(
                        jobs[0].theory_text,
                        [job.payload for job in jobs],
                        prefer=self._affinity.get(digest),
                    )
                except NoLiveWorkers as exc:
                    # Degraded-but-serving: with every worker dead (or
                    # crash-loop backoff holding respawns), shed with a
                    # hint that covers the backoff instead of erroring —
                    # a well-behaved client retries into a healed pool.
                    self.metrics.inc("service.shed.no_workers")
                    hint = self._retry_after_ms()
                    for job in jobs:
                        self._in_flight.pop(job.job_id, None)
                        if job.trace is not None:
                            job.trace.event("dispatch_failed", message=str(exc))
                        if not job.future.done():
                            job.future.set_result(
                                protocol.shed_response(
                                    protocol.ERR_OVERLOADED,
                                    f"no live workers ({exc}); back off and retry",
                                    retry_after_ms=hint,
                                )
                            )
                except RuntimeError as exc:  # dispatch failed some other way
                    for job in jobs:
                        self._in_flight.pop(job.job_id, None)
                        if job.trace is not None:
                            job.trace.event("dispatch_failed", message=str(exc))
                        if not job.future.done():
                            job.future.set_result(
                                protocol.error_response(
                                    protocol.ERR_INTERNAL, str(exc)
                                )
                            )
                else:
                    if any(
                        job.payload.get("kind") == "update" for job in jobs
                    ):
                        # The worker now holds this theory's live models;
                        # later updates/queries stick to it while alive.
                        self._affinity[digest] = worker_id
                    for job in jobs:
                        if job.trace is not None:
                            job.trace.mark("dispatched")
                            job.trace.set(worker=worker_id, batch_size=len(jobs))

    def _on_worker_result(self, job_id: str, payload: dict) -> None:
        """Pump-thread callback — marshal onto the loop."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._complete_job, job_id, payload)

    def _on_worker_restart(self, worker_id: int) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(
                self.metrics.inc, "service.worker_restarts"
            )

    def _on_pool_event(self, event: str, attrs: dict) -> None:
        """Pool-thread callback (monitor/pump) — marshal onto the loop.

        Every pool event becomes (a) a counter under its own name
        (``worker.crash_loop``, ``worker.crashed``, …) and (b) a flight-
        recorder service event, so ``repro tail`` shows *why* the pool
        degraded alongside the requests it degraded."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._record_pool_event, event, attrs)

    def _record_pool_event(self, event: str, attrs: dict) -> None:
        self.metrics.inc(event)
        self.recorder.note(event, **attrs)

    def _complete_job(self, job_id: str, payload: dict) -> None:
        job = self._in_flight.pop(job_id, None)
        if job is None or job.future.done():
            return
        self._fold_worker_stats(payload.get("stats"))
        error = payload.get("error")
        code = error.get("code") if isinstance(error, dict) else None
        if code == protocol.ERR_UNKNOWN_DB and "database" not in job.payload:
            self._resend_with_text(job)
            return
        if job.trace is not None:
            job.trace.mark("completed")
            if code == protocol.ERR_WORKER_CRASHED:
                job.trace.event(
                    "worker_crashed", message=error.get("message", "")
                )
        if (
            payload.get("ok")
            and job.payload.get("kind") == "register"
            and "theory" in payload
        ):
            # Register results spread CompiledTheory.describe(); keep the
            # summary (minus per-job stats) for the /debug/theories surface.
            summary = {
                key: value for key, value in payload.items()
                if key not in ("ok", "stats", "id")
            }
            self._theories[payload["theory"]] = summary
        job.future.set_result(payload)

    def _resend_with_text(self, job: _Job) -> None:
        """Answer a worker's ``unknown_db`` miss: queue the job once more,
        now carrying its theory's live database as text rendered now.

        The worker changed nothing before the miss, so a resent update
        is applied once.  The trace keeps its first ``dispatched`` mark
        and takes ``completed`` from the resend: one dispatch phase
        covers both trips."""
        live = self._live_for(content_hash(job.theory_text))
        payload = {key: value for key, value in job.payload.items()
                   if key != "db_key"}
        payload["database"] = live.render()
        job.payload = payload
        self.metrics.inc("service.db_resends")
        if job.trace is not None:
            job.trace.event("unknown_db")
        self._pending.append(job)
        assert self._dispatch_wakeup is not None
        self._dispatch_wakeup.set()

    def _fold_worker_stats(self, stats: Any) -> None:
        """Fold one worker job's statistics into ``service.worker.*``."""
        if not isinstance(stats, dict):
            return
        for key in _WORKER_STAT_KEYS:
            value = stats.get(key)
            if value:
                self.metrics.inc(f"service.worker.{key}", value)
        for key in _WORKER_GAUGE_KEYS:
            value = stats.get(key)
            if value is not None:
                self.metrics.gauge(f"service.worker.{key}", value)
        elapsed = stats.get("elapsed_ms")
        if elapsed is not None:
            # Histogram, not a series: constant memory under any
            # request volume (a series would grow per batch forever).
            self.metrics.observe_hist("service.worker.elapsed_ms", elapsed)

    # ------------------------------------------------------------------
    # query plane
    # ------------------------------------------------------------------
    async def _handle_query_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("service.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        protocol.encode(
                            protocol.error_response(
                                protocol.ERR_INVALID_REQUEST,
                                f"request line exceeds {protocol.MAX_LINE_BYTES}"
                                " bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._handle_request_line(line, writer)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            dead_subs = [
                sub_id
                for sub_id, sub in self._subscriptions.items()
                if sub.writer is writer
            ]
            for sub_id in dead_subs:
                del self._subscriptions[sub_id]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_request_line(
        self, line: bytes, writer: Optional[asyncio.StreamWriter] = None
    ) -> dict:
        self.metrics.inc("service.requests")
        try:
            request = protocol.decode(line)
        except ValueError as exc:
            self.metrics.inc("service.invalid")
            return protocol.error_response(
                protocol.ERR_INVALID_REQUEST, f"malformed request: {exc}"
            )
        request_id = request.get("id")
        complaint = protocol.validate_request(request)
        if complaint is not None:
            self.metrics.inc("service.invalid")
            return protocol.error_response(
                protocol.ERR_INVALID_REQUEST, complaint, request_id=request_id
            )
        op = request["op"]
        handler = getattr(self, f"_op_{op}")
        try:
            if op == "subscribe":
                # Subscriptions bind to the connection they arrived on.
                response = await handler(request, writer)
            else:
                response = await handler(request)
        except Exception as exc:  # noqa: BLE001 - no-traceback boundary
            self.metrics.inc("service.internal_errors")
            response = protocol.error_response(
                protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        response.setdefault("id", request_id)
        return response

    # -- ops ------------------------------------------------------------
    async def _op_ping(self, request: dict) -> dict:
        return {
            "ok": True,
            "pong": True,
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
        }

    async def _op_status(self, request: dict) -> dict:
        return {
            "ok": True,
            "version": __version__,
            "draining": self._draining,
            "queue": len(self._pending),
            "in_flight": len(self._in_flight),
            "queue_limit": self.config.queue_limit,
            "workers": {
                "configured": self.config.workers,
                "alive": self.pool.alive_workers(),
                "restarts": self.pool.restarts,
                "hard_kills": self.pool.hard_kills,
                "crash_loops": self.pool.crash_loops,
                "corrupt_envelopes": self.pool.corrupt_envelopes,
                "respawn_backoff_ms": self.pool.respawn_backoff_remaining_ms(),
            },
            "theories": len(self._texts),
            "live_databases": len(self._live_dbs),
            # Database texts workers parsed, and jobs resent with text
            # after a worker's unknown_db miss.
            "db_parses": self.metrics.counters.get("service.worker.db_parses", 0),
            "db_resends": self.metrics.counters.get("service.db_resends", 0),
            "subscriptions": len(self._subscriptions),
            "store": {
                "snapshot_dir": self.config.snapshot_dir,
                "bytes": self.metrics.gauges.get("service.worker.store_bytes", 0),
                "symbols": self.metrics.gauges.get(
                    "service.worker.store_symbols", 0
                ),
                "snapshot_loads": self.metrics.counters.get(
                    "service.worker.snapshot_loads", 0
                ),
                "snapshot_saves": self.metrics.counters.get(
                    "service.worker.snapshot_saves", 0
                ),
                "snapshot_errors": self.metrics.counters.get(
                    "service.worker.snapshot_errors", 0
                ),
            },
            "tracing": {
                "enabled": self.config.trace,
                "sample": self.config.trace_sample,
                "recorded": self.recorder.recorded,
                "held": len(self.recorder),
            },
            "counters": dict(self.metrics.counters),
        }

    def _retry_after_ms(self) -> float:
        """The backoff hint for shed responses: the configured baseline,
        stretched to cover the pool's respawn backoff when the shed is a
        crash-loop symptom — a client that honours the hint then retries
        *after* a replacement worker could exist, not into the same
        hole."""
        return max(
            self.config.shed_retry_after_ms,
            self.pool.respawn_backoff_remaining_ms(),
        )

    def _shed_or_none(self, request_id: Any) -> Optional[dict]:
        """The admission-control gate, shared by register and query."""
        if self._draining:
            self.metrics.inc("service.shed.draining")
            return protocol.shed_response(
                protocol.ERR_DRAINING,
                "server is draining; retry against another instance",
                request_id=request_id,
                retry_after_ms=self._retry_after_ms(),
            )
        if self._outstanding() >= self.config.queue_limit:
            self.metrics.inc("service.shed.overloaded")
            return protocol.shed_response(
                protocol.ERR_OVERLOADED,
                f"request queue full ({self.config.queue_limit} outstanding);"
                " back off and retry",
                request_id=request_id,
                retry_after_ms=self._retry_after_ms(),
            )
        return None

    def _begin_trace(
        self, op: str, request: dict, *, deep_default: bool = False
    ) -> Optional[RequestTrace]:
        """Open a trace and decide its depth.

        Every request gets the cheap server-side trace (marks, phase
        breakdown, histograms, a flight-recorder entry).  *Deep* traces
        additionally run the worker under instrumentation and ship its
        span tree back — that is the expensive half, so it is reserved
        for requests with explicit trace context (a client-supplied
        ``trace_id``/``span_id``), ``explain: true``, and a 1-in-
        ``trace_sample`` sample of the rest (see DESIGN.md §11.3)."""
        if not self.config.trace:
            return None
        trace = RequestTrace.begin(op, request)
        sample = self.config.trace_sample
        trace.deep = bool(
            deep_default
            or trace.client_supplied
            or trace.parent_span_id is not None
            or request.get("explain")
            or (sample > 0 and next(self._trace_seq) % sample == 0)
        )
        return trace

    def _finish_trace(
        self,
        trace: Optional[RequestTrace],
        response: dict,
        *,
        explain: bool = False,
    ) -> dict:
        """Finalise and record a trace; annotate (never mutate the shape
        of) the response.

        The worker's raw span envelope is popped off the response — it is
        server-side assembly material, not client payload — and the
        per-op / per-phase latency histograms are fed here, so the
        ``/metrics`` ladder covers exactly the traced requests."""
        if trace is None:
            return response
        envelope = response.pop("trace", None)
        if isinstance(envelope, dict):
            trace.attach_worker(envelope)
        error = response.get("error")
        if response.get("ok"):
            status = "ok" if response.get("complete", True) else "partial"
        elif isinstance(error, dict):
            kind = "shed" if response.get("shed") else "error"
            status = f"{kind}:{error.get('code', 'unknown')}"
        else:
            status = "error:unknown"
        trace.finish(status)
        self.recorder.record(trace)
        if trace.elapsed_ms is not None:
            self.metrics.observe_hist(
                f"service.request_ms.{trace.op}", trace.elapsed_ms
            )
        for phase, duration in trace.phases().items():
            self.metrics.observe_hist(f"service.phase_ms.{phase}", duration)
        response["trace_id"] = trace.trace_id
        if explain:
            response["trace"] = trace.to_json()
        return response

    async def _op_register(self, request: dict) -> dict:
        request_id = request.get("id")
        # Registers are rare and compile-dominated: always deep-trace.
        trace = self._begin_trace("register", request, deep_default=True)
        shed = self._shed_or_none(request_id)
        if shed is not None:
            return self._finish_trace(trace, shed)
        strategy = request.get("strategy", "auto")
        if strategy not in REQUESTABLE_STRATEGIES:
            return self._finish_trace(
                trace,
                protocol.error_response(
                    protocol.ERR_INVALID_REQUEST,
                    f"unknown strategy {strategy!r}; expected one of "
                    f"{REQUESTABLE_STRATEGIES}",
                    request_id=request_id,
                ),
            )
        text = request["theory"]
        self.metrics.inc("service.registrations")
        job = self._admit(
            {"kind": "register", "strategy": strategy, "source": "<register op>"},
            text,
            trace=trace,
        )
        result = await self._await_job(job, timeout=self.config.default_timeout)
        if result.get("ok"):
            self._texts[result["theory"]] = text
        return self._finish_trace(trace, result)

    async def _op_query(self, request: dict) -> dict:
        request_id = request.get("id")
        trace = self._begin_trace("query", request)
        explain = bool(request.get("explain"))
        shed = self._shed_or_none(request_id)
        if shed is not None:
            return self._finish_trace(trace, shed, explain=explain)
        theory_text = self._resolve_theory(request)
        if theory_text is None:
            return self._finish_trace(
                trace, _no_theory(request_id), explain=explain
            )
        payload = self._job(
            "query", request, content_hash(theory_text), output=request["output"]
        )
        if "inject" in request:
            payload["inject"] = request["inject"]
        if trace is not None:
            trace.set(output=request["output"])
        self.metrics.inc("service.queries")
        job = self._admit(payload, theory_text, trace=trace)
        result = await self._await_job(job, timeout=payload["timeout"])
        return self._finish_trace(trace, result, explain=explain)

    # -- incremental updates & subscriptions ---------------------------
    def _live_for(self, digest: str) -> _LiveDatabase:
        """A theory's live database: advanced by its updates, else the
        server default."""
        return self._live_dbs.get(digest, self._default_db)

    def _job(self, kind: str, request: dict, digest: str, **fields) -> dict:
        """The worker payload of a ``kind`` job: ``fields``, the
        request's strategy, timeout and budgets (the server's defaults
        where it names none), and its database.  That is the request's
        own ``database`` text when it carries one, else the theory's
        live database by key (a worker that holds nothing under the key
        gets the text in one resend)."""
        payload = {
            "kind": kind,
            "strategy": request.get("strategy", self.config.strategy),
            "timeout": request.get("timeout", self.config.default_timeout),
            "max_steps": request.get("max_steps", self.config.default_max_steps),
            "max_depth": request.get("max_depth"),
            **fields,
        }
        if "database" in request:
            payload["database"] = request["database"]
        else:
            payload["db_key"] = self._live_for(digest).db_key
        return payload

    def _advance_live(self, digest: str, request: dict, db_key: str) -> None:
        """Apply an acknowledged update to the server's copy of the
        theory's live database; a request's own ``database`` re-seeds
        it."""
        if "database" in request:
            live = _LiveDatabase(db_key, set(parse_database(request["database"])))
        else:
            live = self._live_dbs.get(digest) or self._default_db.copy()
        live.apply(request.get("insert", []), request.get("retract", []), db_key)
        self._live_dbs[digest] = live

    async def _op_update(self, request: dict) -> dict:
        request_id = request.get("id")
        trace = self._begin_trace("update", request)
        shed = self._shed_or_none(request_id)
        if shed is not None:
            return self._finish_trace(trace, shed)
        theory_text = self._resolve_theory(request)
        if theory_text is None:
            return self._finish_trace(trace, _no_theory(request_id))
        digest = content_hash(theory_text)
        async with self._update_locks.setdefault(digest, asyncio.Lock()):
            result = await self._apply_update(request, theory_text, digest, trace)
        return self._finish_trace(trace, result)

    async def _apply_update(
        self,
        request: dict,
        theory_text: str,
        digest: str,
        trace: Optional[RequestTrace],
    ) -> dict:
        """One update under its theory's update lock: no other update of
        the theory moves the live database between the key this job
        names and the batch reaching the server's copy."""
        payload = self._job(
            "update",
            request,
            digest,
            insert=request.get("insert", []),
            retract=request.get("retract", []),
        )
        self.metrics.inc("service.updates")
        job = self._admit(payload, theory_text, trace=trace)
        result = await self._await_job(job, timeout=payload["timeout"])
        if result.get("ok") and "db_key" in result:
            self._advance_live(digest, request, result["db_key"])
            await self._refresh_subscriptions(digest, result["db_key"])
        return result

    async def _op_subscribe(
        self, request: dict, writer: Optional[asyncio.StreamWriter]
    ) -> dict:
        request_id = request.get("id")
        trace = self._begin_trace("subscribe", request)
        shed = self._shed_or_none(request_id)
        if shed is not None:
            return self._finish_trace(trace, shed)
        if writer is None:
            return self._finish_trace(
                trace,
                protocol.error_response(
                    protocol.ERR_INVALID_REQUEST,
                    "subscribe needs a live query-plane connection to push to",
                    request_id=request_id,
                ),
            )
        theory_text = self._resolve_theory(request)
        if theory_text is None:
            return self._finish_trace(trace, _no_theory(request_id))
        digest = content_hash(theory_text)
        # A subscription's queries run under the server's default
        # budgets, whatever the subscribe request names.
        payload = self._job(
            "query",
            request,
            digest,
            output=request["output"],
            max_steps=self.config.default_max_steps,
            max_depth=None,
        )
        self.metrics.inc("service.subscriptions")
        job = self._admit(payload, theory_text, trace=trace)
        result = await self._await_job(job, timeout=payload["timeout"])
        if not result.get("ok"):
            return self._finish_trace(trace, result)
        sub_id = next(self._sub_ids)
        self._subscriptions[sub_id] = _Subscription(
            sub_id=sub_id,
            writer=writer,
            theory=digest,
            theory_text=theory_text,
            output=request["output"],
            answers=result.get("answers", []),
        )
        response = {
            "ok": True,
            "subscription": sub_id,
            "theory": digest,
            "output": request["output"],
            "answers": result.get("answers", []),
            "complete": result.get("complete", True),
        }
        return self._finish_trace(trace, response)

    async def _refresh_subscriptions(self, digest: str, db_key: str) -> None:
        """Re-evaluate every continuous query of an updated theory and
        push the answer diff to its connection.

        Refresh queries are internal work admitted past the cap
        (``force``) — an update that was admitted must be allowed to
        deliver its consequences.  Delivery is per-subscription ordered:
        this coroutine completes before the update response returns, so
        a subscriber always sees the diff for update *n* before any
        client that waited on update *n*'s response can issue a new one."""
        subs = [
            sub
            for sub in self._subscriptions.values()
            if sub.theory == digest
        ]
        if not subs:
            return
        for sub in subs:
            # The server's defaults throughout, on the live database
            # (already at ``db_key``).
            payload = self._job("query", {}, digest, output=sub.output)
            job = self._admit(payload, sub.theory_text, force=True)
            self._pending.remove(job)
            self._in_flight[job.job_id] = job
            try:
                self.pool.dispatch(
                    sub.theory_text,
                    [job.payload],
                    prefer=self._affinity.get(digest),
                )
            except (NoLiveWorkers, RuntimeError):
                self._in_flight.pop(job.job_id, None)
                continue
            result = await self._await_job(
                job, timeout=self.config.default_timeout
            )
            if not result.get("ok"):
                continue
            answers = result.get("answers", [])
            before = {tuple(answer) for answer in sub.answers}
            after = {tuple(answer) for answer in answers}
            added = sorted(list(answer) for answer in after - before)
            removed = sorted(list(answer) for answer in before - after)
            sub.answers = answers
            if not added and not removed:
                continue
            event = {
                "event": "subscription",
                "subscription": sub.sub_id,
                "theory": digest,
                "output": sub.output,
                "added": added,
                "removed": removed,
                "db_key": db_key,
            }
            try:
                sub.writer.write(protocol.encode(event))
                await sub.writer.drain()
                self.metrics.inc("service.subscription_pushes")
            except (ConnectionResetError, BrokenPipeError, OSError):
                self._subscriptions.pop(sub.sub_id, None)

    def _resolve_theory(self, request: dict) -> Optional[str]:
        if "theory_text" in request:
            return request["theory_text"]
        if "theory" in request:
            return self._texts.get(request["theory"])
        if self._default_hash is not None:
            return self._texts[self._default_hash]
        return None

    async def _await_job(self, job: _Job, *, timeout: Optional[float]) -> dict:
        """Wait for the worker's answer, bounded well past the worker's
        own governor + the pool's hard-kill watchdog — reaching this
        bound means the recovery machinery itself failed."""
        bound = None
        if timeout is not None:
            hard = self.pool.config
            bound = (
                float(timeout) * (hard.hard_kill_factor or 4.0)
                + hard.hard_kill_floor
                + 30.0
            )
        try:
            return await asyncio.wait_for(asyncio.shield(job.future), bound)
        except asyncio.TimeoutError:
            self._in_flight.pop(job.job_id, None)
            if job in self._pending:
                self._pending.remove(job)
            self.metrics.inc("service.lost_jobs")
            if job.trace is not None:
                job.trace.event("abandoned")
            return protocol.error_response(
                protocol.ERR_INTERNAL,
                "worker response overdue; job abandoned",
            )

    # ------------------------------------------------------------------
    # ops plane (healthz / metrics)
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        alive = self.pool.alive_workers()
        return {
            "ok": (not self._draining) and alive > 0,
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "draining": self._draining,
            "workers_alive": alive,
            "worker_pids": self.pool.worker_pids(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }

    #: ``# HELP`` text for the metrics a dashboard reaches for first.
    _METRIC_HELP = {
        "service.requests": "NDJSON requests received on the query plane.",
        "service.queries": "Query ops admitted past validation.",
        "service.updates": "Update ops (insert/retract batches) admitted.",
        "service.subscriptions": "Subscribe ops registered.",
        "service.subscription_pushes": (
            "Subscription diff events pushed to connections."
        ),
        "service.request_ms.update": "End-to-end update latency histogram.",
        "service.worker.updates": (
            "Registry-level live-model updates applied by workers."
        ),
        "service.worker.incremental_updates": (
            "Incremental maintenance batches applied (repro.incremental)."
        ),
        "service.worker.incremental_overdeleted": (
            "Facts a retraction's Backward/Forward proof search examined."
        ),
        "service.worker.incremental_rederived": (
            "Examined facts the proof search kept (still proved)."
        ),
        "service.worker.incremental_fallbacks": (
            "Updates that fell back to a reported full recompute."
        ),
        "service.worker.elapsed_ms": "Worker-side job latency histogram.",
        "service.worker.db_parses": (
            "Database texts parsed by workers (0 per job named by key)."
        ),
        "service.db_resends": (
            "Jobs resent with database text after an unknown_db miss."
        ),
        "service.worker.advisor_predicted_chase": (
            "Registrations auto-routed to the chase by a termination proof."
        ),
        "service.worker.advisor_fallbacks": (
            "Registrations that fell back to the budgeted chase reactively."
        ),
        "service.worker.materializations": (
            "Full materialization computations (chase or fixpoint runs)."
        ),
        "service.worker.snapshot_loads": (
            "Models read from snapshot files."
        ),
        "service.worker.snapshot_saves": (
            "Complete materializations persisted as snapshots."
        ),
        "service.worker.snapshot_errors": (
            "Snapshot files rejected (corrupt/truncated/mismatched)."
        ),
        "service.worker.store_bytes": (
            "Resident bytes of the columnar models workers hold (gauge)."
        ),
        "service.worker.store_symbols": (
            "Interned symbols across the models workers hold (gauge)."
        ),
        "service.request_ms.query": "End-to-end query latency histogram.",
        "service.request_ms.register": "End-to-end register latency histogram.",
        "service.queue_depth": "Jobs admitted but not yet dispatched.",
        "service.in_flight": "Jobs currently on a worker.",
        "service.workers_alive": "Live worker processes.",
        "service.worker_restarts_total": "Worker respawns since start.",
        "service.uptime_seconds": "Seconds since server start.",
        "pool.respawn_backoff_ms": (
            "Current crash-loop respawn backoff (0 when healthy)."
        ),
        "pool.crash_loops_total": "Respawns deferred by crash-loop backoff.",
        "pool.corrupt_envelopes_total": (
            "Worker result envelopes rejected as malformed."
        ),
        "worker.crash_loop": "Crash-loop backoff activations.",
    }

    def render_metrics(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the server
        registry: counters, gauges, latency histograms with the full
        ``_bucket``/``_sum``/``_count`` ladder, plus point-in-time
        operational gauges.  Validated by
        :func:`repro.obs.prometheus.validate_exposition` in CI."""
        return render_exposition(
            self.metrics,
            help_texts=self._METRIC_HELP,
            extra_gauges={
                "service.queue_depth": len(self._pending),
                "service.in_flight": len(self._in_flight),
                "service.workers_alive": self.pool.alive_workers(),
                "service.worker_restarts_total": self.pool.restarts,
                "service.uptime_seconds": round(
                    time.monotonic() - self._started_at, 3
                ),
                "pool.respawn_backoff_ms": (
                    self.pool.respawn_backoff_remaining_ms()
                ),
                "pool.crash_loops_total": self.pool.crash_loops,
                "pool.corrupt_envelopes_total": self.pool.corrupt_envelopes,
            },
        )

    def debug_requests(self) -> dict:
        """``GET /debug/requests``: recent + slowest trace summaries."""
        return {
            "tracing": self.config.trace,
            "recorded": self.recorder.recorded,
            "recent": [trace.to_summary() for trace in self.recorder.recent()],
            "slowest": [trace.to_summary() for trace in self.recorder.slowest()],
            "events": self.recorder.events(),
        }

    def debug_theories(self) -> dict:
        """``GET /debug/theories``: compile summaries per registered
        theory — the strategy the registry picked and the advisor's
        reasoning (criterion, engine verdicts, cost estimate)."""
        return {
            "registered": len(self._texts),
            "theories": [
                self._theories[digest]
                for digest in sorted(self._theories)
            ],
        }

    async def _handle_http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1", "replace").split()
            # Drain headers (we route on the request line alone).
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            if len(parts) >= 2 and parts[0] == "GET":
                path = parts[1].split("?", 1)[0]
            else:
                path = None
            if path == "/healthz":
                body = json.dumps(self.healthz(), sort_keys=True).encode()
                self._http_respond(writer, 200, "application/json", body)
            elif path == "/metrics":
                body = self.render_metrics().encode()
                self._http_respond(
                    writer, 200, "text/plain; version=0.0.4", body
                )
            elif path == "/debug/requests":
                body = json.dumps(self.debug_requests(), sort_keys=True).encode()
                self._http_respond(writer, 200, "application/json", body)
            elif path == "/debug/theories":
                body = json.dumps(self.debug_theories(), sort_keys=True).encode()
                self._http_respond(writer, 200, "application/json", body)
            elif path is not None and path.startswith("/debug/requests/"):
                trace_id = path[len("/debug/requests/"):]
                trace = self.recorder.lookup(trace_id)
                if trace is None:
                    self._http_respond(
                        writer,
                        404,
                        "application/json",
                        json.dumps(
                            {"error": "trace not found (evicted or unknown)",
                             "trace_id": trace_id}
                        ).encode(),
                    )
                else:
                    body = json.dumps(trace.to_json(), sort_keys=True).encode()
                    self._http_respond(writer, 200, "application/json", body)
            else:
                self._http_respond(
                    writer,
                    404,
                    "text/plain",
                    b"not found: try /healthz, /metrics, /debug/requests "
                    b"or /debug/theories\n",
                )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError, ValueError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    @staticmethod
    def _http_respond(
        writer: asyncio.StreamWriter, status: int, content_type: str, body: bytes
    ) -> None:
        reason = {200: "OK", 404: "Not Found"}.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )


async def serve(config: ServiceConfig) -> None:
    """Run a :class:`ReasoningServer` until it drains (the CLI entry)."""
    server = ReasoningServer(config)
    await server.run()
