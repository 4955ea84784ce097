"""Worker-pool tests (repro.service.pool): batching warmth, structured
errors, fault-injected crash recovery, and the drain contract.

Pool workers are real spawn-started processes, so these tests carry a
process-startup cost; they share a module-scoped pool where the
scenario allows it and keep worker counts minimal.
"""

import threading
import time

import pytest

from repro.service.pool import NoLiveWorkers, PoolConfig, WorkerPool, run_job
from repro.service.registry import TheoryRegistry

TC = "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)"
DB = "E(a,b). E(b,c)."
LOOPING = (
    "P(x) -> exists y. E2(x,y)\n"
    "E2(x,y) -> exists z. E2(y,z)\n"
    "E2(x,y), E2(u,v) -> H(y,v)\n"
    "H(y,v) -> Q(y)"
)
#: Lifts the default 100,000-step chase budget on LOOPING jobs so that
#: only their deadline stops them: the restricted chase reaches 100,000
#: steps of LOOPING in about 0.2 s.
UNBOUNDED_STEPS = 10**9


class Collector:
    """Thread-safe result sink for pool callbacks."""

    def __init__(self):
        self.results = {}
        self._events = {}
        self._lock = threading.Lock()

    def expect(self, *job_ids):
        with self._lock:
            for job_id in job_ids:
                self._events[job_id] = threading.Event()

    def __call__(self, job_id, payload):
        with self._lock:
            self.results[job_id] = payload
            event = self._events.get(job_id)
        if event is not None:
            event.set()

    def wait(self, job_id, timeout=60.0):
        assert self._events[job_id].wait(timeout), f"no result for {job_id}"
        return self.results[job_id]


class TestRunJob:
    """The worker's job executor, run in-process (no child needed)."""

    def setup_method(self):
        self.registry = TheoryRegistry(capacity=8)

    def run(self, job, allow_faults=False):
        return run_job(self.registry, job, allow_faults=allow_faults)

    def test_query_answers(self):
        result = self.run(
            {"job_id": "j", "kind": "query", "theory": TC, "output": "T",
             "database": DB}
        )
        assert result["ok"]
        assert result["answers"] == [["a", "b"], ["a", "c"], ["b", "c"]]
        assert result["strategy"] == "datalog"
        assert result["stats"]["registry_misses"] == 1

    def test_second_query_hits_registry(self):
        job = {"job_id": "j", "kind": "query", "theory": TC, "output": "T",
               "database": DB}
        self.run(dict(job))
        result = self.run(dict(job))
        assert result["stats"]["registry_hits"] == 1
        assert result["stats"]["registry_misses"] == 0

    def test_register_describes_theory(self):
        result = self.run({"job_id": "j", "kind": "register", "theory": TC})
        assert result["ok"]
        assert result["strategy"] == "datalog"
        assert "datalog" in result["classes"]
        assert result["plans_compiled"] > 0

    def test_parse_error_is_structured(self):
        result = self.run(
            {"job_id": "j", "kind": "query", "theory": "E(x,y -> ", "output": "T",
             "database": ""}
        )
        assert not result["ok"]
        assert result["error"]["code"] == "parse_error"

    def test_unknown_output_is_invalid_request(self):
        result = self.run(
            {"job_id": "j", "kind": "query", "theory": TC, "output": "Nope",
             "database": DB}
        )
        assert not result["ok"]
        assert result["error"]["code"] == "invalid_request"

    def test_timeout_is_exhaustion_not_failure(self):
        result = self.run(
            {"job_id": "j", "kind": "query", "theory": LOOPING, "output": "Q",
             "database": "P(a).", "timeout": 0.2, "strategy": "chase",
             "max_steps": UNBOUNDED_STEPS}
        )
        assert result["ok"]
        assert result["complete"] is False
        assert result["exhausted"] == "deadline"

    def test_fault_rejected_without_flag(self):
        result = self.run(
            {"job_id": "j", "kind": "query", "theory": TC, "output": "T",
             "database": DB, "inject": "crash"}
        )
        assert not result["ok"]
        assert result["error"]["code"] == "invalid_request"

    def test_unknown_strategy_rejected(self):
        result = self.run(
            {"job_id": "j", "kind": "query", "theory": TC, "output": "T",
             "database": DB, "strategy": "quantum"}
        )
        assert not result["ok"]
        assert result["error"]["code"] == "invalid_request"


@pytest.fixture(scope="module")
def pool_and_collector():
    collector = Collector()
    pool = WorkerPool(
        PoolConfig(workers=2, allow_faults=True, health_interval=0.1)
    )
    pool.start(collector)
    yield pool, collector
    pool.stop()


class TestWorkerPool:
    def test_batch_shares_one_registration(self, pool_and_collector):
        pool, collector = pool_and_collector
        jobs = [
            {"job_id": f"batch-{i}", "kind": "query", "output": "T",
             "database": DB, "timeout": 30.0}
            for i in range(3)
        ]
        collector.expect(*(job["job_id"] for job in jobs))
        pool.dispatch(TC, jobs)
        results = [collector.wait(job["job_id"]) for job in jobs]
        assert all(r["ok"] for r in results)
        assert all(
            r["answers"] == [["a", "b"], ["a", "c"], ["b", "c"]] for r in results
        )
        # The whole batch lands on one worker: exactly one compile,
        # the rest are registry hits.
        assert sum(r["stats"]["registry_misses"] for r in results) == 1
        assert sum(r["stats"]["registry_hits"] for r in results) == 2

    def test_crash_recovery(self, pool_and_collector):
        pool, collector = pool_and_collector
        restarts_before = pool.restarts
        collector.expect("crash-job")
        pool.dispatch(
            TC,
            [{"job_id": "crash-job", "kind": "query", "output": "T",
              "database": DB, "inject": "crash", "timeout": 30.0}],
        )
        result = collector.wait("crash-job")
        assert not result["ok"]
        assert result["error"]["code"] == "worker_crashed"
        assert "traceback" not in str(result).lower()

        deadline = time.monotonic() + 30
        while pool.alive_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.alive_workers() == 2
        assert pool.restarts == restarts_before + 1

        collector.expect("after-crash")
        pool.dispatch(
            TC,
            [{"job_id": "after-crash", "kind": "query", "output": "T",
              "database": DB, "timeout": 30.0}],
        )
        assert collector.wait("after-crash")["ok"]

    def test_worker_pids_are_live(self, pool_and_collector):
        pool, _ = pool_and_collector
        pids = pool.worker_pids()
        assert len(pids) == pool.alive_workers()
        assert all(isinstance(pid, int) for pid in pids)


class TestDrain:
    def test_clean_drain_leaves_no_workers(self):
        collector = Collector()
        pool = WorkerPool(PoolConfig(workers=2, health_interval=0.1))
        pool.start(collector)
        collector.expect("final")
        pool.dispatch(
            TC,
            [{"job_id": "final", "kind": "query", "output": "T",
              "database": DB, "timeout": 30.0}],
        )
        assert collector.wait("final")["ok"]
        assert pool.stop() is True
        assert pool.alive_workers() == 0

    def test_drain_without_work_is_clean(self):
        pool = WorkerPool(PoolConfig(workers=1, health_interval=0.1))
        pool.start(lambda job_id, payload: None)
        assert pool.stop() is True
        assert pool.alive_workers() == 0


class TestWorkerFaults:
    """The ``--allow-faults`` action vocabulary beyond ``crash``."""

    def test_slow_fault_delays_then_answers(self, pool_and_collector):
        pool, collector = pool_and_collector
        collector.expect("slow-job")
        pool.dispatch(
            TC,
            [{"job_id": "slow-job", "kind": "query", "output": "T",
              "database": DB, "inject": "slow:150", "timeout": 30.0}],
        )
        result = collector.wait("slow-job")
        assert result["ok"]
        assert result["answers"] == [["a", "b"], ["a", "c"], ["b", "c"]]
        assert result["stats"]["elapsed_ms"] >= 150.0

    def test_corrupt_envelope_poisons_the_channel(self, pool_and_collector):
        pool, collector = pool_and_collector
        corrupt_before = pool.corrupt_envelopes
        collector.expect("corrupt-job")
        pool.dispatch(
            TC,
            [{"job_id": "corrupt-job", "kind": "query", "output": "T",
              "database": DB, "inject": "corrupt_envelope", "timeout": 30.0}],
        )
        # The malformed queue item must cost the worker its life and the
        # job a structured failure — never a hang, never a traceback.
        result = collector.wait("corrupt-job")
        assert not result["ok"]
        assert result["error"]["code"] == "worker_crashed"
        assert pool.corrupt_envelopes == corrupt_before + 1

        deadline = time.monotonic() + 30
        while pool.alive_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.alive_workers() == 2

        collector.expect("after-corrupt")
        pool.dispatch(
            TC,
            [{"job_id": "after-corrupt", "kind": "query", "output": "T",
              "database": DB, "timeout": 30.0}],
        )
        assert collector.wait("after-corrupt")["ok"]


class TestCrashLoopBackoff:
    def test_backoff_engages_and_pool_keeps_serving(self):
        collector = Collector()
        events = []
        event_lock = threading.Lock()

        def on_event(event, attrs):
            with event_lock:
                events.append(event)

        pool = WorkerPool(
            PoolConfig(
                workers=1, allow_faults=True, health_interval=0.05,
                crash_loop_window=60.0, crash_loop_threshold=1,
                respawn_backoff_base=0.3, respawn_backoff_max=2.0,
            )
        )
        pool.start(collector, on_event=on_event)
        try:
            assert pool.respawn_backoff_remaining_ms() == 0.0
            for round_index in range(2):
                job_id = f"loop-{round_index}"
                deadline = time.monotonic() + 30
                while pool.alive_workers() < 1 and time.monotonic() < deadline:
                    time.sleep(0.05)
                collector.expect(job_id)
                pool.dispatch(
                    TC,
                    [{"job_id": job_id, "kind": "query", "output": "T",
                      "database": DB, "inject": "crash", "timeout": 30.0}],
                )
                result = collector.wait(job_id)
                assert result["error"]["code"] == "worker_crashed"

            # Threshold 1 with two crashes in the window: backoff must
            # have engaged, visibly (counter, gauge, typed event).
            deadline = time.monotonic() + 30
            while pool.crash_loops < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.crash_loops >= 1
            assert pool.respawn_backoff_ms > 0.0

            # Degraded-but-serving: the pool comes back and answers.
            deadline = time.monotonic() + 30
            while pool.alive_workers() < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.alive_workers() == 1
            collector.expect("after-loop")
            pool.dispatch(
                TC,
                [{"job_id": "after-loop", "kind": "query", "output": "T",
                  "database": DB, "timeout": 30.0}],
            )
            assert collector.wait("after-loop")["ok"]
            with event_lock:
                seen = set(events)
            assert "worker.crashed" in seen
            assert "worker.crash_loop" in seen
            assert "worker.respawned" in seen
        finally:
            pool.stop()

    def test_dispatch_with_no_live_workers_raises_typed(self):
        collector = Collector()
        # A long health interval keeps the monitor from respawning inside
        # the assertion window, so the all-dead state is observable.
        pool = WorkerPool(
            PoolConfig(workers=1, allow_faults=True, health_interval=2.0)
        )
        pool.start(collector)
        try:
            collector.expect("kill")
            pool.dispatch(
                TC,
                [{"job_id": "kill", "kind": "query", "output": "T",
                  "database": DB, "inject": "crash", "timeout": 30.0}],
            )
            deadline = time.monotonic() + 30
            while pool.alive_workers() > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool.alive_workers() == 0
            with pytest.raises(NoLiveWorkers):
                pool.dispatch(
                    TC,
                    [{"job_id": "orphan", "kind": "query", "output": "T",
                      "database": DB, "timeout": 30.0}],
                )
            # The crashed job still resolves at the next health sweep.
            assert collector.wait("kill")["error"]["code"] == "worker_crashed"
        finally:
            pool.stop()


class FlakySpawnPool(WorkerPool):
    """Fails the next ``spawn_failures`` spawn attempts; records the
    value of ``restarts`` observed at the entry of every attempt."""

    def __init__(self, config):
        super().__init__(config)
        self.spawn_failures = 0
        self.spawn_attempts = 0
        self.restarts_at_spawn = []

    def _spawn_worker(self):
        self.spawn_attempts += 1
        self.restarts_at_spawn.append(self.restarts)
        if self.spawn_failures > 0:
            self.spawn_failures -= 1
            raise RuntimeError("injected spawn failure")
        return super()._spawn_worker()


class TestRespawnAccounting:
    def test_restart_counted_only_after_replacement_is_alive(self):
        """Regression: a failed respawn must not bump ``restarts`` or
        fire ``on_restart`` — both fire only once the replacement
        process is confirmed alive, so health accounting never reports
        a recovery that did not happen."""
        collector = Collector()
        restart_log = []
        pool = FlakySpawnPool(
            PoolConfig(workers=1, allow_faults=True, health_interval=0.05)
        )
        pool.start(collector, on_restart=restart_log.append)
        try:
            pool.spawn_failures = 1
            collector.expect("acct")
            pool.dispatch(
                TC,
                [{"job_id": "acct", "kind": "query", "output": "T",
                  "database": DB, "inject": "crash", "timeout": 30.0}],
            )
            assert collector.wait("acct")["error"]["code"] == "worker_crashed"

            deadline = time.monotonic() + 30
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.restarts == 1
            assert restart_log == [1]  # worker 0 died; worker 1 replaced it
            # Attempt 1: initial start.  Attempt 2: the injected failure
            # — restarts must still read 0 there.  Attempt 3: success.
            assert pool.spawn_attempts == 3
            assert pool.restarts_at_spawn == [0, 0, 0]

            collector.expect("after-acct")
            pool.dispatch(
                TC,
                [{"job_id": "after-acct", "kind": "query", "output": "T",
                  "database": DB, "timeout": 30.0}],
            )
            assert collector.wait("after-acct")["ok"]
        finally:
            pool.stop()
