"""Out-of-process contract of ``repro serve`` (the CI smoke in miniature).

Starts the real console entry point as a subprocess against the shipped
example ontology, drives it with the blocking client, scrapes the ops
plane, and asserts the SIGTERM contract: exit code 0, no orphaned
worker processes.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient, http_get, wait_until_ready

REPO = Path(__file__).resolve().parent.parent
LOOPING = (
    "P(x) -> exists y. E2(x,y)\n"
    "E2(x,y) -> exists z. E2(y,z)\n"
    "E2(x,y), E2(u,v) -> H(y,v)\n"
    "H(y,v) -> Q(y)"
)
#: Lifts the server's default 100,000-step chase budget on LOOPING
#: queries so that only their deadline stops them: the restricted chase
#: reaches 100,000 steps of LOOPING in about 0.2 s.
UNBOUNDED_STEPS = 10**9


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(scope="module")
def served():
    port = free_port()
    http_port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "examples/publication.rules", "--data", "examples/publication.db",
            "--strategy", "chase", "--workers", "2",
            "--port", str(port), "--http-port", str(http_port),
        ],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        wait_until_ready("127.0.0.1", port, timeout=60)
        yield proc, port, http_port
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_serve_end_to_end(served):
    proc, port, http_port = served

    with ServiceClient("127.0.0.1", port) as client:
        pong = client.ping()
        assert pong["ok"] and pong["version"]

        answer = client.query("Q", request_id="smoke")
        assert answer["ok"] and answer["id"] == "smoke"
        assert answer["answers"] == [["a1"], ["a2"]]

        again = client.query("Q")
        assert again["stats"]["registry_hits"] == 1

        exhausted = client.query(
            "Q",
            theory_text=LOOPING,
            database="P(a).",
            timeout=0.2,
            max_steps=UNBOUNDED_STEPS,
            strategy="chase",
        )
        # A per-request deadline is an Outcome-style partial, not an error.
        assert exhausted["ok"]
        assert exhausted["complete"] is False
        assert exhausted["exhausted"] == "deadline"

    status, body = http_get("127.0.0.1", http_port, "/healthz")
    assert status == 200
    assert '"ok": true' in body or '"ok":true' in body.replace(" ", "")

    status, body = http_get("127.0.0.1", http_port, "/metrics")
    assert status == 200
    assert "repro_service_queries" in body
    assert "repro_service_worker_registry_hits" in body

    # SIGTERM drain: exit 0, workers reaped.
    import json

    health = json.loads(http_get("127.0.0.1", http_port, "/healthz")[1])
    worker_pids = health["worker_pids"]
    assert len(worker_pids) == 2

    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        orphans = []
        for pid in worker_pids:
            try:
                os.kill(pid, 0)
                orphans.append(pid)
            except ProcessLookupError:
                pass
        if not orphans:
            break
        time.sleep(0.1)
    assert not orphans, f"orphaned worker processes: {orphans}"

    stderr = proc.stderr.read().decode()
    assert "drained cleanly" in stderr


def test_version_flag():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--version"],
        cwd=REPO,
        env=dict(
            os.environ,
            PYTHONPATH=str(REPO / "src") + os.pathsep
            + os.environ.get("PYTHONPATH", ""),
        ),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("repro ")
    version = result.stdout.split()[1]
    assert version[0].isdigit()


def _spawn_serve(*extra_args: str):
    """A fresh ``repro serve`` subprocess on ephemeral ports, ready."""
    port = free_port()
    http_port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "examples/publication.rules", "--data", "examples/publication.db",
            "--strategy", "chase", "--workers", "2",
            "--port", str(port), "--http-port", str(http_port),
            *extra_args,
        ],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    wait_until_ready("127.0.0.1", port, timeout=60)
    return proc, port, http_port


def _assert_drained(proc, worker_pids):
    assert proc.wait(timeout=60) == 0
    deadline = time.monotonic() + 10
    orphans = list(worker_pids)
    while orphans and time.monotonic() < deadline:
        alive = []
        for pid in orphans:
            try:
                os.kill(pid, 0)
                alive.append(pid)
            except ProcessLookupError:
                pass
        orphans = alive
        time.sleep(0.1)
    assert not orphans, f"orphaned worker processes: {orphans}"


def test_sigterm_drain_completes_in_flight_work():
    """SIGTERM with a register and a slow query in flight: both requests
    must still get their answers (ok, never a shed or a dropped
    connection), then exit 0 with no orphans."""
    import json as json_mod
    import threading

    proc, port, http_port = _spawn_serve()
    try:
        health = json_mod.loads(http_get("127.0.0.1", http_port, "/healthz")[1])
        worker_pids = health["worker_pids"]

        # A chase query on LOOPING with a 1.5s budget keeps a worker
        # genuinely busy across the SIGTERM, so the drain provably waits.
        results = {}

        def slow_query():
            with ServiceClient("127.0.0.1", port, timeout=120) as client:
                results["query"] = client.query(
                    "Q", theory_text=LOOPING, database="P(a).",
                    timeout=1.5, max_steps=UNBOUNDED_STEPS, strategy="chase",
                    request_id="drain-q",
                )

        def register():
            with ServiceClient("127.0.0.1", port, timeout=120) as client:
                results["register"] = client.register(
                    LOOPING, strategy="chase", request_id="drain-r",
                )

        threads = [
            threading.Thread(target=slow_query),
            threading.Thread(target=register),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.4)  # both requests admitted, query mid-chase
        proc.send_signal(signal.SIGTERM)
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        assert results["query"]["ok"], results["query"]
        assert results["query"]["exhausted"] == "deadline"
        assert results["register"]["ok"], results["register"]
        _assert_drained(proc, worker_pids)
        stderr = proc.stderr.read().decode()
        assert "drained cleanly" in stderr
        assert "Traceback" not in stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_service_resumes_after_worker_crash():
    """An injected worker crash fails its own request with a structured
    ``worker_crashed`` — and the server keeps serving: the pool respawns
    and the very next query on a fresh connection succeeds."""
    import json as json_mod

    proc, port, http_port = _spawn_serve("--allow-faults")
    try:
        with ServiceClient("127.0.0.1", port, timeout=120) as client:
            crashed = client.query("Q", inject="crash", request_id="boom")
            assert crashed["ok"] is False
            assert crashed["error"]["code"] == "worker_crashed"
            assert "Traceback" not in crashed["error"]["message"]

        deadline = time.monotonic() + 30
        workers = 0
        while time.monotonic() < deadline:
            health = json_mod.loads(
                http_get("127.0.0.1", http_port, "/healthz")[1]
            )
            workers = len(health["worker_pids"])
            if workers == 2:
                break
            time.sleep(0.1)
        assert workers == 2, f"pool did not respawn: {workers} live"

        with ServiceClient("127.0.0.1", port, timeout=120) as client:
            answer = client.query("Q", request_id="after-boom")
            assert answer["ok"] and answer["answers"] == [["a1"], ["a2"]]
            status = client.status()
            assert status["workers"]["restarts"] >= 1

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_update_and_subscribe_end_to_end(tmp_path):
    """The live-update loop out of process: serve → subscribe → update
    (insert, then retract) → the subscriber sees ordered diffs → queries
    reflect the delta → the ``repro update`` CLI works against the same
    server → SIGTERM drains cleanly."""
    import json as json_mod

    (tmp_path / "t.rules").write_text(
        "e(x,y) -> t(x,y)\ne(x,y), t(y,z) -> t(x,z)\n"
    )
    (tmp_path / "d.db").write_text("e(a, b). e(b, c).\n")
    port = free_port()
    http_port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            str(tmp_path / "t.rules"), "--data", str(tmp_path / "d.db"),
            "--workers", "1",
            "--port", str(port), "--http-port", str(http_port),
        ],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        wait_until_ready("127.0.0.1", port, timeout=60)
        with ServiceClient("127.0.0.1", port) as sub, \
                ServiceClient("127.0.0.1", port) as client:
            ack = sub.subscribe("t")
            assert ack["ok"]
            assert ack["answers"] == [["a", "b"], ["a", "c"], ["b", "c"]]

            updated = client.update(insert=["e(c, d)"])
            assert updated["ok"] and updated["update"]["mode"] == "counting"
            assert updated["db_key"] != updated["old_db_key"]

            event = sub.next_event(timeout=30)
            assert event["event"] == "subscription"
            assert event["added"] == [["a", "d"], ["b", "d"], ["c", "d"]]
            assert event["removed"] == []

            answer = client.query("t")
            assert ["c", "d"] in answer["answers"]
            assert answer["stats"]["materializations"] == 0

            retracted = client.update(retract=["e(a, b)"])
            assert retracted["ok"]
            event = sub.next_event(timeout=30)
            assert event["removed"] == [["a", "b"], ["a", "c"], ["a", "d"]]

            answer = client.query("t")
            assert answer["answers"] == [["b", "c"], ["b", "d"], ["c", "d"]]

        # The CLI against the live server.
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "update",
                f"127.0.0.1:{port}", "--insert", "e(d, e)",
            ],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, (result.stdout, result.stderr)
        payload = json_mod.loads(result.stdout)
        assert payload["update"]["inserted"] == 1

        status, body = http_get("127.0.0.1", http_port, "/metrics")
        assert status == 200
        assert "repro_service_updates" in body
        assert "repro_service_subscription_pushes" in body
        assert "repro_service_worker_incremental_updates" in body

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        stderr = proc.stderr.read().decode()
        assert "drained cleanly" in stderr
        assert "Traceback" not in stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
