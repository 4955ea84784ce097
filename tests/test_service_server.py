"""In-process server tests (repro.service.server): the NDJSON query
plane, admission control (overload + drain shedding), the ops plane
(healthz/metrics), and response ordering.

Each scenario runs a real :class:`ReasoningServer` on ephemeral ports
inside ``asyncio.run`` and talks raw protocol frames through
``asyncio.open_connection`` — no mocks anywhere, but also no
subprocesses beyond the pool's own workers (see ``test_service_e2e``
for the out-of-process CLI contract).
"""

import asyncio
import json


from repro.service import protocol
from repro.service.server import ReasoningServer, ServiceConfig

TC = "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)"
DB = "E(a,b). E(b,c)."
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
T_ANSWERS = [["a", "b"], ["a", "c"], ["b", "c"]]


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


async def started_server(**overrides) -> ReasoningServer:
    defaults = dict(
        host="127.0.0.1", port=0, http_port=0, workers=1, drain_grace=5.0
    )
    defaults.update(overrides)
    server = ReasoningServer(ServiceConfig(**defaults))
    await server.start()
    return server


async def roundtrip(port: int, *requests: dict) -> list[dict]:
    """One connection, the requests in order, the responses in order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for request in requests:
            writer.write(protocol.encode(request))
            await writer.drain()
            line = await reader.readline()
            assert line, "server closed connection mid-exchange"
            responses.append(protocol.decode(line))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


async def http_get(port: int, path: str) -> tuple[int, str]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode()


class TestQueryPlane:
    def test_ping_query_register_status(self):
        async def scenario():
            server = await started_server(
                theory_text=TC, database_text=DB
            )
            try:
                port, _ = server.bound_ports()
                pong, = await roundtrip(port, {"op": "ping", "id": 7})
                assert pong["ok"] and pong["pong"] and pong["id"] == 7
                assert "version" in pong

                # Default theory + default database.
                first, second = await roundtrip(
                    port,
                    {"op": "query", "output": "T", "id": "a"},
                    {"op": "query", "output": "T", "id": "b"},
                )
                assert first["answers"] == T_ANSWERS
                assert second["answers"] == T_ANSWERS
                assert first["id"] == "a" and second["id"] == "b"
                # Warmth: the default theory was registered at startup,
                # so even the first query is a registry hit.
                assert first["stats"]["registry_misses"] == 0
                assert first["stats"]["registry_hits"] == 1

                # Register a second theory, query it by content hash.
                reg, = await roundtrip(
                    port, {"op": "register", "theory": LOOPING}
                )
                assert reg["ok"] and reg["strategy"]
                by_hash, = await roundtrip(
                    port,
                    {"op": "query", "output": "Q", "theory": reg["theory"],
                     "database": "P(a).", "timeout": 0.2,
                     "max_steps": UNBOUNDED_STEPS, "strategy": "chase"},
                )
                assert by_hash["ok"]
                assert by_hash["complete"] is False
                assert by_hash["exhausted"] == "deadline"

                status, = await roundtrip(port, {"op": "status"})
                assert status["workers"]["alive"] == 1
                assert status["counters"]["service.queries"] >= 3
                assert status["theories"] == 2
            finally:
                await server.drain()

        run(scenario())

    def test_structured_errors(self):
        async def scenario():
            server = await started_server(theory_text=TC)
            try:
                port, _ = server.bound_ports()
                bad_op, unknown, bad_rules, malformed = await roundtrip(
                    port,
                    {"op": "transmogrify"},
                    {"op": "query", "output": "T", "theory": "deadbeef"},
                    {"op": "query", "output": "T", "theory_text": "E(x -> "},
                    {"op": "query", "output": 12},
                )
                assert bad_op["error"]["code"] == protocol.ERR_INVALID_REQUEST
                assert unknown["error"]["code"] == protocol.ERR_UNKNOWN_THEORY
                assert bad_rules["error"]["code"] == protocol.ERR_PARSE
                assert malformed["error"]["code"] == protocol.ERR_INVALID_REQUEST
                for response in (bad_op, unknown, bad_rules, malformed):
                    assert "Traceback" not in json.dumps(response)
            finally:
                await server.drain()

        run(scenario())

    def test_non_json_line_is_invalid_request(self):
        async def scenario():
            server = await started_server(theory_text=TC)
            try:
                port, _ = server.bound_ports()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                response = protocol.decode(await reader.readline())
                assert response["error"]["code"] == protocol.ERR_INVALID_REQUEST
                writer.close()
                await writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())


class TestAdmissionControl:
    def test_overload_sheds_with_structured_response(self):
        async def scenario():
            server = await started_server(
                theory_text=TC, database_text=DB, queue_limit=1
            )
            try:
                port, _ = server.bound_ports()
                # Occupy the single admission slot with a slow query…
                slow = asyncio.create_task(
                    roundtrip(
                        port,
                        {"op": "query", "output": "Q",
                         "theory_text": LOOPING, "database": "P(a).",
                         "timeout": 2.0, "max_steps": UNBOUNDED_STEPS,
                         "strategy": "chase"},
                    )
                )
                await asyncio.sleep(0.3)
                # …then the next request must shed, immediately.
                shed, = await roundtrip(
                    port, {"op": "query", "output": "T", "id": "shed-me"}
                )
                assert shed["ok"] is False
                assert shed["shed"] is True
                assert shed["error"]["code"] == protocol.ERR_OVERLOADED
                assert shed["id"] == "shed-me"
                slow_response, = await slow
                assert slow_response["ok"]
                assert server.metrics.counter("service.shed.overloaded") == 1
            finally:
                await server.drain()

        run(scenario())

    def test_draining_sheds_new_requests(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            port, _ = server.bound_ports()
            slow = asyncio.create_task(
                roundtrip(
                    port,
                    {"op": "query", "output": "Q", "theory_text": LOOPING,
                     "database": "P(a).", "timeout": 1.5,
                     "max_steps": UNBOUNDED_STEPS, "strategy": "chase"},
                )
            )
            await asyncio.sleep(0.3)
            drain = asyncio.create_task(server.drain())
            await asyncio.sleep(0.1)
            shed, = await roundtrip(port, {"op": "query", "output": "T"})
            assert shed["shed"] is True
            assert shed["error"]["code"] == protocol.ERR_DRAINING
            slow_response, = await slow
            # In-flight work ran to completion during the drain.
            assert slow_response["ok"]
            assert await drain is True

        run(scenario())


class TestOpsPlane:
    def test_healthz_and_metrics(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, ops_port = server.bound_ports()
                await roundtrip(port, {"op": "query", "output": "T"})

                status, body = await http_get(ops_port, "/healthz")
                health = json.loads(body)
                assert status == 200
                assert health["ok"] is True
                assert health["workers_alive"] == 1
                assert len(health["worker_pids"]) == 1
                assert health["version"]

                status, body = await http_get(ops_port, "/metrics")
                assert status == 200
                metrics = dict(
                    line.rsplit(" ", 1)
                    for line in body.strip().splitlines()
                )
                assert int(metrics["repro_service_requests"]) >= 1
                assert int(metrics["repro_service_queries"]) >= 1
                assert int(metrics["repro_service_workers_alive"]) == 1
                # Warmth counters from the worker made it to the scrape.
                assert "repro_service_worker_registry_hits" in metrics

                status, _ = await http_get(ops_port, "/nope")
                assert status == 404
            finally:
                await server.drain()

        run(scenario())


class TestCrashRecoveryThroughServer:
    def test_injected_crash_yields_structured_error_then_recovers(self):
        async def scenario():
            server = await started_server(
                theory_text=TC, database_text=DB, allow_faults=True
            )
            try:
                port, _ = server.bound_ports()
                crashed, = await roundtrip(
                    port,
                    {"op": "query", "output": "T", "inject": "crash",
                     "timeout": 10.0},
                )
                assert crashed["ok"] is False
                assert crashed["error"]["code"] == protocol.ERR_WORKER_CRASHED
                assert "Traceback" not in json.dumps(crashed)

                # The pool restarts the worker; the next query succeeds.
                deadline = asyncio.get_running_loop().time() + 30
                while (
                    server.pool.alive_workers() < 1
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.05)
                recovered, = await roundtrip(
                    port, {"op": "query", "output": "T"}
                )
                assert recovered["ok"]
                assert recovered["answers"] == T_ANSWERS
                assert server.pool.restarts == 1
            finally:
                await server.drain()

        run(scenario())

    def test_faults_refused_when_not_enabled(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                refused, = await roundtrip(
                    port,
                    {"op": "query", "output": "T", "inject": "crash"},
                )
                assert refused["ok"] is False
                assert refused["error"]["code"] == protocol.ERR_INVALID_REQUEST
                assert server.pool.restarts == 0
            finally:
                await server.drain()

        run(scenario())


class TestRegisterRefusesWhatNoEngineAnswers:
    def test_unstratified_negation_is_an_invalid_request(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                reg, = await roundtrip(
                    port,
                    {"op": "register",
                     "theory": "E(x,y) -> T(x,y)\nE(x,y), not T(y,x) -> T(x,x)"},
                )
                assert reg["ok"] is False
                assert reg["error"]["code"] == protocol.ERR_INVALID_REQUEST
                assert "cycle through negation" in reg["error"]["message"]
            finally:
                await server.drain()

        run(scenario())


class TestAdvisorSurface:
    #: Beyond super-weak acyclicity, yet provably terminating (MFA): the
    #: registry must route it to the chase predictively, and the advice
    #: must show up on the wire, on /debug/theories, and in /metrics.
    MFA = (
        "A(x) -> exists y. R(x, y)\n"
        'R("a", y), R("b", y) -> T(y)\n'
        "T(y) -> A(y)"
    )

    def test_register_surfaces_advice_and_counters(self):
        from repro.obs import validate_exposition

        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, ops_port = server.bound_ports()
                reg, = await roundtrip(
                    port, {"op": "register", "theory": self.MFA}
                )
                assert reg["ok"]
                assert reg["strategy"] == "chase"
                assert reg["advice_fallback"] is False
                assert reg["advice"]["criterion"] == "model-faithful-acyclic"
                assert reg["advice"]["recommended"] == "chase"

                status, body = await http_get(ops_port, "/debug/theories")
                debug = json.loads(body)
                assert status == 200
                assert debug["registered"] == 2
                by_hash = {
                    entry["theory"]: entry for entry in debug["theories"]
                }
                entry = by_hash[reg["theory"]]
                assert entry["strategy"] == "chase"
                assert (
                    entry["advice"]["criterion"] == "model-faithful-acyclic"
                )

                status, body = await http_get(ops_port, "/metrics")
                assert status == 200
                assert validate_exposition(body) == []
                metrics = dict(
                    line.rsplit(" ", 1)
                    for line in body.strip().splitlines()
                    if not line.startswith("#")
                )
                predicted = metrics[
                    "repro_service_worker_advisor_predicted_chase"
                ]
                assert int(predicted) >= 1
                # Zero-valued counters are elided from the exposition:
                # no translation fallback means no series at all.
                fallbacks = metrics.get(
                    "repro_service_worker_advisor_fallbacks", "0"
                )
                assert int(fallbacks) == 0
            finally:
                await server.drain()

        run(scenario())
