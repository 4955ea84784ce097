"""Service-level tests for the ``update``/``subscribe`` protocol ops.

Protocol shape validation, the in-process server contract (live
database threading, LRU re-keying visible through worker stats,
subscription diff pushes, affinity across updates, the live database
named to workers by key with one resend per miss), and the retry
policy exclusions — ``update`` must never be silently resent.  The
out-of-process CLI contract lives in ``test_service_e2e``.
"""

import asyncio
import json
import random

import pytest

from repro.service import protocol
from repro.service.server import ReasoningServer, ServiceConfig

TC = "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)"
DB = "E(a,b). E(b,c)."
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


async def open_conn(port: int):
    return await asyncio.open_connection("127.0.0.1", port)


async def request(reader, writer, payload: dict) -> dict:
    writer.write(protocol.encode(payload))
    await writer.drain()
    line = await reader.readline()
    assert line, "server closed connection mid-exchange"
    return protocol.decode(line)


class TestProtocolShape:
    def test_update_and_subscribe_are_known_ops(self):
        assert "update" in protocol.OPS
        assert "subscribe" in protocol.OPS

    def test_update_is_not_idempotent(self):
        # A transport-level retry of an applied update would double the
        # delta; the client must surface the failure, never resend.
        assert "update" not in protocol.IDEMPOTENT_OPS
        assert "subscribe" not in protocol.IDEMPOTENT_OPS

    def test_update_requires_a_batch(self):
        assert protocol.validate_request({"op": "update"}) is not None
        assert (
            protocol.validate_request(
                {"op": "update", "insert": [], "retract": []}
            )
            is not None
        )

    def test_update_rejects_non_string_facts(self):
        complaint = protocol.validate_request(
            {"op": "update", "insert": [42]}
        )
        assert complaint is not None and "insert" in complaint
        complaint = protocol.validate_request(
            {"op": "update", "retract": ["  "]}
        )
        assert complaint is not None and "retract" in complaint

    def test_valid_update_passes(self):
        assert (
            protocol.validate_request(
                {"op": "update", "insert": ["E(c, d)"], "retract": ["E(a, b)"]}
            )
            is None
        )

    def test_subscribe_requires_output(self):
        assert protocol.validate_request({"op": "subscribe"}) is not None
        assert (
            protocol.validate_request({"op": "subscribe", "output": "T"})
            is None
        )


class TestUpdateOp:
    def test_update_rekeys_and_queries_see_live_database(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                reader, writer = await open_conn(port)
                try:
                    first = await request(
                        reader, writer, {"op": "query", "output": "T"}
                    )
                    assert first["answers"] == T_ANSWERS

                    updated = await request(
                        reader,
                        writer,
                        {"op": "update", "insert": ["E(c, d)"]},
                    )
                    assert updated["ok"], updated
                    assert updated["db_key"] != updated["old_db_key"]
                    assert updated["update"]["mode"] == "counting"
                    assert updated["update"]["inserted"] == 1
                    assert updated["update"]["derived_added"] == 3
                    # The rendered live text is server-side material.
                    assert "database" not in updated

                    second = await request(
                        reader, writer, {"op": "query", "output": "T"}
                    )
                    assert ["c", "d"] in second["answers"]
                    assert ["a", "d"] in second["answers"]
                    # Served from the re-keyed materialization: the
                    # worker never recomputed.
                    assert second["stats"]["materializations"] == 0

                    retracted = await request(
                        reader,
                        writer,
                        {"op": "update", "retract": ["E(a, b)"]},
                    )
                    assert retracted["ok"]
                    assert retracted["update"]["retracted"] == 1
                    assert retracted["update"]["overdeleted"] >= 1

                    third = await request(
                        reader, writer, {"op": "query", "output": "T"}
                    )
                    assert third["answers"] == [
                        ["b", "c"], ["b", "d"], ["c", "d"],
                    ]

                    status = await request(reader, writer, {"op": "status"})
                    assert status["live_databases"] == 1
                    assert status["counters"]["service.updates"] == 2
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())

    def test_update_without_batch_is_invalid(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                reader, writer = await open_conn(port)
                try:
                    response = await request(
                        reader, writer, {"op": "update", "insert": []}
                    )
                    assert not response["ok"]
                    assert response["error"]["code"] == "invalid_request"
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())

    def test_unparseable_fact_is_a_structured_error(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                reader, writer = await open_conn(port)
                try:
                    response = await request(
                        reader,
                        writer,
                        {"op": "update", "insert": ["not a fact ("]},
                    )
                    assert not response["ok"]
                    assert response["error"]["code"] == "parse_error"
                    # The failed update must not corrupt the live state.
                    after = await request(
                        reader, writer, {"op": "query", "output": "T"}
                    )
                    assert after["answers"] == T_ANSWERS
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())


class TestSubscribeOp:
    def test_subscription_receives_diffs_in_order(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                sub_reader, sub_writer = await open_conn(port)
                upd_reader, upd_writer = await open_conn(port)
                try:
                    ack = await request(
                        sub_reader, sub_writer,
                        {"op": "subscribe", "output": "T"},
                    )
                    assert ack["ok"] and ack["answers"] == T_ANSWERS
                    sub_id = ack["subscription"]

                    updated = await request(
                        upd_reader, upd_writer,
                        {"op": "update", "insert": ["E(c, d)"]},
                    )
                    assert updated["ok"]
                    event = protocol.decode(await sub_reader.readline())
                    assert event["event"] == "subscription"
                    assert event["subscription"] == sub_id
                    assert event["added"] == [
                        ["a", "d"], ["b", "d"], ["c", "d"],
                    ]
                    assert event["removed"] == []
                    assert event["db_key"] == updated["db_key"]

                    retracted = await request(
                        upd_reader, upd_writer,
                        {"op": "update", "retract": ["E(a, b)"]},
                    )
                    assert retracted["ok"]
                    event = protocol.decode(await sub_reader.readline())
                    assert event["added"] == []
                    assert event["removed"] == [
                        ["a", "b"], ["a", "c"], ["a", "d"],
                    ]

                    # No-diff updates push nothing: the next line on the
                    # subscriber connection is this ping's response.
                    silent = await request(
                        upd_reader, upd_writer,
                        {"op": "update", "insert": ["E(c, d)"]},
                    )
                    assert silent["ok"]
                    assert silent["update"]["delta_size"] == 0
                    pong = await request(
                        sub_reader, sub_writer, {"op": "ping"}
                    )
                    assert pong.get("pong")
                finally:
                    sub_writer.close()
                    upd_writer.close()
                    await sub_writer.wait_closed()
                    await upd_writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())

    def test_subscription_dies_with_its_connection(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                sub_reader, sub_writer = await open_conn(port)
                ack = await request(
                    sub_reader, sub_writer, {"op": "subscribe", "output": "T"}
                )
                assert ack["ok"]
                sub_writer.close()
                await sub_writer.wait_closed()

                upd_reader, upd_writer = await open_conn(port)
                try:
                    # Wait until the server has reaped the subscriber.
                    for _ in range(50):
                        status = await request(
                            upd_reader, upd_writer, {"op": "status"}
                        )
                        if status["subscriptions"] == 0:
                            break
                        await asyncio.sleep(0.05)
                    assert status["subscriptions"] == 0
                    updated = await request(
                        upd_reader, upd_writer,
                        {"op": "update", "insert": ["E(c, d)"]},
                    )
                    assert updated["ok"]  # no dead-writer crash
                finally:
                    upd_writer.close()
                    await upd_writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())


class TestClientRetryPolicy:
    def test_client_refuses_to_resend_update(self):
        from repro.service.client import ServiceClient

        # The retry loop consults IDEMPOTENT_OPS; update must not be
        # eligible regardless of transport-level failure handling.
        assert "update" not in protocol.IDEMPOTENT_OPS
        assert hasattr(ServiceClient, "update")
        assert hasattr(ServiceClient, "subscribe")
        assert hasattr(ServiceClient, "next_event")


def closure(edges) -> list[list[str]]:
    """The transitive closure of ``edges`` as sorted answer rows."""
    reach = set(edges)
    while True:
        step = {(x, w) for x, y in reach for z, w in reach if y == z} - reach
        if not step:
            return sorted([x, y] for x, y in reach)
        reach |= step


async def wait_for_respawn(server: ReasoningServer, restarts: int) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 30
    while (
        server.pool.restarts < restarts or server.pool.alive_workers() < 1
    ) and loop.time() < deadline:
        await asyncio.sleep(0.05)
    assert server.pool.restarts == restarts


class TestLiveDatabaseByKey:
    """Server and worker name the live database by its content key: the
    worker parses a database text only when it holds nothing for the
    key, and the server resends such a job once with the text."""

    def test_read_write_loop_parses_no_database_after_the_first_query(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                reader, writer = await open_conn(port)
                try:
                    first = await request(
                        reader, writer, {"op": "query", "output": "T"}
                    )
                    assert first["answers"] == T_ANSWERS
                    # The worker never saw the database: one miss, one
                    # resend with the text, one parse.
                    assert first["stats"]["db_parses"] == 1
                    edges = {("a", "b"), ("b", "c")}
                    batches = [
                        ("insert", ("c", "d")), ("insert", ("d", "a")),
                        ("retract", ("d", "a")), ("retract", ("a", "b")),
                        ("insert", ("a", "b")),
                    ]
                    for kind, (u, v) in batches:
                        updated = await request(
                            reader, writer,
                            {"op": "update", kind: [f"E({u}, {v})"]},
                        )
                        assert updated["ok"], updated
                        assert updated["stats"]["db_parses"] == 0
                        (edges.add if kind == "insert" else edges.discard)(
                            (u, v)
                        )
                        for _ in range(2):
                            answer = await request(
                                reader, writer, {"op": "query", "output": "T"}
                            )
                            assert answer["answers"] == closure(edges)
                            assert answer["stats"]["db_parses"] == 0
                            assert answer["stats"]["materializations"] == 0
                    status = await request(reader, writer, {"op": "status"})
                    assert status["db_resends"] == 1
                    assert status["db_parses"] == 1
                    assert status["counters"]["service.db_resends"] == 1
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())

    def test_recompiled_theory_misses_once_per_request(self):
        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                reader, writer = await open_conn(port)
                try:
                    await request(reader, writer, {"op": "query", "output": "T"})
                    updated = await request(
                        reader, writer, {"op": "update", "insert": ["E(c, d)"]}
                    )
                    assert updated["update"]["inserted"] == 1
                    assert server.metrics.counters["service.db_resends"] == 1

                    # Another strategy recompiles the theory: the new
                    # artifact holds nothing under the live key.
                    chased = await request(
                        reader, writer,
                        {"op": "query", "output": "T", "strategy": "chase",
                         "trace_id": "resent-query", "explain": True},
                    )
                    assert chased["ok"], chased
                    assert chased["strategy"] == "chase"
                    assert chased["answers"] == closure(
                        {("a", "b"), ("b", "c"), ("c", "d")}
                    )
                    assert chased["stats"]["db_parses"] == 1
                    assert server.metrics.counters["service.db_resends"] == 2
                    # One contiguous phase breakdown covers both trips.
                    trace = chased["trace"]
                    assert "unknown_db" in [e["event"] for e in trace["events"]]
                    assert set(trace["phases"]) == {
                        "admission", "queue", "dispatch", "respond",
                    }
                    assert sum(trace["phases"].values()) == pytest.approx(
                        trace["elapsed_ms"], abs=0.01
                    )

                    # Back to auto: recompiled again, so the update misses,
                    # is resent with the post-update text and applied once.
                    again = await request(
                        reader, writer, {"op": "update", "insert": ["E(d, e)"]}
                    )
                    assert again["ok"], again
                    assert again["update"]["inserted"] == 1
                    assert again["old_db_key"] == updated["db_key"]
                    assert server.metrics.counters["service.db_resends"] == 3
                    after = await request(
                        reader, writer, {"op": "query", "output": "T"}
                    )
                    assert after["answers"] == closure(
                        {("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")}
                    )
                    assert after["stats"]["db_parses"] == 0
                    assert server.metrics.counters["service.db_resends"] == 3
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())

    def test_respawned_worker_misses_once_per_request(self):
        async def scenario():
            server = await started_server(
                theory_text=TC, database_text=DB, allow_faults=True
            )
            try:
                port, _ = server.bound_ports()
                reader, writer = await open_conn(port)
                try:
                    await request(reader, writer, {"op": "query", "output": "T"})
                    first = await request(
                        reader, writer, {"op": "update", "insert": ["E(c, d)"]}
                    )
                    assert first["ok"], first
                    crashed = await request(
                        reader, writer,
                        {"op": "query", "output": "T", "inject": "crash"},
                    )
                    assert crashed["error"]["code"] == protocol.ERR_WORKER_CRASHED
                    await wait_for_respawn(server, 1)

                    # The replacement holds nothing: the update misses, is
                    # resent with the live text, and applies exactly once.
                    updated = await request(
                        reader, writer, {"op": "update", "insert": ["E(d, e)"]}
                    )
                    assert updated["ok"], updated
                    assert updated["update"]["inserted"] == 1
                    assert updated["old_db_key"] == first["db_key"]
                    assert server.metrics.counters["service.db_resends"] == 2
                    post_update = closure(
                        {("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")}
                    )
                    seen = await request(
                        reader, writer, {"op": "query", "output": "T"}
                    )
                    assert seen["answers"] == post_update
                    assert seen["stats"]["db_parses"] == 0

                    crashed = await request(
                        reader, writer,
                        {"op": "query", "output": "T", "inject": "crash"},
                    )
                    assert crashed["error"]["code"] == protocol.ERR_WORKER_CRASHED
                    await wait_for_respawn(server, 2)
                    resent = await request(
                        reader, writer, {"op": "query", "output": "T"}
                    )
                    assert resent["answers"] == post_update
                    assert resent["stats"]["db_parses"] == 1
                    assert server.metrics.counters["service.db_resends"] == 3
                    codes = json.dumps([first, updated, seen, resent])
                    assert protocol.ERR_UNKNOWN_DB not in codes
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())

    def test_server_copy_agrees_with_the_worker(self):
        from repro.datalog import evaluate
        from repro.datalog.engine import answers_in
        from repro.core import parse_database, parse_theory
        from repro.service.registry import content_hash

        rng = random.Random(19)
        # ``"1x"`` reads back as one constant only when rendered quoted.
        nodes = ["a", "b", "c", "d", '"1x"']
        program = parse_theory(TC)

        def fact(u: str, v: str) -> str:
            return rng.choice(["E({},{})", "E({}, {})"]).format(u, v)

        def pair() -> tuple[str, str]:
            u, v = rng.sample(nodes, 2)
            return u, v

        spelled = {node.strip('"'): node for node in nodes}

        async def scenario():
            server = await started_server(theory_text=TC, database_text=DB)
            try:
                port, _ = server.bound_ports()
                reader, writer = await open_conn(port)
                present = [("a", "b"), ("b", "c")]
                try:
                    for _ in range(12):
                        inserts = [fact(*pair()) for _ in range(rng.randint(0, 3))]
                        retracts = [fact(*pair()) for _ in range(rng.randint(0, 2))]
                        # A duplicate insert, a retract of an absent fact
                        # (self-loops are never inserted), and one fact in
                        # both lists.
                        inserts.append(fact(*rng.choice(present)))
                        absent = rng.choice(nodes)
                        retracts.append(fact(absent, absent))
                        both = fact(*pair())
                        inserts.append(both)
                        retracts.append(both)
                        updated = await request(
                            reader, writer,
                            {"op": "update", "insert": inserts,
                             "retract": retracts},
                        )
                        assert updated["ok"], updated
                        live = server._live_for(content_hash(TC))
                        present = [
                            tuple(spelled[term.name] for term in atom.args)
                            for atom in live.facts
                        ] or [("a", "b")]
                        copy = parse_database(live.render())
                        assert copy.content_hash() == updated["db_key"]
                        assert live.db_key == updated["db_key"]
                        answer = await request(
                            reader, writer, {"op": "query", "output": "T"}
                        )
                        expected = sorted(
                            [term.name for term in row]
                            for row in answers_in(evaluate(program, copy), "T")
                        )
                        assert answer["answers"] == expected
                        assert answer["stats"]["db_parses"] == 0
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.drain()

        run(scenario())
