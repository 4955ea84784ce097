"""Wire protocol of the reasoning service.

The query plane speaks **newline-delimited JSON** over a plain TCP
socket: one request object per line, one response object per line, in
order, UTF-8 encoded.  The framing is deliberately primitive — any
language with a socket and a JSON parser is a client, and ``nc`` is a
debugger.  A second, separate listener speaks just enough HTTP/1.1 for
``GET /healthz`` and ``GET /metrics`` so ordinary scrapers and load
balancers need no custom client.

Requests
--------
Every request is an object with an ``op`` and an optional ``id`` (any
JSON value; echoed verbatim on the response so clients may pipeline):

``{"op": "ping"}``
    Liveness probe; answers ``{"ok": true, "pong": true, "version": …}``.

``{"op": "register", "theory": "<rules text>"}``
    Parse, lint, classify, translate and plan-compile the theory into
    every pool worker's registry.  Answers the content hash (``theory``)
    under which later queries may reference it, the Figure 1 classes,
    the chosen answering strategy, and the lint summary.

``{"op": "query", "output": "Q", …}``
    Certain answers for an output relation.  The theory is named by
    ``theory`` (a content hash from ``register``), supplied inline as
    ``theory_text``, or defaulted to the theory the server was started
    with.  The database is ``database`` (data text) when the request
    carries one, else the theory's live database: the server default,
    as advanced by every ``update``.  ``timeout`` (seconds),
    ``max_steps`` and ``max_depth`` bound the run per-request.  Answers carry
    ``answers`` (sorted lists of constant names), ``complete``, and —
    when a budget tripped — the machine-readable ``exhausted`` reason;
    a partial answer set is *sound* (every tuple is a certain answer).

``{"op": "status"}``
    Operational snapshot: queue depth, worker liveness, registry and
    admission counters, database texts workers parsed (``db_parses``)
    and jobs resent with text (``db_resends``, see below).

``{"op": "update", "insert": [...], "retract": [...], …}``
    Mutate the live database of a theory (named like ``query``: by
    ``theory`` hash, inline ``theory_text``, or the server default) by a
    batch of fact strings, maintaining the materialized model
    incrementally (see :mod:`repro.incremental`).  ``database``
    optionally (re)seeds the live database; otherwise the server's
    current live state (initially the default database) is the base.
    Answers the new database content hash (``db_key``), the previous
    one (``old_db_key``) and the per-update maintenance statistics
    under ``update`` (mode taken, rows added/removed, fallback reason
    when the engine had to recompute).  The reply carries no database:
    the server applies the batch to its own copy of the live database.
    Updates of one theory run one at a time.

``{"op": "subscribe", "output": "Q", …}``
    Register a continuous query on *this connection*: answers the
    current result set plus a ``subscription`` id, and from then on
    every ``update`` that changes the subscribed relation's answers
    pushes an unsolicited event line on the connection::

        {"event": "subscription", "subscription": …, "added": [...],
         "removed": [...], "db_key": …}

    Event lines carry ``event`` instead of ``id`` — a client reading a
    subscribed connection must dispatch on that field.  Subscriptions
    die with their connection.

The server names a live database to its workers by content hash, not
by text.  A worker that holds no model for the key (after a respawn, an
eviction or a recompile, or one that never saw the database) replies
``unknown_db`` before it changes any state; the server resends the job
once with the text rendered from its copy, so a resent request is
answered on the live database at resend time.  ``unknown_db`` is
internal to server and workers and never reaches a client.

Trace context
-------------
``register`` and ``query`` accept distributed-tracing fields: a client
may supply its own ``trace_id`` (a non-empty string, at most 128
characters) and optionally a ``span_id`` naming the client-side parent
span; the server generates a ``trace_id`` otherwise.  Every traced
response echoes ``trace_id``, and the assembled end-to-end trace —
server phases (admission, queue wait, dispatch) with the worker's engine
spans nested under dispatch — is retrievable from the ops plane at
``GET /debug/requests/<trace_id>`` while it lives in the flight
recorder.  A query carrying ``"explain": true`` additionally returns the
trace inline under ``trace`` (phase breakdown plus the worker span
tree).  ``GET /debug/requests`` lists the most recent and the slowest
recorded traces.

Responses
---------
``ok`` is ``true`` unless the request itself failed; resource
exhaustion is **not** a failure — it answers ``ok: true`` with
``complete: false``, mirroring :class:`repro.robustness.outcome.Outcome`.
Failures carry ``error: {code, message}`` and never a traceback.  A
response with ``shed: true`` was refused by admission control (queue
full, server draining, or no live worker) without touching a worker —
the client should back off and retry.  Every shed response carries
``retry_after_ms``: the server's hint for how long to wait before the
retry (a number of milliseconds, >= 0).  Clients honour it through
:class:`repro.service.client.RetryPolicy`; the hint is advisory, so
ignoring it is legal but impolite.

Retry safety
------------
``ping``/``status`` are read-only, ``query`` computes certain answers
over immutable inputs, and ``register`` is content-addressed
(registering the same rule text twice lands on the same SHA-256 entry —
the second call is a cache hit), so those four are **idempotent**
(:data:`IDEMPOTENT_OPS`) and a client that got no response may blindly
resend.  ``update`` is NOT: resending an ambiguous update could apply
the delta twice (retracts are no-ops the second time, but a duplicate
insert that raced a concurrent retract is not), and it stays off the
list until it carries a deduplication token.  ``subscribe`` is NOT:
a blind resend would register a second subscription on the connection.
The client's retry policy refuses to retry ops outside the idempotent
tuple.  See DESIGN.md §13 for the full retry-safety matrix.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .tracing import TRACE_ID_MAX_CHARS

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "TRACE_ID_MAX_CHARS",
    "OPS",
    "IDEMPOTENT_OPS",
    "DEFAULT_RETRY_AFTER_MS",
    "ERR_INVALID_REQUEST",
    "ERR_PARSE",
    "ERR_UNKNOWN_THEORY",
    "ERR_OVERLOADED",
    "ERR_DRAINING",
    "ERR_WORKER_CRASHED",
    "ERR_ENGINE",
    "ERR_INTERNAL",
    "ERR_UNKNOWN_DB",
    "encode",
    "decode",
    "error_response",
    "shed_response",
    "validate_request",
]

PROTOCOL_VERSION = 1

#: Upper bound on one framed line (request or response).  Theories and
#: databases ride inline, so the bound is generous; it exists to keep a
#: misbehaving client from ballooning server memory.
MAX_LINE_BYTES = 8 * 1024 * 1024

OPS = ("ping", "register", "query", "status", "update", "subscribe")

#: Ops a client may safely resend after an ambiguous failure (see the
#: "Retry safety" section above).  ``update`` (mutating, no dedup
#: token) and ``subscribe`` (registers connection state) are
#: deliberately absent.
IDEMPOTENT_OPS = ("ping", "register", "query", "status")

#: Fallback ``retry_after_ms`` for shed responses built without an
#: explicit server hint.
DEFAULT_RETRY_AFTER_MS = 100.0

ERR_INVALID_REQUEST = "invalid_request"
ERR_PARSE = "parse_error"
ERR_UNKNOWN_THEORY = "unknown_theory"
ERR_OVERLOADED = "overloaded"
ERR_DRAINING = "draining"
ERR_WORKER_CRASHED = "worker_crashed"
ERR_ENGINE = "engine_error"
ERR_INTERNAL = "internal_error"
#: Worker-to-server only: the job named its database by a key the
#: worker holds nothing for.  The server resends the job once with the
#: database text, so no client ever sees this code.
ERR_UNKNOWN_DB = "unknown_db"

#: Error codes produced by admission control — the response additionally
#: carries ``shed: true`` and the request never reached a worker.
SHED_CODES = (ERR_OVERLOADED, ERR_DRAINING)


def encode(obj: dict) -> bytes:
    """One framed response/request line (compact JSON + newline)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode(line: bytes) -> dict:
    """Parse one framed line into a request object.

    Raises ``ValueError`` on malformed JSON or a non-object payload."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    return obj


def error_response(
    code: str,
    message: str,
    *,
    request_id: Any = None,
    **extra: Any,
) -> dict:
    """A structured failure — the only shape errors ever take on the
    wire (tracebacks never leave the server)."""
    response: dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if code in SHED_CODES:
        response["shed"] = True
    response.update(extra)
    return response


def shed_response(
    code: str,
    message: str,
    *,
    request_id: Any = None,
    retry_after_ms: float = DEFAULT_RETRY_AFTER_MS,
) -> dict:
    """An admission-control refusal (``shed: true``) carrying the
    server's backoff hint.

    ``retry_after_ms`` must be a finite number >= 0 — validated here so
    a malformed hint can never reach the wire (clients sleep on it)."""
    if (
        not isinstance(retry_after_ms, (int, float))
        or isinstance(retry_after_ms, bool)
        or retry_after_ms < 0
        or retry_after_ms != retry_after_ms  # NaN
        or retry_after_ms == float("inf")
    ):
        raise ValueError(
            f"retry_after_ms must be a finite number >= 0, got {retry_after_ms!r}"
        )
    return error_response(
        code,
        message,
        request_id=request_id,
        retry_after_ms=round(float(retry_after_ms), 3),
    )


def validate_request(obj: dict) -> Optional[str]:
    """Cheap structural validation; returns a complaint or ``None``.

    Anything beyond shape (unknown theory hashes, unparseable rule text)
    is diagnosed where the information lives — server or worker — and
    reported through :func:`error_response`."""
    op = obj.get("op")
    if op not in OPS:
        return f"unknown op {op!r}; expected one of {OPS}"
    if op in ("register", "query", "update", "subscribe"):
        trace_id = obj.get("trace_id")
        if trace_id is not None:
            if not isinstance(trace_id, str) or not trace_id:
                return "'trace_id' must be a non-empty string"
            if len(trace_id) > TRACE_ID_MAX_CHARS:
                return f"'trace_id' exceeds {TRACE_ID_MAX_CHARS} characters"
        span_id = obj.get("span_id")
        if span_id is not None and (
            not isinstance(span_id, str) or len(span_id) > TRACE_ID_MAX_CHARS
        ):
            return "'span_id' must be a string of bounded length"
    if op == "register":
        if not isinstance(obj.get("theory"), str) or not obj["theory"].strip():
            return "register requires a non-empty 'theory' rule text"
    if op == "query":
        if "explain" in obj and not isinstance(obj["explain"], bool):
            return "'explain' must be a boolean"
        if not isinstance(obj.get("output"), str) or not obj["output"]:
            return "query requires an 'output' relation name"
        if "theory" in obj and not isinstance(obj["theory"], str):
            return "'theory' must be a content-hash string"
        if "theory_text" in obj and not isinstance(obj["theory_text"], str):
            return "'theory_text' must be a rule text string"
        if "database" in obj and not isinstance(obj["database"], str):
            return "'database' must be a data text string"
        for field in ("timeout",):
            if field in obj and not isinstance(obj[field], (int, float)):
                return f"'{field}' must be a number"
        for field in ("max_steps", "max_depth"):
            if field in obj and obj[field] is not None and not isinstance(obj[field], int):
                return f"'{field}' must be an integer"
        if "inject" in obj and not isinstance(obj["inject"], str):
            return "'inject' must be a fault-spec string (tests/CI only)"
    if op in ("update", "subscribe"):
        for field in ("theory", "theory_text", "database"):
            if field in obj and not isinstance(obj[field], str):
                return f"'{field}' must be a string"
        if "timeout" in obj and not isinstance(obj["timeout"], (int, float)):
            return "'timeout' must be a number"
    if op == "update":
        inserts = obj.get("insert", [])
        retracts = obj.get("retract", [])
        for name, batch in (("insert", inserts), ("retract", retracts)):
            if not isinstance(batch, list) or not all(
                isinstance(item, str) and item.strip() for item in batch
            ):
                return f"'{name}' must be a list of non-empty fact strings"
        if not inserts and not retracts:
            return "update requires a non-empty 'insert' or 'retract' batch"
    if op == "subscribe":
        if not isinstance(obj.get("output"), str) or not obj["output"]:
            return "subscribe requires an 'output' relation name"
    return None
