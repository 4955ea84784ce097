"""Command-line interface.

Installed as the ``repro`` console script::

    repro classify theory.rules
    repro chase theory.rules data.db --policy restricted --max-steps 10000
    repro answer theory.rules data.db --output Q     (alias: repro query)
    repro translate theory.rules --target datalog
    repro termination theory.rules
    repro advise theory.rules                (strategy advisor, JSON report)
    repro lint theory.rules --format json --fail-on warning
    repro lint --print-schema                (the lint report's JSON Schema)
    repro serve theory.rules --workers 4
    repro update 127.0.0.1:7464 --insert "e(a, b)" --retract "e(c, d)"
    repro tail 127.0.0.1:7465                (the server's ops port)
    repro soak --seed 7 --duration 30 --faults crash,delay,truncate,stall

Theories use the rule syntax of :mod:`repro.core.parser`; databases use
the data syntax (bare names are constants).

Every subcommand accepts ``--stats`` (print an instrumentation report —
phase timings and engine counters — to stderr after the normal output),
``--trace-json PATH`` (export JSON-lines spans and the final metrics
snapshot, see :mod:`repro.obs`), and ``--timeout SECONDS`` (a wall-clock
deadline installed as the ambient
:class:`~repro.robustness.governor.ResourceGovernor` for the whole
command).  ``repro chase --stats`` additionally prints a per-round
``# round …`` footer from the run's own
:class:`~repro.chase.runner.ChaseStats` snapshot.

Exit codes are uniform: ``0`` success, ``1`` failure, ``2`` parse/usage
error, ``3`` *exhausted* — a budget, deadline, or cancellation stopped
the computation before an answer was reached.  Exhausted runs print
whatever sound partial output they have plus an ``# exhausted`` marker.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .analysis import (
    ADVICE_SCHEMA_VERSION,
    REPORT_JSON_SCHEMA,
    Severity,
    advise,
    analyze_text,
)
from .chase.runner import ChaseBudget, chase
from .chase.termination import DEFAULT_MFA_MAX_STEPS, termination_ladder
from .core.database import Database
from .core.parser import ParseError, parse_database, parse_theory, render_theory
from .core.theory import Theory
from .guardedness.classify import classify
from .guardedness.normalize import normalize
from .obs import JsonLinesSink, instrumented
from .robustness.errors import BudgetExceeded, Cancelled, InternalError, ReproError
from .robustness.governor import ResourceGovernor, governed
from .translate.annotations import rewrite_weakly_frontier_guarded
from .translate.expansion import rewrite_frontier_guarded
from .translate.pipeline import plan_answering
from .translate.saturation import guarded_to_datalog, nearly_guarded_to_datalog

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_FAILED",
    "EXIT_PARSE",
    "EXIT_EXHAUSTED",
]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
#: A budget/deadline/cancellation stopped the run (distinct from failure:
#: partial output, when printed, is sound).
EXIT_EXHAUSTED = 3


def _load_theory(path: str) -> Theory:
    return parse_theory(Path(path).read_text(), source=path)


def _load_database(path: str) -> Database:
    return parse_database(Path(path).read_text())


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """The uniform chase-budget flags, identical on every subcommand that
    runs a chase (``chase``, ``answer``/``query``)."""
    parser.add_argument(
        "--max-steps",
        type=int,
        default=100_000,
        help="chase step budget (default 100000)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="null-nesting depth budget (default unlimited)",
    )


def _budget_from_args(args: argparse.Namespace) -> ChaseBudget:
    return ChaseBudget(max_steps=args.max_steps, max_depth=args.max_depth)


def _cmd_classify(args: argparse.Namespace) -> int:
    theory = _load_theory(args.theory)
    labels = classify(theory)
    print(f"{len(theory)} rules over {len(theory.relations())} relations")
    names = labels.names()
    if names:
        for name in names:
            print(f"  {name}")
    else:
        print("  (none of the Figure 1 classes)")
    return 0


def _cmd_chase(args: argparse.Namespace) -> int:
    theory = _load_theory(args.theory)
    database = _load_database(args.database)
    result = chase(
        theory, database, policy=args.policy, budget=_budget_from_args(args)
    )
    status = "complete" if result.complete else f"truncated ({result.truncated_reason})"
    print(
        f"# chase {status}: {len(result.database)} atoms, "
        f"{result.nulls_created} nulls, {result.steps} steps"
    )
    for atom in sorted(result.database):
        print(atom)
    if args.stats:
        stats = result.stats
        print(
            f"# stats: rounds={result.rounds} "
            f"triggers_enumerated={stats.triggers_enumerated} "
            f"triggers_fired={stats.triggers_fired} "
            f"atoms_added={stats.atoms_added} "
            f"nulls_created={result.nulls_created}"
        )
        for r in stats.rounds:
            print(
                f"# round {r.round}: triggers={r.triggers_enumerated} "
                f"fired={r.triggers_fired} atoms={r.atoms_added} "
                f"nulls={r.nulls_created}"
            )
    return EXIT_OK if result.complete else EXIT_EXHAUSTED


def _print_answers(answers) -> None:
    for answer in sorted(answers, key=str):
        print("(" + ", ".join(term.name for term in answer) + ")")
    print(f"# {len(answers)} answers", file=sys.stderr)


def _cmd_answer(args: argparse.Namespace) -> int:
    theory = _load_theory(args.theory)
    database = _load_database(args.database)
    outcome = plan_answering(theory, args.strategy).answer(
        database, args.output, budget=_budget_from_args(args)
    )
    _print_answers(outcome.value)
    if not outcome.complete:
        print(
            f"# exhausted ({outcome.exhausted}): answers are sound "
            "but may be incomplete",
            file=sys.stderr,
        )
        return EXIT_EXHAUSTED
    return EXIT_OK


def _cmd_translate(args: argparse.Namespace) -> int:
    theory = _load_theory(args.theory)
    if args.target == "datalog":
        labels = classify(theory)
        if labels.guarded:
            result = guarded_to_datalog(theory, max_rules=args.max_rules)
        else:
            result = nearly_guarded_to_datalog(
                normalize(theory).theory, max_rules=args.max_rules
            )
    elif args.target == "nearly-guarded":
        result = rewrite_frontier_guarded(
            normalize(theory).theory, max_rules=args.max_rules
        )
    elif args.target == "weakly-guarded":
        result = rewrite_weakly_frontier_guarded(
            theory, max_rules=args.max_rules
        ).theory
    else:  # pragma: no cover - argparse restricts choices
        raise InternalError(f"unhandled translate target {args.target!r}")
    print(render_theory(result))
    print(f"# {len(result)} rules", file=sys.stderr)
    return 0


def _cmd_termination(args: argparse.Namespace) -> int:
    ladder = termination_ladder(
        _load_theory(args.theory), mfa_max_steps=args.mfa_steps
    )
    verdict = "yes" if ladder.terminates else "unknown"
    print(f"terminates: {verdict} ({ladder.criterion})")
    if ladder.special_cycle is not None:
        print("not weakly acyclic: cycle through a special edge:")
        for source, target, special in ladder.special_cycle:
            arrow = "=>" if special else "->"
            print(
                f"  ({source[0]},{source[1]}) {arrow} "
                f"({target[0]},{target[1]})"
            )
    for label, cycle in (
        ("jointly", ladder.joint_cycle),
        ("super-weakly", ladder.super_weak_cycle),
    ):
        if cycle is not None:
            rendered = " -> ".join(
                f"{variable.name}@rule{index}" for index, variable in cycle
            )
            print(f"not {label} acyclic: {rendered} -> (wraps)")
    result = ladder.mfa
    if result is not None:
        print(
            f"critical-instance chase: {result.verdict} after "
            f"{result.steps} steps ({result.atoms} atoms, "
            f"null depth {result.depth})"
        )
    return 0 if ladder.terminates else 1


def _cmd_advise(args: argparse.Namespace) -> int:
    text = Path(args.theory).read_text()
    theory = parse_theory(text, source=args.theory)
    advice = advise(theory, mfa_max_steps=args.mfa_steps)
    if args.format == "json":
        report = {
            "schema_version": ADVICE_SCHEMA_VERSION,
            "source": args.theory,
            "rules": len(theory),
            "advice": advice.to_dict(),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"recommended strategy: {advice.recommended}")
        verdict = (
            f"proven ({advice.criterion})" if advice.terminates else "not proven"
        )
        print(f"chase termination: {verdict}")
        print("engines:")
        for engine, status in advice.engines.items():
            print(f"  {engine}: {status}")
        if advice.cost is not None:
            print(
                f"cost estimate: O(n^{advice.cost['total_degree']}) facts "
                f"per relation, null depth <= {advice.cost['max_rank']}"
            )
        for reason in advice.reasons:
            print(f"# {reason}")
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.print_schema:
        print(json.dumps(REPORT_JSON_SCHEMA, indent=2, sort_keys=True))
        return EXIT_OK
    if args.theory is None:
        print("error: lint needs a theory file (or --print-schema)", file=sys.stderr)
        return EXIT_PARSE
    report = analyze_text(Path(args.theory).read_text(), source=args.theory)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    if report.by_code("PAR001"):
        return 2
    thresholds = {"error": Severity.ERROR, "warning": Severity.WARNING}
    threshold = thresholds.get(args.fail_on)
    if threshold is not None and report.at_least(threshold):
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import ReasoningServer, ServiceConfig

    theory_text = None
    if args.theory is not None:
        theory_text = Path(args.theory).read_text()
        # Fail fast on syntax errors before binding any socket.
        parse_theory(theory_text, source=args.theory)
    database_text = ""
    if args.data is not None:
        database_text = Path(args.data).read_text()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_timeout=args.default_timeout,
        theory_text=theory_text,
        theory_source=args.theory or "<default>",
        database_text=database_text,
        strategy=args.strategy,
        strict=args.strict,
        allow_faults=args.allow_faults,
        registry_capacity=args.registry_capacity,
        max_rules=args.max_rules,
        drain_grace=args.drain_grace,
        trace=not args.no_trace,
        trace_sample=args.trace_sample,
        recent_traces=args.recent_traces,
        slow_traces=args.slow_traces,
        snapshot_dir=args.snapshot_dir,
    )
    # The server parses the default database once, here, before it binds.
    server = ReasoningServer(config)
    print(
        f"repro {__version__} serving on {config.host}:{config.port} "
        f"(ops on :{config.http_port if config.http_port is not None else config.port + 1}, "
        f"{config.workers} workers)",
        file=sys.stderr,
    )
    asyncio.run(server.run())
    print("repro serve: drained cleanly", file=sys.stderr)
    return EXIT_OK


def _parse_ops_address(address: str) -> tuple[str, int]:
    """``host:port`` (or bare ``port``) naming a server's ops plane."""
    host, _, port_text = address.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        return host, int(port_text)
    except ValueError:
        raise ParseError(
            f"bad address {address!r}: expected host:port of the ops plane"
        ) from None


def _cmd_tail(args: argparse.Namespace) -> int:
    """Follow a running server's flight recorder (``repro tail``)."""
    import time as _time

    from .service.client import ServiceError, debug_requests, fetch_trace
    from .service.tracing import (
        render_event_line,
        render_trace_line,
        render_trace_tree,
    )

    host, port = _parse_ops_address(args.address)
    try:
        if args.trace is not None:
            trace = fetch_trace(host, port, args.trace)
            if trace is None:
                print(
                    f"trace {args.trace} not held by the flight recorder "
                    "(evicted or unknown)",
                    file=sys.stderr,
                )
                return EXIT_FAILED
            print(render_trace_tree(trace))
            return EXIT_OK
        if args.slow:
            listing = debug_requests(host, port)
            for summary in listing.get("slowest", []):
                print(render_trace_line(summary))
            return EXIT_OK
        seen: set[str] = set()
        seen_events: set[str] = set()
        first_sweep = True
        while True:
            listing = debug_requests(host, port)
            if first_sweep and not listing.get("tracing", True):
                print(
                    "warning: server runs with tracing disabled (--no-trace);"
                    " nothing will appear",
                    file=sys.stderr,
                )
            # Service events (worker crashes, crash-loop backoff, shed
            # storms) interleave with request lines, rendered distinctly
            # so degradation pops out of the feed.  Both rings arrive
            # newest-first; replay unseen entries oldest-first so the
            # tail reads chronologically.
            for event in reversed(listing.get("events", [])):
                key = json.dumps(event, sort_keys=True)
                if key in seen_events:
                    continue
                seen_events.add(key)
                print(render_event_line(event), flush=True)
            for summary in reversed(listing.get("recent", [])):
                trace_id = summary.get("trace_id")
                if trace_id in seen:
                    continue
                seen.add(trace_id)
                print(render_trace_line(summary), flush=True)
            if args.once:
                return EXIT_OK
            first_sweep = False
            _time.sleep(args.interval)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except KeyboardInterrupt:
        return EXIT_OK


def _cmd_update(args: argparse.Namespace) -> int:
    """Apply an insert/retract batch to a running server's live
    database (``repro update``)."""
    from .service.client import ServiceClient, ServiceError

    if not args.insert and not args.retract:
        print(
            "error: update needs at least one --insert or --retract fact",
            file=sys.stderr,
        )
        return EXIT_PARSE
    host, port = _parse_ops_address(args.address)
    theory_text = None
    if args.theory is not None:
        theory_text = Path(args.theory).read_text()
        parse_theory(theory_text, source=args.theory)  # fail fast, exit 2
    database = None
    if args.database is not None:
        database = Path(args.database).read_text()
        parse_database(database)
    try:
        with ServiceClient(host, port, timeout=args.request_timeout) as client:
            response = client.update(
                insert=args.insert,
                retract=args.retract,
                theory=args.theory_hash,
                theory_text=theory_text,
                database=database,
                timeout=args.request_timeout,
            )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if not response.get("ok"):
        error = response.get("error", {})
        print(
            f"error ({error.get('code', 'unknown')}): "
            f"{error.get('message', response)}",
            file=sys.stderr,
        )
        code = error.get("code")
        return EXIT_PARSE if code == "parse_error" else EXIT_FAILED
    if "db_key" not in response:
        # The worker exhausted a budget mid-update: the batch was not
        # applied; the reason rides in the standard exhausted shape.
        print(
            f"# exhausted ({response.get('exhausted', 'budget')}): "
            "update not applied",
            file=sys.stderr,
        )
        return EXIT_EXHAUSTED
    update = response.get("update", {})
    print(
        json.dumps(
            {
                "theory": response.get("theory"),
                "strategy": response.get("strategy"),
                "db_key": response.get("db_key"),
                "old_db_key": response.get("old_db_key"),
                "update": update,
            },
            indent=2,
            sort_keys=True,
        )
    )
    if update.get("fallback"):
        print(
            f"# fallback ({update['fallback']}): maintained by full "
            "recompute, not delta propagation",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_soak(args: argparse.Namespace) -> int:
    """Seeded chaos soak against a live server (``repro soak``)."""
    from .chaos.soak import SOAK_FAULTS, SoakConfig, run_soak

    faults = tuple(
        part.strip() for part in args.faults.split(",") if part.strip()
    )
    unknown = [fault for fault in faults if fault not in SOAK_FAULTS]
    if unknown:
        print(
            f"error: unknown fault(s) {','.join(unknown)}; "
            f"choose from {','.join(SOAK_FAULTS)}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    connect = None
    if args.connect is not None:
        host, port = _parse_ops_address(args.connect)
        http_port = args.connect_http or port + 1
        connect = (port, http_port)
    else:
        host = "127.0.0.1"
    config = SoakConfig(
        seed=args.seed,
        duration=args.duration,
        faults=faults,
        workers=args.workers,
        fault_rate=args.fault_rate,
        connect=connect,
        host=host,
    )
    report = run_soak(config)
    if args.report is not None:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    print(
        f"soak seed={report['seed']} duration={report['duration_s']}s "
        f"requests={report['requests']} "
        f"proxy_faults={sum(report['proxy']['injected'].values())}",
        file=sys.stderr,
    )
    for label, count in report["outcomes"].items():
        print(f"  {label}: {count}", file=sys.stderr)
    if report["violations"]:
        for violation in report["violations"]:
            print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
        print(
            f"soak FAILED: {len(report['violations'])} invariant "
            "violation(s)",
            file=sys.stderr,
        )
        return EXIT_FAILED
    print("soak passed: zero invariant violations", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Guarded existential rules: classify, chase, translate, answer.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--stats",
        action="store_true",
        help="print an instrumentation report (timings + counters) to stderr",
    )
    obs_flags.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="export JSON-lines spans and a final metrics record to PATH",
    )
    obs_flags.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock deadline for the whole command; exhaustion exits "
        f"with code {EXIT_EXHAUSTED}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser(
        "classify", help="Figure 1 class membership", parents=[obs_flags]
    )
    p.add_argument("theory")
    p.set_defaults(handler=_cmd_classify)

    p = commands.add_parser(
        "chase", help="run the chase and print the result", parents=[obs_flags]
    )
    p.add_argument("theory")
    p.add_argument("database")
    p.add_argument("--policy", choices=("oblivious", "restricted"), default="restricted")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_chase)

    p = commands.add_parser(
        "answer",
        aliases=["query"],
        help="certain answers for an output relation",
        parents=[obs_flags],
    )
    p.add_argument("theory")
    p.add_argument("database")
    p.add_argument("--output", required=True, help="output relation name")
    p.add_argument(
        "--strategy", choices=("auto", "chase"), default="auto",
        help="auto = the strategy advisor's choice (see 'repro advise'); "
        "chase = the budgeted restricted chase",
    )
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_answer)

    p = commands.add_parser(
        "translate", help="run a paper translation", parents=[obs_flags]
    )
    p.add_argument("theory")
    p.add_argument(
        "--target",
        choices=("datalog", "nearly-guarded", "weakly-guarded"),
        required=True,
    )
    p.add_argument("--max-rules", type=int, default=100_000)
    p.set_defaults(handler=_cmd_translate)

    p = commands.add_parser(
        "termination", help="static chase-termination check", parents=[obs_flags]
    )
    p.add_argument("theory")
    p.add_argument(
        "--mfa-steps", type=int, default=DEFAULT_MFA_MAX_STEPS, metavar="N",
        help="critical-instance chase budget of the MFA rung, which runs "
        "when the graph criteria fail (default %(default)s, as in "
        "'repro advise')",
    )
    p.set_defaults(handler=_cmd_termination)

    p = commands.add_parser(
        "advise",
        help="strategy advisor: termination ladder, cost estimate, "
        "recommended engine (JSON report)",
        parents=[obs_flags],
    )
    p.add_argument("theory")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument(
        "--mfa-steps", type=int, default=DEFAULT_MFA_MAX_STEPS, metavar="N",
        help="critical-instance chase budget for the MFA rung "
        "(default %(default)s)",
    )
    p.set_defaults(handler=_cmd_advise)

    p = commands.add_parser(
        "lint",
        help="static analysis: diagnostics with witnesses (see DESIGN.md)",
        parents=[obs_flags],
    )
    p.add_argument("theory", nargs="?", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="exit 1 when a diagnostic at or above this severity is present "
        "(parse failures always exit 2)",
    )
    p.add_argument(
        "--print-schema", action="store_true",
        help="print the JSON Schema of the --format json report and exit",
    )
    p.set_defaults(handler=_cmd_lint)

    p = commands.add_parser(
        "serve",
        help="run the reasoning service (NDJSON query plane + ops plane)",
        parents=[obs_flags],
    )
    p.add_argument(
        "theory", nargs="?", default=None,
        help="default theory served to queries naming none (optional)",
    )
    p.add_argument(
        "--data", default=None,
        help="default database for queries carrying none",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7464)
    p.add_argument(
        "--http-port", type=int, default=None,
        help="ops (healthz/metrics) port (default: query port + 1)",
    )
    p.add_argument("--workers", type=int, default=2)
    p.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission cap on outstanding requests; beyond it the "
        "server sheds with an 'overloaded' response",
    )
    p.add_argument(
        "--default-timeout", type=float, default=30.0,
        help="per-query deadline when the request carries no timeout",
    )
    p.add_argument(
        "--strategy", choices=("auto", "chase"), default="auto",
        help="answering strategy for the default theory and for queries "
        "that request none",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="reject theories whose lint report contains errors",
    )
    p.add_argument(
        "--allow-faults", action="store_true",
        help="honor fault-injection fields in requests (tests/CI only)",
    )
    p.add_argument("--registry-capacity", type=int, default=32)
    p.add_argument("--max-rules", type=int, default=100_000)
    p.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds to let in-flight work finish on SIGTERM",
    )
    p.add_argument(
        "--no-trace", action="store_true",
        help="disable end-to-end request tracing and the flight recorder",
    )
    p.add_argument(
        "--trace-sample", type=int, default=16,
        help="deep-trace (capture worker spans for) 1 in N requests; "
        "explicit trace context and explain:true always deep-trace; "
        "0 = explicit-only",
    )
    p.add_argument(
        "--recent-traces", type=int, default=256,
        help="flight-recorder ring size: most recent traces kept",
    )
    p.add_argument(
        "--slow-traces", type=int, default=32,
        help="flight-recorder ring size: slowest traces kept",
    )
    p.add_argument(
        "--snapshot-dir", default=None,
        help="directory for materialization snapshots: complete "
        "materializations are persisted there, and after a restart a "
        "database's snapshot is read the first time its key is asked "
        "for instead of re-chasing (default: no persistence)",
    )
    p.set_defaults(handler=_cmd_serve)

    p = commands.add_parser(
        "tail",
        help="follow a running server's flight recorder (live traces)",
    )
    p.add_argument(
        "address",
        help="ops-plane address of a running server, host:port "
        "(the --http-port, default query port + 1)",
    )
    p.add_argument(
        "--slow", action="store_true",
        help="show the slowest recorded requests instead of following "
        "new ones",
    )
    p.add_argument(
        "--trace", metavar="TRACE_ID", default=None,
        help="print one full span tree by trace id and exit",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print the current recorder contents and exit (no follow)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="poll interval in seconds while following (default 1.0)",
    )
    p.set_defaults(handler=_cmd_tail, stats=False, trace_json=None, timeout=None)

    p = commands.add_parser(
        "update",
        help="apply an insert/retract batch to a running server's live "
        "database (incremental maintenance; see repro.incremental)",
    )
    p.add_argument(
        "address",
        help="query-plane address of a running server, host:port",
    )
    p.add_argument(
        "--insert", action="append", default=[], metavar="FACT",
        help="fact to insert, e.g. --insert 'e(a, b)' (repeatable)",
    )
    p.add_argument(
        "--retract", action="append", default=[], metavar="FACT",
        help="fact to retract (repeatable)",
    )
    p.add_argument(
        "--theory", default=None, metavar="FILE",
        help="rule file naming the theory to update (inline registration)",
    )
    p.add_argument(
        "--theory-hash", default=None, metavar="SHA256",
        help="content hash of an already-registered theory",
    )
    p.add_argument(
        "--database", default=None, metavar="FILE",
        help="data file (re)seeding the live database before the batch "
        "(default: the server's current live state)",
    )
    p.add_argument(
        "--request-timeout", type=float, default=60.0,
        help="per-request client timeout in seconds (default 60)",
    )
    p.set_defaults(handler=_cmd_update, stats=False, trace_json=None, timeout=None)

    p = commands.add_parser(
        "soak",
        help="seeded chaos soak: replay faulty traffic through the "
        "fault-injection proxy and check service invariants",
    )
    p.add_argument(
        "--seed", type=int, default=7,
        help="seed of the fault schedule and traffic plan (default 7); "
        "the same seed reproduces the same schedule byte-for-byte",
    )
    p.add_argument(
        "--duration", type=float, default=30.0,
        help="soak length in seconds (default 30)",
    )
    p.add_argument(
        "--faults", default="crash,delay,truncate,stall",
        help="comma-separated fault set: 'crash' is injected into "
        "workers, the rest are transport faults applied by the proxy "
        "(delay, truncate, stall, reset, disconnect)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="workers of the spawned server (ignored with --connect)",
    )
    p.add_argument(
        "--fault-rate", type=float, default=0.2,
        help="per-exchange fault probability (default 0.2)",
    )
    p.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full JSON soak report to PATH",
    )
    p.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="soak an already-running server's query plane instead of "
        "spawning one (it must run --allow-faults for worker faults)",
    )
    p.add_argument(
        "--connect-http", type=int, default=None,
        help="ops-plane port of the --connect server (default: port + 1)",
    )
    p.set_defaults(handler=_cmd_soak, stats=False, trace_json=None, timeout=None)

    return parser


def _invoke(args: argparse.Namespace) -> int:
    """Run the subcommand handler under the ambient governor implied by
    ``--timeout`` (if any)."""
    scope = (
        governed(ResourceGovernor(timeout=args.timeout))
        if args.timeout is not None
        else nullcontext()
    )
    with scope:
        return args.handler(args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not (args.stats or args.trace_json):
            return _invoke(args)
        sinks = []
        if args.trace_json:
            try:
                stream = open(args.trace_json, "w", encoding="utf-8")
            except OSError as exc:
                print(
                    f"error: cannot open --trace-json target: {exc}",
                    file=sys.stderr,
                )
                return EXIT_PARSE
            sinks.append(JsonLinesSink(stream))
        with instrumented(*sinks) as instr:
            code = _invoke(args)
        if args.stats:
            print(instr.report(title=f"repro {args.command}"), file=sys.stderr)
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (Cancelled, BudgetExceeded) as exc:
        print(f"exhausted ({exc.reason}): {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``repro chase … | head``).
        # Redirect stdout to devnull so the interpreter's final flush
        # does not raise again, and exit like coreutils do (128+SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
