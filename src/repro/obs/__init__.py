"""``repro.obs`` — structured tracing, counters, and per-phase metrics.

An instrumentation layer for the chase, the Datalog engine, the
homomorphism search, and the translation pipeline that never changes
which code runs:

* :class:`Tracer` / :class:`Span` — nested phase timing
  (``perf_counter``-based);
* :class:`MetricsRegistry` — typed counters, gauges, and per-iteration
  series (``triggers_fired``, ``datalog.delta_size``, …);
* sinks — :class:`JsonLinesSink` (machine-readable trace export) and
  :func:`render_report` (human-readable summary);
* :func:`instrumented` / :func:`current` — ``contextvars``-based ambient
  activation, so instrumented engines need no API changes.

Typical use::

    from repro.obs import instrumented, JsonLinesSink

    with instrumented(JsonLinesSink("trace.jsonl")) as instr:
        result = chase(theory, database)
    print(instr.report())
    print(instr.metrics.counter("triggers_fired"))

Counter semantics are documented in DESIGN.md (section "Observability").
"""

from .metrics import DEFAULT_LATENCY_BOUNDS_MS, Histogram, MetricsRegistry
from .prometheus import render_exposition, validate_exposition
from .runtime import Instrumentation, current, instrumented, span
from .sinks import JsonLinesSink, Sink, render_report
from .tracer import Span, Tracer

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_MS",
    "Histogram",
    "Instrumentation",
    "JsonLinesSink",
    "MetricsRegistry",
    "Sink",
    "Span",
    "Tracer",
    "current",
    "instrumented",
    "render_exposition",
    "render_report",
    "span",
    "validate_exposition",
]
