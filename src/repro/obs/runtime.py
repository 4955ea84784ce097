"""Ambient instrumentation via ``contextvars``.

The engines (chase, Datalog, homomorphism search, saturation, pipeline)
are instrumented against *this* module, not against a tracer passed down
through every call: each hot path asks :func:`current` once per run and
does nothing when it returns ``None``.  That makes instrumentation

* **observation-neutral** — an observed run executes the same engine
  code as an unobserved one and only records more; when disabled the
  only cost is one ``ContextVar`` read per engine entry point plus
  ``if obs is not None`` checks, and
* **API-neutral** — no engine signature changed; activating observation
  is a ``with instrumented(): ...`` block around existing code.

``contextvars`` (rather than a module global) keeps concurrent runs
isolated: asyncio tasks and ``ThreadPoolExecutor`` workers that copy the
context each observe their own registry.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Iterator, Optional

from .metrics import MetricsRegistry
from .sinks import Sink, render_report
from .tracer import Span, Tracer

__all__ = ["Instrumentation", "current", "instrumented", "span"]

_CURRENT: ContextVar[Optional["Instrumentation"]] = ContextVar(
    "repro_obs_current", default=None
)

#: Shared reusable no-op context manager for the disabled fast path.
_NULL_SPAN = nullcontext()


class Instrumentation:
    """One observation session: a metrics registry + a tracer + sinks."""

    __slots__ = ("metrics", "tracer", "sinks")

    def __init__(self, sinks: tuple[Sink, ...] = ()) -> None:
        self.metrics = MetricsRegistry()
        self.sinks = tuple(sinks)
        self.tracer = Tracer(on_close=self._span_closed if self.sinks else None)

    # -- counters ------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        self.metrics.inc(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def observe_hist(self, name: str, value: float) -> None:
        self.metrics.observe_hist(name, value)

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def _span_closed(self, span: Span) -> None:
        for sink in self.sinks:
            sink.span(span)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Flush the final metrics snapshot to every sink."""
        for sink in self.sinks:
            sink.finish(self.metrics)

    def report(self, *, title: str = "instrumentation report") -> str:
        """Human-readable text report of everything recorded so far."""
        return render_report(self.metrics, self.tracer.spans, title=title)


def current() -> Optional[Instrumentation]:
    """The active :class:`Instrumentation`, or ``None`` when disabled.

    Engine code fetches this once per run and skips all recording when it
    is ``None`` — the disabled default.
    """
    return _CURRENT.get()


@contextmanager
def instrumented(*sinks: Sink) -> Iterator[Instrumentation]:
    """Activate a fresh :class:`Instrumentation` for the dynamic extent.

    All engine code that runs inside the ``with`` block — including code
    several call levels down — records into the yielded instrumentation.
    Sinks are flushed (``finish``) on exit.  Blocks nest: the innermost
    activation wins, and the outer one is restored afterwards.
    """
    instr = Instrumentation(tuple(sinks))
    previous = _CURRENT.get()
    token = _CURRENT.set(instr)
    try:
        yield instr
    finally:
        try:
            _CURRENT.reset(token)
        except ValueError:
            # The block was exited in a different context than it was
            # entered in (executor offload, manually-run contexts); the
            # token is unusable there, so restore the remembered value
            # rather than leaking this instrumentation ambiently.
            _CURRENT.set(previous)
        instr.close()


def span(name: str, **attrs):
    """Ambient span: a real span when instrumentation is active, otherwise
    a shared no-op context manager (safe to reuse, nothing allocated)."""
    instr = _CURRENT.get()
    if instr is None:
        return _NULL_SPAN
    return instr.tracer.span(name, **attrs)
