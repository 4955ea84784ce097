"""What every workload shares: metric tables, host-speed calibration,
layer spans, statistics, the environment record and the result line.

Timing uses ``time.perf_counter``.  The garbage collector stays at the
interpreter's defaults, because users pay for it too.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "update_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.  A workload that does
#: not reach a layer reports 0 for it.  ``update_tail_ms`` lives here
#: because the write half's tail does not repeat within a tenth.
PER_LAYER = {
    "update_tail_ms": "ms",
    "translate.annotations.self_ms": "ms",
    "translate.grounding.self_ms": "ms",
    "translate.saturation.self_ms": "ms",
    "translate.grounding.rules_out": "count",
    "translate.saturation.rules_out": "count",
    "datalog.engine.self_ms": "ms",
    "datalog.engine.model_atoms": "count",
    "core.plan.cache_misses_per_op": "count/op",
    "core.plan.cache_evictions_per_op": "count/op",
    "core.plan.cache_hit_ratio": "ratio",
    "core.parser.db_parse_ms": "ms",
    "core.store.bulk_load_ms": "ms",
    "core.store.probe_us": "us",
    "core.store.content_hash_ms": "ms",
    "queries.cq.self_ms": "ms",
    "chase.runner.self_ms": "ms",
    "chase.runner.steps": "count",
    "chase.runner.rounds": "count",
    "decode.self_ms": "ms",
    "service.phase.admission_ms": "ms",
    "service.phase.queue_ms": "ms",
    "service.phase.dispatch_ms": "ms",
    "service.phase.respond_ms": "ms",
    "service.worker.elapsed_ms": "ms",
    "service.client_overhead_ms": "ms",
    "service.registry.materializations": "count",
    "service.registry.hit_ratio": "ratio",
    "incremental.apply_ms": "ms",
    "incremental.fallbacks": "count",
    "incremental.dred_useful_ratio": "ratio",
    "failed_ratio": "ratio",
    "layer_coverage": "ratio",
    "trace_overhead": "ratio",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
#: What :func:`calibration_ms` takes on an undisturbed reference host.
CALIBRATION_REFERENCE_MS = 3.3


def calibration_ms() -> float:
    """The faster of two runs of a fixed pure-Python kernel, in ms (the
    faster, so a collector pause in one run does not count).

    Shared small hosts run for tens of seconds at a time well below
    their usual speed, and every op slows with them.  End-to-end times
    are scaled by ``CALIBRATION_REFERENCE_MS / calibration_ms()`` taken
    around each op, which cancels that drift (the raw medians stay in
    the run record).  The kernel does what the engines do most (build
    and probe tuple-keyed dicts and sets) but touches no program code,
    so a change to the program cannot move it."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table = {(i % 251, i): [i, -i] for i in range(6_000)}
        members = {(b, a) for a, b in table if (a * 3 + b) % 7}
        hits = sum((i, i % 251) in members for i in range(6_000))
        best = min(best, time.perf_counter() - start)
        del table, members, hits
    return best * 1e3


class HostSpeed:
    """Calibrates between consecutive ops: each op is scaled by the mean
    of the calibrations just before and just after it."""

    def __init__(self) -> None:
        self.samples = [calibration_ms()]

    def scale(self) -> float:
        """Call right after an op: the factor for that op's times."""
        self.samples.append(calibration_ms())
        return CALIBRATION_REFERENCE_MS / ((self.samples[-2] + self.samples[-1]) / 2)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """Layer spans of one traced op, kept in memory.

    ``spans(name)`` opens a span; on close its *self* time (duration
    minus the part its child spans covered) is added to ``self_s[name]``.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._covered = [0.0]

    @contextlib.contextmanager
    def __call__(self, name: str):
        self._covered.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self.self_s[name] += duration - self._covered.pop()
            self._covered[-1] += duration

    def total_s(self) -> float:
        """Wall time of the root spans."""
        return sum(self.self_s.values())


_NULL = contextlib.nullcontext()


def no_spans(name: str):
    """The untraced stand-in for :class:`Spans`."""
    return _NULL


def op_indices(seconds: float):
    """Op indices for ``seconds`` of wall time (at least one op)."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        yield index
        index += 1


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; the minimum when there are fewer than 11."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_medians_ms(traced: list[Spans], names) -> dict[str, float]:
    """Median per-op self time of each named span, in ms."""
    return {
        name: median(spans.self_s.get(name, 0.0) * 1e3 for spans in traced)
        for name in names
    }


def coverage(traced: list[Spans], walls_s: list[float]) -> float:
    """Share of the traced ops' wall time (the whole call, including the
    release of its locals) covered by layer spans (all but "op")."""
    covered = sum(spans.total_s() - spans.self_s.get("op", 0.0) for spans in traced)
    return ratio(covered, sum(walls_s))


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files: identifies the code under
    test even in a checkout that is not a git repository."""
    hasher = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
    }


# ----------------------------------------------------------------------
# result
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed ops, with a few failure samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: list[str] = []

    def record(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.samples) < 5:
                self.samples.append(why)

    @property
    def failed_ratio(self) -> float:
        return ratio(self.failed, self.attempted)


def result_line(correct: bool, tally: Tally, metrics: dict, units: dict) -> str:
    """The final stdout line; ``metrics`` must carry every name in ``units``."""
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return json.dumps(
        {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )
