"""Self-tests of the benchmark (not part of the program's tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from library import LIBRARY_WORKLOADS  # noqa: E402
from served import ServeReadWrite  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    assert harness.END_TO_END == _declared("end_to_end")
    assert harness.PER_LAYER == _declared("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wfg_fresh_db",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == _declared(section)
    record = json.loads(done.stdout.strip().splitlines()[-2])["record"]
    assert len(record["inputs"]["sha256"]) == 64
    assert {"nproc", "python", "platform", "commit"} <= set(record["environment"])


def _library(name: str, seed: int):
    workload = LIBRARY_WORKLOADS[name](seed)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", [*LIBRARY_WORKLOADS, ServeReadWrite.name])
def test_seed_reproduces_digest_and_sizes(name):
    def build(seed):
        return ServeReadWrite(seed) if name == ServeReadWrite.name else _library(name, seed)

    first, again, other = build(7), build(7), build(8)
    assert first.input_digest() == again.input_digest()
    assert first.input_digest() != other.input_digest()
    assert first.sizes() == other.sizes()


def _tamper(name: str, op):
    """``op`` with one answer made wrong."""
    if name == "wfg_fresh_db":
        op.observed = set(list(op.observed)[1:])
    elif name == "datalog_materialize":
        hits, rows, cyclic = op.observed
        op.observed = ([not hits[0], *hits[1:]], rows, cyclic)
    else:
        complete, answers, hits = op.observed
        op.observed = (complete, set(list(answers)[1:]), hits)
    return op


@pytest.mark.parametrize("name", list(LIBRARY_WORKLOADS))
def test_tampered_answer_raises_failed_ratio(name):
    workload = _library(name, 5)
    inp = workload.op_input(0)
    honest = workload.run
    assert workload.check(inp, honest(inp)) is None

    tally = harness.Tally()
    _, _, failure = run.attempt(workload, lambda i: _tamper(name, honest(i)), inp)
    tally.record(not failure, failure)
    assert failure and tally.failed_ratio == 1.0


class _FakeClient:
    """Stands in for ``ServiceClient``: answers every query with one
    canned response (or raises it)."""

    def __init__(self, response):
        self.response = response

    def query(self, **request):
        if isinstance(self.response, Exception):
            raise self.response
        return self.response


def test_served_check_counts_wrong_shed_and_transport_failures():
    from repro.service.client import TransportError

    workload = ServeReadWrite(5)
    cycles = frozenset({"a", "b"})
    good = {"ok": True, "complete": True, "answers": [["a"], ["b"]]}
    assert workload.query(_FakeClient(good), cycles)[2] == ""
    cases = [
        {**good, "answers": [["a"]]},
        {**good, "complete": False},
        {"ok": False, "shed": True, "error": {"code": "overloaded"}},
        {"ok": False, "error": {"code": "engine_error"}},
        TransportError("reset", host="127.0.0.1", port=1, op="query"),
    ]
    tally = harness.Tally()
    for response in cases:
        failure = workload.query(_FakeClient(response), cycles)[2]
        tally.record(not failure, failure)
    assert tally.failed == len(cases)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wfg_fresh_db",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
