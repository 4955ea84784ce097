"""Golden closures for the goal-directed Theorem 3 saturation.

``tests/data/saturation_golden.json`` records, for a fixed corpus, the
sorted ``canonical_rule_key`` sets of ``closure`` and ``datalog`` that
:func:`repro.translate.saturate` produced before its fixpoint loop became
delta-driven.  The closure is the least fixpoint of the Figure 3 context
calculus, so any correct evaluation order must reproduce every set
exactly.

The corpus has three parts:

* ``EXAMPLE7`` from ``tests/test_saturation.py``;
* the Section 7 weakly guarded exemplar, rewritten (Theorem 2) and
  ``pg``-grounded over fixed chain-3 and chain-4 databases — the guarded
  part that ``nearly_guarded_to_datalog`` saturates;
* seeded ``random_guarded_theory`` draws whose ``dat(Σ)`` adds rules.

Regenerate (only when the calculus itself changes on purpose) with::

    PYTHONPATH=src python -m tests.test_saturation_golden --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.bench.generators import random_guarded_theory, random_signature
from repro.core import Theory, parse_database, parse_theory
from repro.core.rules import canonical_rule_key
from repro.guardedness.classify import is_guarded_rule
from repro.translate import (
    partial_grounding,
    rewrite_weakly_frontier_guarded,
    saturate,
)

from .test_saturation import EXAMPLE7

GOLDEN = Path(__file__).parent / "data" / "saturation_golden.json"

SECTION7_THEORY = """
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
T(x,y) -> exists w. M(y, w)
M(y,w), T(x,y) -> Reach(x)
"""

#: Seeds scanned for random theories, and how many deriving draws to keep.
RANDOM_SEEDS = range(200)
RANDOM_KEEP = 50
#: ``answer_wfg_query``'s default saturation budget.
SECTION7_MAX_RULES = 200_000


def _section7_guarded(length: int) -> Theory:
    rewriting = rewrite_weakly_frontier_guarded(parse_theory(SECTION7_THEORY))
    database = parse_database(
        " ".join(f"E(c{i}, c{i + 1})." for i in range(length))
    )
    grounded = partial_grounding(
        rewriting.theory, rewriting.prepare_database(database)
    )
    return Theory(rule for rule in grounded if is_guarded_rule(rule))


def _random_theory(seed: int) -> Theory:
    rng = random.Random(seed)
    signature = random_signature(rng, n_relations=3)
    return random_guarded_theory(
        rng, signature, n_rules=8, existential_probability=0.4
    )


def _keys(theory: Theory) -> list[str]:
    return sorted(
        {
            json.dumps(canonical_rule_key(rule), separators=(",", ":"))
            for rule in theory
        }
    )


def _derives(theory: Theory, datalog: Theory) -> bool:
    """Whether ``dat(Σ)`` holds a rule that is not an input Datalog rule."""
    given = {canonical_rule_key(rule) for rule in theory if rule.is_datalog()}
    return any(canonical_rule_key(rule) not in given for rule in datalog)


def case(name: str) -> Theory:
    """Rebuild one golden input from its case name."""
    if name == "example7":
        return EXAMPLE7
    kind, _, number = name.rpartition("_")
    if kind == "section7":
        return _section7_guarded(int(number.removeprefix("chain")))
    if kind == "random":
        return _random_theory(int(number))
    raise KeyError(name)


def corpus() -> list[str]:
    """The golden case names: the fixed inputs, then the first
    ``RANDOM_KEEP`` seeds whose ``dat(Σ)`` adds rules."""
    names = ["example7", "section7_chain3", "section7_chain4"]
    for seed in RANDOM_SEEDS:
        theory = _random_theory(seed)
        if _derives(theory, saturate(theory).datalog):
            names.append(f"random_{seed}")
            if len(names) == 3 + RANDOM_KEEP:
                break
    return names


def record(theory: Theory) -> dict[str, list[str]]:
    result = saturate(theory, max_rules=SECTION7_MAX_RULES)
    return {"closure": _keys(result.closure), "datalog": _keys(result.datalog)}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_shape():
    golden = _load()
    assert {"example7", "section7_chain3", "section7_chain4"} <= set(golden)
    assert sum(name.startswith("random_") for name in golden) == RANDOM_KEEP


# A missing golden file fails ``test_corpus_shape``; regeneration must
# still be able to import this module without it.
@pytest.mark.parametrize("name", sorted(_load()) if GOLDEN.exists() else [])
def test_closure_matches_golden(name):
    expected = _load()[name]
    got = record(case(name))
    assert got["datalog"] == expected["datalog"]
    assert got["closure"] == expected["closure"]


def _write() -> None:
    payload = {name: record(case(name)) for name in corpus()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_saturation_golden --write")
    _write()
