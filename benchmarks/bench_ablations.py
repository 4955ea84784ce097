"""Ablations for the design choices DESIGN.md calls out.

* **chase policy** — oblivious (the paper's definition) vs restricted vs
  skolem: same certain answers, very different result sizes;
* **Datalog evaluation** — semi-naive vs the naive reference loop;
* **saturation strategy** — the goal-directed context closure vs the
  literal exhaustive Figure 3 closure.
"""

import time

from repro.bench.generators import chain_database
from repro.core import Query, parse_database, parse_theory
from repro.core.rules import canonical_rule_key
from repro.chase import ChaseBudget, answers_in, chase
from repro.datalog import evaluate
from repro.translate import saturate

TC_PROGRAM = parse_theory("E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)")

CHASE_THEORY = parse_theory(
    """
    P(x) -> exists y. R(x, y)
    R(x, y) -> S(y)
    S(x) -> Done(x)
    """
)

SATURATION_THEORY = parse_theory(
    """
    A(x) -> exists y. R(x, y)
    R(x,y) -> S(x)
    """
)


def chase_policy_ablation() -> list[dict]:
    db = parse_database("P(a). P(b). R(a, c). S(c).")
    rows = []
    for policy in ("oblivious", "restricted", "skolem"):
        result = chase(
            CHASE_THEORY, db, policy=policy, budget=ChaseBudget(max_steps=10_000)
        )
        rows.append(
            {
                "policy": policy,
                "atoms": len(result.database),
                "nulls": result.nulls_created,
                "answers": len(answers_in(result.database, "Done")),
            }
        )
    return rows


def evaluation_strategy_ablation(length: int = 60) -> list[dict]:
    db = chain_database("E", length)
    rows = []
    for strategy in ("seminaive", "naive"):
        start = time.perf_counter()
        fixpoint = evaluate(TC_PROGRAM, db, strategy=strategy)
        rows.append(
            {
                "strategy": strategy,
                "atoms": len(fixpoint),
                "seconds": time.perf_counter() - start,
            }
        )
    assert rows[0]["atoms"] == rows[1]["atoms"]
    return rows


def saturation_strategy_ablation() -> list[dict]:
    rows = []
    for strategy in ("goal-directed", "exhaustive"):
        start = time.perf_counter()
        result = saturate(SATURATION_THEORY, strategy=strategy, max_rules=10_000)
        rows.append(
            {
                "strategy": strategy,
                "closure": len(result.closure),
                "datalog": len(result.datalog),
                "seconds": time.perf_counter() - start,
            }
        )
    goal, exhaustive = rows
    goal_keys = {canonical_rule_key(r) for r in saturate(SATURATION_THEORY).datalog}
    exhaustive_keys = {
        canonical_rule_key(r)
        for r in saturate(SATURATION_THEORY, strategy="exhaustive", max_rules=10_000).datalog
    }
    assert goal_keys <= exhaustive_keys
    return rows


def ablation_report() -> str:
    lines = ["Ablations", "", "chase policy (same certain answers, different sizes):"]
    lines.append(f"  {'policy':>10}  {'atoms':>6}  {'nulls':>6}  {'answers':>7}")
    for row in chase_policy_ablation():
        lines.append(
            f"  {row['policy']:>10}  {row['atoms']:>6}  {row['nulls']:>6}  "
            f"{row['answers']:>7}"
        )
    lines.append("")
    lines.append("Datalog evaluation (TC over a 60-edge chain):")
    lines.append(f"  {'strategy':>10}  {'atoms':>6}  {'seconds':>8}")
    for row in evaluation_strategy_ablation():
        lines.append(
            f"  {row['strategy']:>10}  {row['atoms']:>6}  {row['seconds']:>8.4f}"
        )
    lines.append("")
    lines.append("saturation strategy (Figure 3 closure):")
    lines.append(f"  {'strategy':>13}  {'closure':>7}  {'datalog':>7}  {'seconds':>8}")
    for row in saturation_strategy_ablation():
        lines.append(
            f"  {row['strategy']:>13}  {row['closure']:>7}  {row['datalog']:>7}  "
            f"{row['seconds']:>8.2f}"
        )
    return "\n".join(lines)


def test_benchmark_seminaive(benchmark):
    db = chain_database("E", 60)
    benchmark(lambda: evaluate(TC_PROGRAM, db, strategy="seminaive"))


def test_benchmark_naive(benchmark):
    db = chain_database("E", 60)
    benchmark(lambda: evaluate(TC_PROGRAM, db, strategy="naive"))


def test_policies_same_answers():
    rows = chase_policy_ablation()
    assert len({row["answers"] for row in rows}) == 1
    oblivious, restricted, _ = rows
    assert restricted["atoms"] <= oblivious["atoms"]


if __name__ == "__main__":
    from conftest import counted

    with counted("ablations"):
        print(ablation_report())
