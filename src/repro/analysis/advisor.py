"""Strategy advisor — predictive engine selection.

The advisor reads the acyclicity ladder (weak ⊂ joint ⊂ super-weak ⊂
MFA, climbed once by ``chase.termination.termination_ladder``), prices
the chase on weakly acyclic theories via the position-graph cost
estimator, and emits a :class:`StrategyAdvice` whose ``recommended``
strategy is what :func:`repro.translate.pipeline.plan_answering` runs
for ``auto`` — before any translation is attempted.  This module holds
the only copy of that strategy ladder; the CLI, the library and the
service all answer through the planner.  The verdict is sound in the
never-overclaims direction: a ``terminates=True`` advice certifies
restricted/skolem chase termination on **every** database, so routing
such theories straight to the chase can never trade completeness away.

Every run is traced as an ``analysis.advisor`` span (with ``classify``,
``ladder`` and ``estimate`` sub-spans; the ladder's MFA rung adds its
own ``chase.termination.mfa``) and counted under
``advisor.runs`` / ``advisor.criterion.<criterion>`` /
``advisor.recommendation.<strategy>``, which the service surfaces on
``/metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..chase.termination import (
    CRITERION_UNKNOWN,
    DEFAULT_MFA_MAX_STEPS,
    TERMINATION_CRITERIA,
    estimate_chase_cost,
    position_dependency_graph,
    termination_ladder,
)
from ..core.theory import Theory
from ..datalog.stratification import is_stratified
from ..guardedness.classify import Classification, classify
from ..obs import current, span

__all__ = [
    "ADVICE_SCHEMA_VERSION",
    "ADVICE_JSON_SCHEMA",
    "StrategyAdvice",
    "advise",
]

#: Version of the ``repro advise`` JSON report layout.
ADVICE_SCHEMA_VERSION = 1

#: Engine applicability verdicts (``StrategyAdvice.engines`` values).
ENGINE_COMPLETE = "complete"
ENGINE_NOT_APPLICABLE = "not-applicable"
ENGINE_TERMINATES = "terminates"
ENGINE_BUDGETED = "budgeted"


@dataclass(frozen=True)
class StrategyAdvice:
    """The advisor's verdict for one theory.

    ``criterion`` is the termination-criterion constant that proved the
    chase finite (or :data:`CRITERION_UNKNOWN`); ``engines`` maps each
    answering strategy to its applicability verdict; ``cost`` is the
    weak-acyclicity cost estimate (``None`` beyond the first rung);
    ``mfa`` summarizes the bounded critical-instance chase when it ran;
    ``witness`` carries the blocking evidence when no criterion holds.
    """

    criterion: str
    terminates: bool
    recommended: str
    classes: tuple[str, ...]
    engines: dict[str, str]
    cost: Optional[dict[str, Any]] = None
    mfa: Optional[dict[str, Any]] = None
    witness: Optional[dict[str, Any]] = None
    reasons: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "criterion": self.criterion,
            "terminates": self.terminates,
            "recommended": self.recommended,
            "classes": list(self.classes),
            "engines": dict(self.engines),
            "cost": self.cost,
            "mfa": self.mfa,
            "witness": self.witness,
            "reasons": list(self.reasons),
        }


def advise(
    theory: Theory,
    *,
    labels: Optional[Classification] = None,
    mfa_max_steps: int = DEFAULT_MFA_MAX_STEPS,
) -> StrategyAdvice:
    """Predict the right answering strategy for ``theory``.

    Reads one :func:`~repro.chase.termination.termination_ladder` climb,
    so the common weakly acyclic case never pays for the
    critical-instance chase.  The returned recommendation is the
    planner's ``auto`` strategy; ``labels`` can be passed in when
    classification already ran (the registry does)."""
    with span("analysis.advisor", rules=len(theory)):
        if labels is None:
            with span("analysis.advisor.classify"):
                labels = classify(theory)
        with span("analysis.advisor.ladder") as ladder_span:
            ladder = termination_ladder(theory, mfa_max_steps=mfa_max_steps)
            if ladder_span is not None:
                ladder_span.set(criterion=ladder.criterion)
        criterion, terminates = ladder.criterion, ladder.terminates
        mfa_summary = ladder.mfa.to_dict() if ladder.mfa is not None else None
        witness: Optional[dict[str, Any]] = None
        if not terminates and ladder.super_weak_cycle is not None:
            witness = {
                "super_weak_cycle": [
                    {"rule": rule_index, "variable": variable.name}
                    for rule_index, variable in ladder.super_weak_cycle
                ],
                "mfa": mfa_summary,
            }
        with span("analysis.advisor.estimate"):
            # A special cycle already means no polynomial bound.  The
            # ladder graphs every existential theory, no Datalog one.
            estimate = None
            if ladder.special_cycle is None:
                graph = ladder.position_graph or position_dependency_graph(theory)
                estimate = estimate_chase_cost(theory, graph)
        cost = estimate.to_dict() if estimate is not None else None

        # Only the Datalog engine evaluates negation: the chase and the
        # saturation behind both class translations take positive rules.
        negation = theory.has_negation()
        datalog_ok = labels.datalog and (not negation or is_stratified(theory))
        translate_ok = not negation and (
            labels.nearly_guarded or labels.nearly_frontier_guarded
        )
        wfg_ok = not negation and (
            labels.weakly_guarded or labels.weakly_frontier_guarded
        )
        if negation:
            chase_verdict = ENGINE_NOT_APPLICABLE
        else:
            chase_verdict = ENGINE_TERMINATES if terminates else ENGINE_BUDGETED
        engines = {
            "datalog": ENGINE_COMPLETE if datalog_ok else ENGINE_NOT_APPLICABLE,
            "translate": (
                ENGINE_COMPLETE if translate_ok else ENGINE_NOT_APPLICABLE
            ),
            "wfg-pipeline": (
                ENGINE_COMPLETE if wfg_ok else ENGINE_NOT_APPLICABLE
            ),
            "chase": chase_verdict,
        }
        reasons: list[str] = []
        if terminates:
            reasons.append(f"chase termination proven: {criterion}")
        else:
            reasons.append(
                "no acyclicity criterion proves chase termination "
                f"(critical-instance budget {mfa_max_steps})"
            )
        if datalog_ok:
            recommended = "datalog"
            reasons.append(
                "Datalog with at most stratified negation: semi-naive "
                "fixpoint is complete with no translation"
            )
        elif negation:
            # Every engine is not-applicable: the planner refuses the
            # theory, so the ladder's last resort is only a placeholder.
            recommended = "chase"
            reasons.append(
                "negation outside stratified Datalog: no engine applies"
            )
        elif terminates:
            recommended = "chase"
            reasons.append(
                "terminating restricted chase is complete and avoids the "
                "worst-case-sized class translation"
            )
        elif translate_ok:
            recommended = "translate"
            reasons.append(
                "PTime class translation to Datalog is complete"
            )
        elif wfg_ok:
            recommended = "wfg-pipeline"
            reasons.append(
                "Section 7 weakly-frontier-guarded pipeline is complete"
            )
        else:
            recommended = "chase"
            reasons.append(
                "no complete engine applies; budgeted chase returns sound "
                "partial answers"
            )
        instr = current()
        if instr is not None:
            instr.inc("advisor.runs")
            instr.inc(f"advisor.criterion.{criterion}")
            instr.inc(f"advisor.recommendation.{recommended}")
        return StrategyAdvice(
            criterion=criterion,
            terminates=terminates,
            recommended=recommended,
            classes=tuple(labels.names()),
            engines=engines,
            cost=cost,
            mfa=mfa_summary,
            witness=witness,
            reasons=tuple(reasons),
        )


#: JSON Schema (draft 2020-12) for the ``repro advise`` report — used by
#: the CI gate that validates ``repro advise --format json`` output.
ADVICE_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "source", "rules", "advice"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": ADVICE_SCHEMA_VERSION},
        "source": {"type": ["string", "null"]},
        "rules": {"type": "integer", "minimum": 0},
        "advice": {
            "type": "object",
            "required": [
                "criterion",
                "terminates",
                "recommended",
                "classes",
                "engines",
                "cost",
                "mfa",
                "witness",
                "reasons",
            ],
            "additionalProperties": False,
            "properties": {
                "criterion": {
                    "enum": list(TERMINATION_CRITERIA) + [CRITERION_UNKNOWN]
                },
                "terminates": {"type": "boolean"},
                "recommended": {
                    "enum": ["datalog", "translate", "wfg-pipeline", "chase"]
                },
                "classes": {"type": "array", "items": {"type": "string"}},
                "engines": {
                    "type": "object",
                    "required": [
                        "datalog",
                        "translate",
                        "wfg-pipeline",
                        "chase",
                    ],
                    "additionalProperties": False,
                    "properties": {
                        name: {
                            "enum": [
                                ENGINE_COMPLETE,
                                ENGINE_NOT_APPLICABLE,
                                ENGINE_TERMINATES,
                                ENGINE_BUDGETED,
                            ]
                        }
                        for name in (
                            "datalog",
                            "translate",
                            "wfg-pipeline",
                            "chase",
                        )
                    },
                },
                "cost": {"type": ["object", "null"]},
                "mfa": {"type": ["object", "null"]},
                "witness": {"type": ["object", "null"]},
                "reasons": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}
