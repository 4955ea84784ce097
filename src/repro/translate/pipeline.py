"""The end-to-end Section 7 pipeline and the one answering planner.

Conjunctive query answering over a database enriched with weakly
frontier-guarded rules, via the paper's five-step procedure:

  1. compute the weakly guarded theory ``rew(Σ)``        (Theorem 2),
  2. partially ground ``rew(Σ)`` w.r.t. ``D``            (``pg``),
  3. saturate the guarded result into Datalog            (Theorem 3),
  4. (implicitly) ground and
  5. evaluate the Datalog program over ``D``.

Steps 4/5 are fused: the semi-naive Datalog engine *is* grounding-on-
demand, which matches the complexity accounting of the paper (the
grounding is what a bottom-up engine materializes anyway).

The pipeline, plain Datalog, the class translations (Theorems 1/3,
Propositions 4/6) and the restricted chase compute the same certain
answers.  :func:`plan_answering` is the one policy choosing among them;
:func:`answer_query`, ``repro answer`` and the service registry all
answer through the :class:`AnsweringPlan` it returns.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional

from ..analysis.advisor import (
    ENGINE_COMPLETE,
    ENGINE_NOT_APPLICABLE,
    StrategyAdvice,
    advise,
)
from ..chase.runner import RESTRICTED, ChaseBudget, chase
from ..core.database import Database
from ..core.terms import Constant
from ..core.theory import Query, Theory
from ..datalog.engine import answers_in, evaluate
from ..datalog.stratification import find_negation_cycle
from ..guardedness.classify import Classification, classify
from ..guardedness.normalize import normalize
from ..obs.runtime import current as _obs_current
from ..obs.runtime import span as _obs_span
from ..robustness.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    InvalidRequestError,
    InvalidTheoryError,
    TranslationError,
)
from ..robustness.governor import ResourceGovernor, governed, resolve_governor
from ..robustness.outcome import Outcome
from .annotations import WfgRewriting, rewrite_weakly_frontier_guarded
from .expansion import rewrite_nearly_frontier_guarded
from .grounding import partial_grounding
from .saturation import nearly_guarded_to_datalog

__all__ = [
    "AnsweringPlan",
    "PipelineReport",
    "answer_query",
    "answer_wfg_query",
    "plan_answering",
]

STRATEGY_DATALOG = "datalog"
STRATEGY_TRANSLATE = "translate"
STRATEGY_WFG = "wfg-pipeline"
STRATEGY_CHASE = "chase"


@dataclass
class PipelineReport:
    """Sizes and intermediate artifacts of a Section 7 run."""

    rewritten_rules: int = 0
    grounded_rules: int = 0
    datalog_rules: int = 0
    answers: set[tuple[Constant, ...]] = field(default_factory=set)


@dataclass(frozen=True)
class AnsweringPlan:
    """One strategy for one theory, with its database-independent half:
    the Datalog ``program`` (``datalog``, ``translate``) or the Theorem 2
    ``rewriting`` (``wfg-pipeline``); the ``chase`` needs neither.
    ``fallback`` holds the reason (``"max_rules"``, ``"translation_error"``)
    when the advisor's route failed to translate and the plan fell back
    to the chase."""

    theory: Theory
    strategy: str
    requested: str = "auto"
    program: Optional[Theory] = None
    rewriting: Optional[WfgRewriting] = None
    advice: Optional[StrategyAdvice] = None
    fallback: Optional[str] = None
    saturation_max_rules: int = 200_000

    def materialize(
        self, database: Database, budget: Optional[ChaseBudget] = None
    ) -> Outcome[Database]:
        """The model every output relation is read from.  Only the chase
        returns a cut-short (sound) model; the fixpoint strategies finish
        or raise the typed exhaustion error."""
        if self.program is not None:
            return Outcome(value=evaluate(self.program, database), complete=True)
        if self.rewriting is not None:
            model = _section7_model(
                self.rewriting, database, self.saturation_max_rules
            )
            return Outcome(value=model, complete=True)
        # Restricted, not oblivious: the advisor's termination verdicts
        # certify the restricted and skolem chases only.
        result = chase(self.theory, database, policy=RESTRICTED, budget=budget)
        return Outcome(
            value=result.database,
            complete=result.complete,
            exhausted=result.truncated_reason,
            snapshot=result.snapshot,
        )

    def decode(self, model: Database, output: str) -> set[tuple[Constant, ...]]:
        """The certain answers for ``output`` held in ``model``."""
        answers = answers_in(model, output)
        if self.rewriting is None:
            return answers
        return {self.rewriting.restore_answer(output, answer) for answer in answers}

    def answer(
        self,
        database: Database,
        output: str,
        *,
        budget: Optional[ChaseBudget] = None,
    ) -> Outcome[set[tuple[Constant, ...]]]:
        """Materialize and decode: the answers, sound but possibly
        incomplete when the chase was cut short."""
        with _obs_span(
            "pipeline.answer_query",
            strategy=self.strategy,
            criterion=None if self.advice is None else self.advice.criterion,
            fallback=self.fallback,
        ):
            model = self.materialize(database, budget)
            return replace(model, value=self.decode(model.value, output))


def plan_answering(
    theory: Theory,
    requested: str = "auto",
    *,
    max_rules: int = 100_000,
    saturation_max_rules: int = 200_000,
    labels: Optional[Classification] = None,
    advice: Optional[StrategyAdvice] = None,
) -> AnsweringPlan:
    """Choose the answering strategy for ``theory`` and build its
    database-independent half.

    ``auto`` runs :attr:`StrategyAdvice.recommended` (the advisor holds
    the only copy of the strategy ladder); ``chase`` forces the
    restricted chase, advising and translating nothing; ``translate``
    forces the first class route the advisor reports complete and lets
    its failures propagate (experiment E7 compares it with the chase).
    Under ``auto`` a ``TranslationError`` or a count ``BudgetExceeded``
    (``max_rules``) falls back to the chase, recorded in ``fallback``
    and counted as ``advisor.fallback``; ``DeadlineExceeded`` and
    ``Cancelled`` propagate, as they would stop the chase too.  Under
    ``auto`` and ``translate`` a theory no engine answers (negation
    outside stratified Datalog) raises :class:`InvalidTheoryError`
    naming the cycle through negation."""
    if requested not in ("auto", STRATEGY_CHASE, STRATEGY_TRANSLATE):
        raise InvalidRequestError(
            f"unknown strategy {requested!r}; expected auto, chase or translate"
        )
    strategy = STRATEGY_CHASE
    if requested != STRATEGY_CHASE:
        if advice is None:
            advice = advise(theory, labels=labels)
        strategy = advice.recommended
        if advice.engines[strategy] == ENGINE_NOT_APPLICABLE:
            raise _no_engine_error(theory)
        if requested == STRATEGY_TRANSLATE:
            routes = [
                route
                for route in (STRATEGY_DATALOG, STRATEGY_TRANSLATE, STRATEGY_WFG)
                if advice.engines[route] == ENGINE_COMPLETE
            ]
            if not routes:
                raise InvalidTheoryError("no class translation applies to this theory")
            strategy = routes[0]
    program: Optional[Theory] = None
    rewriting: Optional[WfgRewriting] = None
    fallback: Optional[str] = None
    try:
        if strategy == STRATEGY_DATALOG:
            program = theory
        elif strategy == STRATEGY_TRANSLATE:
            program = _class_translation(theory, max_rules)
        elif strategy == STRATEGY_WFG:
            rewriting = rewrite_weakly_frontier_guarded(theory, max_rules=max_rules)
    except DeadlineExceeded:
        raise
    except (TranslationError, BudgetExceeded) as error:
        if requested != "auto":
            raise
        obs = _obs_current()
        if obs is not None:
            obs.inc("advisor.fallback")
        strategy = STRATEGY_CHASE
        fallback = (
            error.reason if isinstance(error, BudgetExceeded) else "translation_error"
        )
    return AnsweringPlan(
        theory, strategy, requested, program=program, rewriting=rewriting,
        advice=advice, fallback=fallback, saturation_max_rules=saturation_max_rules,
    )


def _no_engine_error(theory: Theory) -> InvalidTheoryError:
    """Why no engine answers a theory with negation: only the Datalog
    engine evaluates negation, and only when it is stratified."""
    cycle = find_negation_cycle(theory)
    if cycle is None:
        return InvalidTheoryError(
            "no answering engine applies: negation is evaluated only in "
            "stratified Datalog, and this theory has existential rules"
        )
    path = " -> ".join([edge[0] for edge in cycle] + [cycle[0][0]])
    rules = sorted({edge[3] + 1 for edge in cycle})
    label = "rule" if len(rules) == 1 else "rules"
    return InvalidTheoryError(
        f"no answering engine applies: theory is not stratified, cycle "
        f"through negation {path} ({label} {', '.join(map(str, rules))})"
    )


def _class_translation(theory: Theory, max_rules: int) -> Theory:
    """A nearly (frontier-)guarded theory as Datalog: Proposition 4
    (NFG → NG) when needed, then Theorem 3 / Proposition 6."""
    normal = normalize(theory).theory
    if not classify(normal).nearly_guarded:
        normal = rewrite_nearly_frontier_guarded(normal, max_rules=max_rules)
    return nearly_guarded_to_datalog(normal, max_rules=max_rules)


def _section7_model(
    rewriting: WfgRewriting,
    database: Database,
    saturation_max_rules: int,
    report: Optional[PipelineReport] = None,
) -> Database:
    """Steps 2–5 of the pipeline: the database-dependent half."""
    prepared = rewriting.prepare_database(database)
    # Step 2: partial grounding → guarded theory (linear variables/rule).
    with _obs_span("pipeline.ground"):
        grounded = partial_grounding(rewriting.theory, prepared)
    # Step 3: guarded → Datalog (Theorem 3).
    with _obs_span("pipeline.saturate"):
        datalog = nearly_guarded_to_datalog(grounded, max_rules=saturation_max_rules)
    # Steps 4+5: evaluate (semi-naive = grounding on demand).
    with _obs_span("pipeline.evaluate"):
        model = evaluate(datalog, prepared)
    if report is not None:
        report.grounded_rules = len(grounded)
        report.datalog_rules = len(datalog)
    return model


def answer_wfg_query(
    query: Query,
    database: Database,
    *,
    max_rules: int = 100_000,
    saturation_max_rules: int = 200_000,
    governor: Optional[ResourceGovernor] = None,
) -> PipelineReport:
    """Answer a weakly frontier-guarded query by the five-step pipeline.

    An explicit ``governor`` is installed ambiently for the duration, so
    every stage (rewriting, saturation, evaluation) shares its deadline
    and cancellation token."""
    report = PipelineReport()
    obs = _obs_current()
    resolved = resolve_governor(governor)
    scope = governed(resolved) if resolved is not None else nullcontext()

    with scope, _obs_span("pipeline.answer_wfg", output=query.output):
        # Step 1: WFG → WG (Theorem 2).
        with _obs_span("pipeline.rewrite"):
            rewriting = rewrite_weakly_frontier_guarded(
                query.theory, max_rules=max_rules
            )
        report.rewritten_rules = len(rewriting.theory)
        model = _section7_model(rewriting, database, saturation_max_rules, report)
        plan = AnsweringPlan(query.theory, STRATEGY_WFG, rewriting=rewriting)
        report.answers = plan.decode(model, query.output)
    if obs is not None:
        obs.gauge("pipeline.rewritten_rules", report.rewritten_rules)
        obs.gauge("pipeline.grounded_rules", report.grounded_rules)
        obs.gauge("pipeline.datalog_rules", report.datalog_rules)
    return report


def answer_query(
    query: Query,
    database: Database,
    *,
    budget: Optional[ChaseBudget] = None,
    max_rules: int = 100_000,
    governor: Optional[ResourceGovernor] = None,
) -> set[tuple[Constant, ...]]:
    """Certain answers of ``(Σ, Q)`` over ``D`` by the ``auto`` plan.

    Raises the typed exhaustion error when the chase is cut short (the
    sound partial answers ride on its ``outcome``).  An explicit
    ``governor`` is installed ambiently for planning and answering."""
    scope = governed(governor) if governor is not None else nullcontext()
    with scope:
        plan = plan_answering(query.theory, max_rules=max_rules)
        return plan.answer(database, query.output, budget=budget).require("chase")
