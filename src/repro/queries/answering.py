"""High-level query answering over knowledge bases.

Bundles the Section 7 machinery into one call: given a (weakly
frontier-guarded) theory, a conjunctive query and a database, compute the
certain answers either directly (chase) or through the translation
pipeline, and optionally cross-check the two.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

from ..core.database import Database
from ..core.terms import Constant
from ..core.theory import Theory
from ..chase.runner import ChaseBudget
from ..robustness.governor import ResourceGovernor, governed
from ..translate.pipeline import plan_answering
from .cq import ConjunctiveQuery, knowledge_base_query

__all__ = ["AnswerComparison", "answer_cq", "compare_strategies"]


@dataclass
class AnswerComparison:
    """Answers from two strategies plus agreement."""

    via_chase: set[tuple[Constant, ...]]
    via_translation: set[tuple[Constant, ...]]

    @property
    def agree(self) -> bool:
        return self.via_chase == self.via_translation


def answer_cq(
    theory: Theory,
    cq: ConjunctiveQuery,
    database: Database,
    *,
    strategy: str = "auto",
    budget: Optional[ChaseBudget] = None,
    governor: Optional[ResourceGovernor] = None,
) -> set[tuple[Constant, ...]]:
    """Certain answers of a CQ over ``(Σ, D)``.

    ``strategy`` is passed to
    :func:`~repro.translate.pipeline.plan_answering`: ``"auto"`` (the
    advisor's strategy, with typed and counted fallbacks to the chase),
    ``"chase"`` (the budgeted restricted chase) or ``"translate"`` (the
    class route, failures propagate).  Raises the typed exhaustion error
    when the chase is cut short."""
    query = knowledge_base_query(theory, cq)
    scope = governed(governor) if governor is not None else nullcontext()
    with scope:
        plan = plan_answering(query.theory, strategy)
        return plan.answer(database, query.output, budget=budget).require("chase")


def compare_strategies(
    theory: Theory,
    cq: ConjunctiveQuery,
    database: Database,
    *,
    budget: Optional[ChaseBudget] = None,
    governor: Optional[ResourceGovernor] = None,
) -> AnswerComparison:
    """Answer by chase and by translation; report both (experiment E7)."""
    return AnswerComparison(
        via_chase=answer_cq(
            theory, cq, database, strategy="chase", budget=budget,
            governor=governor,
        ),
        via_translation=answer_cq(
            theory, cq, database, strategy="translate", budget=budget,
            governor=governor,
        ),
    )
