"""Translations between the guardedness fragments (Sections 5–7).

* ``rewrite_frontier_guarded``          — FG → nearly guarded (Theorem 1)
* ``rewrite_nearly_frontier_guarded``   — NFG → nearly guarded (Prop. 4)
* ``rewrite_weakly_frontier_guarded``   — WFG → weakly guarded (Theorem 2)
* ``guarded_to_datalog``                — guarded → Datalog (Theorem 3)
* ``nearly_guarded_to_datalog``         — nearly guarded → Datalog (Prop. 6)
* ``axiomatize_acdom``                  — eliminate ACDom (Prop. 5)
* ``partial_grounding``                 — ``pg(Σ, D)``
* ``answer_wfg_query``                  — the Section 7 pipeline
* ``plan_answering`` / ``answer_query`` — the one answering planner
"""

from .acdom import axiomatize_acdom, starred
from .annotations import (
    NotCoherentlyGuardedError,
    WfgRewriting,
    annotate_database,
    annotate_theory,
    deannotate_theory,
    rewrite_weakly_frontier_guarded,
)
from .expansion import (
    ExpansionBudget,
    ExpansionResult,
    expand,
    rewrite_frontier_guarded,
    rewrite_nearly_frontier_guarded,
)
from .grounding import ground_program, partial_grounding
from .pipeline import (
    AnsweringPlan,
    PipelineReport,
    answer_query,
    answer_wfg_query,
    plan_answering,
)
from .rc_rnc import (
    RcRncBundle,
    bag_axioms,
    bag_relation,
    guard_signature_of,
    rc_rewriting,
    rnc_rewriting,
    selection_effect,
)
from .saturation import (
    SaturationBudget,
    SaturationResult,
    guarded_to_datalog,
    nearly_guarded_to_datalog,
    saturate,
)
from .selections import Selection, covered_atoms, enumerate_selections, keep_set

__all__ = [
    "AnsweringPlan",
    "ExpansionBudget",
    "ExpansionResult",
    "NotCoherentlyGuardedError",
    "PipelineReport",
    "RcRncBundle",
    "SaturationBudget",
    "SaturationResult",
    "Selection",
    "WfgRewriting",
    "annotate_database",
    "annotate_theory",
    "answer_query",
    "answer_wfg_query",
    "axiomatize_acdom",
    "bag_axioms",
    "bag_relation",
    "covered_atoms",
    "deannotate_theory",
    "enumerate_selections",
    "expand",
    "ground_program",
    "guard_signature_of",
    "guarded_to_datalog",
    "keep_set",
    "nearly_guarded_to_datalog",
    "partial_grounding",
    "plan_answering",
    "rc_rewriting",
    "rewrite_frontier_guarded",
    "rewrite_nearly_frontier_guarded",
    "rewrite_weakly_frontier_guarded",
    "rnc_rewriting",
    "saturate",
    "selection_effect",
    "starred",
]
