"""Weakly frontier-guarded → weakly guarded (Section 5.2, Theorem 2).

The three steps of the paper:

  (a) make the theory *proper* (Definition 16) and move terms in
      non-affected positions into relation annotations: ``aΣ`` rewrites
      every atom ``R(t1,…,tn)`` to ``R[t_{i+1},…,t_n](t1,…,ti)`` where
      ``i`` is the last affected position (Definition 17),
  (b) run the frontier-guarded → nearly guarded rewriting of Section 5.1
      on ``a(Σ)``,
  (c) restore annotations into trailing argument positions:
      ``a⁻`` maps ``R[~v](~t)`` to ``R(~t, ~v)`` (Definition 18).

``rew(Σ) = a⁻(rew(a(Σ)))`` is weakly guarded and preserves answers.

**Reproduction note (coherent closure).**  With the literal ``ap(Σ)``, a
*safe* variable can occupy an affected head position (``S(v,w) → R(w,v)``
where only ``(R,1)`` is affected); then ``a(Σ)`` is neither safely
annotated nor frontier-guarded, contradicting the paper's "as easily
seen" step.  We therefore compute annotations w.r.t. the *coherent*
affected-position closure (see
:func:`repro.guardedness.affected.coherent_affected_positions`), a sound
over-approximation under which every rule variable lives wholly on one
side of the cut; theories that stop being weakly frontier-guarded under
the closure are rejected with a clear error.  DESIGN.md discusses this
substitution.

Because step (a) permutes relation positions (properization), the public
entry point returns a :class:`WfgRewriting` bundling the rewritten theory
with the database/atom transformations needed to use it: the caller
permutes the input database into proper form before evaluating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.atoms import Atom
from ..core.database import Database
from ..core.rules import Rule
from ..core.terms import Constant
from ..core.theory import Theory
from ..guardedness.affected import (
    Position,
    coherent_affected_positions,
)
from ..guardedness.classify import (
    is_frontier_guarded,
    is_weakly_frontier_guarded_rule,
    is_weakly_guarded,
)
from ..guardedness.normalize import normalize
from ..guardedness.proper import ProperForm, make_proper
from ..obs.runtime import span as _obs_span
from ..robustness.errors import TranslationError
from .expansion import rewrite_frontier_guarded

__all__ = [
    "annotate_theory",
    "deannotate_theory",
    "annotate_database",
    "WfgRewriting",
    "rewrite_weakly_frontier_guarded",
    "NotCoherentlyGuardedError",
]


class NotCoherentlyGuardedError(ValueError):
    """The theory is not weakly frontier-guarded under the coherent
    affected-position closure (see module docstring)."""


def _cuts_from_ap(theory: Theory, ap: set[Position]) -> dict[str, int]:
    """For a proper theory: the number of leading affected positions."""
    cuts: dict[str, int] = {}
    for name, arity, _annotation in theory.relation_keys():
        cut = 0
        while cut < arity and (name, cut) in ap:
            cut += 1
        cuts[name] = cut
    return cuts


def _annotate_atom(atom: Atom, cuts: dict[str, int]) -> Atom:
    """``aΣ(R(t1,…,tn)) = R[t_{i+1},…,t_n](t1,…,ti)`` (Definition 17)."""
    if atom.annotation:
        raise ValueError(f"atom already annotated: {atom}")
    cut = cuts.get(atom.relation, 0)
    return Atom(atom.relation, atom.args[:cut], atom.args[cut:])


def _convert_rule(rule: Rule, convert) -> Rule:
    body = tuple(
        literal.__class__(convert(literal.atom))
        if hasattr(literal, "atom")
        else convert(literal)
        for literal in rule.body
    )
    head = tuple(convert(atom) for atom in rule.head)
    return Rule(body, head, rule.exist_vars)


def annotate_theory(
    theory: Theory, ap: Optional[set[Position]] = None
) -> Theory:
    """``a(Σ)`` for a proper theory, w.r.t. the given (default: coherent)
    affected-position set."""
    if ap is None:
        ap = coherent_affected_positions(theory)
    cuts = _cuts_from_ap(theory, ap)
    return Theory(
        _convert_rule(rule, lambda atom: _annotate_atom(atom, cuts))
        for rule in theory
    )


def annotate_database(
    database: Database, theory: Theory, ap: Optional[set[Position]] = None
) -> Database:
    """``aΣ(D)`` — annotate database atoms the same way as the theory."""
    if ap is None:
        ap = coherent_affected_positions(theory)
    cuts = _cuts_from_ap(theory, ap)
    return Database(_annotate_atom(atom, cuts) for atom in database)


def _deannotate_atom(atom: Atom) -> Atom:
    """``a⁻``: ``R[~v](~t) → R(~t, ~v)`` (Definition 18)."""
    return Atom(atom.relation, atom.args + atom.annotation)


def deannotate_theory(theory: Theory) -> Theory:
    return Theory(
        _convert_rule(rule, _deannotate_atom) for rule in theory
    )


@dataclass
class WfgRewriting:
    """The result of Theorem 2's translation.

    ``theory`` is the weakly guarded ``rew(Σ)`` over the *proper* relation
    order; use :meth:`prepare_database` on inputs and query the original
    output relation — answer tuples come back in proper argument order,
    which :meth:`restore_answer` undoes."""

    theory: Theory
    proper_form: ProperForm

    def prepare_database(self, database: Database) -> Database:
        return self.proper_form.apply_to_database(database)

    def restore_answer(
        self, relation: str, answer: tuple[Constant, ...]
    ) -> tuple[Constant, ...]:
        restored = self.proper_form.undo_on_atom(Atom(relation, answer))
        return tuple(restored.args)  # type: ignore[return-value]


def rewrite_weakly_frontier_guarded(
    theory: Theory,
    *,
    max_rules: int = 100_000,
    max_selection_domain: Optional[int] = None,
) -> WfgRewriting:
    """Theorem 2: ``rew(Σ) = a⁻(rew(a(Σ)))`` for a weakly frontier-guarded
    theory; the result is weakly guarded and preserves answers on every
    (properized) database.

    The input is normalized internally (Proposition 1)."""
    with _obs_span("translate.rewrite_wfg", rules=len(theory)):
        return _rewrite_weakly_frontier_guarded(
            theory,
            max_rules=max_rules,
            max_selection_domain=max_selection_domain,
        )


def _rewrite_weakly_frontier_guarded(
    theory: Theory,
    *,
    max_rules: int,
    max_selection_domain: Optional[int],
) -> WfgRewriting:
    normal = normalize(theory).theory
    ap = coherent_affected_positions(normal)
    for rule in normal:
        if not is_weakly_frontier_guarded_rule(rule, normal, ap):
            raise NotCoherentlyGuardedError(
                "rule is not weakly frontier-guarded under the coherent "
                f"affected-position closure: {rule}"
            )
    proper_form = make_proper(normal, ap)
    proper_ap = {
        (name, permutation_index)
        for (name, original_index) in ap
        for permutation_index, source in enumerate(
            proper_form.permutations.get(
                name, tuple(range(_arity_of(normal, name)))
            )
        )
        if source == original_index
    }
    annotated = annotate_theory(proper_form.theory, proper_ap)
    if not is_frontier_guarded(annotated):
        raise TranslationError(
            "a(Σ) must be frontier-guarded under the coherent closure"
        )
    rewritten = rewrite_frontier_guarded(
        annotated,
        max_rules=max_rules,
        max_selection_domain=max_selection_domain,
    )
    final = deannotate_theory(rewritten)
    if not is_weakly_guarded(final):
        raise TranslationError("rew(Σ) must be weakly guarded (Theorem 2)")
    return WfgRewriting(theory=final, proper_form=proper_form)


def _arity_of(theory: Theory, relation: str) -> int:
    for name, arity, _annotation in theory.relation_keys():
        if name == relation:
            return arity
    raise KeyError(relation)
