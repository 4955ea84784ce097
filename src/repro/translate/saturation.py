"""Guarded rules → Datalog via the Figure 3 calculus (Theorem 3, Prop. 6).

``Ξ(Σ)`` is the closure of a guarded theory under three inference rules:

1. **Head-atom projection** — from ``α → β ∧ A`` derive ``α → A`` when
   ``A`` carries no existential variable.
2. **Guarded composition** — from ``α → β`` and a Datalog rule
   ``γ1 ∧ γ2 → δ`` with a homomorphism ``h`` from ``γ2`` into ``β`` such
   that ``vars(h(γ1)) ⊆ vars(α)``, derive ``α ∧ h(γ1) → β ∧ h(δ)``.
3. **Body unification** — from ``α → β`` derive ``g(α) → g(β)`` for
   ``g : vars(α) → vars(α)``.

``dat(Σ)`` keeps the existential-variable-free rules of the closure; it is
a plain Datalog program with the same ground atomic consequences as ``Σ``
over every database (Theorem 3).  Proposition 6 extends this to nearly
guarded theories: saturate the guarded part, keep the safe Datalog part.

Implementation notes:

* Conclusions never introduce variables beyond the first premise's, so the
  closure is finite (the ``2^((v+c)^p · m)`` bound of Section 6); rules are
  de-duplicated by a canonical renaming key.
* Rule 3 is realized by iterated pairwise variable merges, which generate
  every variable collapse up to the α-renaming the canonical key already
  quotients away.
* For rule 2 the homomorphism ``h`` is found by backtracking each body atom
  of the Datalog premise either *into* the head ``β`` (the ``γ2`` part) or
  deferring it to ``γ1``; variables of ``γ1`` that remain unmapped are then
  bound to universal variables of the first premise in all possible ways —
  a sound superset of the paper's reading that keeps the calculus complete
  without a global standardization convention.
* The goal-directed fixpoint is delta-driven: only contexts that are new
  or grew are reprocessed, a context is offered only the Datalog rules
  with a body atom that can map onto one of its existential head atoms,
  each (body, head atom) pair is projected once, and existential rules
  with one head share their contexts (see :func:`_saturate_goal_directed`).
* A configurable budget aborts pathological closures with
  :class:`SaturationBudget` (the translation is inherently worst-case
  double exponential, Section 6)."""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ..core.atoms import Atom
from ..core.rules import Rule, RuleError, canonical_rule_key
from ..core.terms import Term, Variable
from ..core.theory import Theory
from ..guardedness.classify import is_guarded_rule, is_nearly_guarded
from ..obs.runtime import current as _obs_current
from ..robustness.errors import (
    BudgetExceeded,
    InvalidTheoryError,
    exhausted_error,
)
from ..robustness.governor import ResourceGovernor, resolve_governor
from ..robustness.outcome import Outcome

__all__ = [
    "SaturationBudget",
    "SaturationResult",
    "SaturationSnapshot",
    "saturate",
    "try_saturate",
    "resume_saturation",
    "guarded_to_datalog",
    "nearly_guarded_to_datalog",
]


class SaturationBudget(BudgetExceeded):
    """Raised when the closure exceeds the configured rule budget.

    The partial closure (and its resume snapshot, for the goal-directed
    strategy) rides on the exception's ``outcome`` attribute."""

    def __init__(self, message: str = "saturation budget exceeded", *, outcome=None):
        super().__init__(message, reason="max_rules", outcome=outcome)


class _Exhausted(Exception):
    """Internal: unwinds the saturation loops with a consistent state."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


@dataclass
class SaturationResult:
    """The closure ``Ξ(Σ)`` and the extracted Datalog program ``dat(Σ)``."""

    closure: Theory
    datalog: Theory
    derived_rules: int
    iterations: int


def _dedup_body(body: Iterable[Atom]) -> tuple[Atom, ...]:
    seen: set[Atom] = set()
    ordered: list[Atom] = []
    for atom in sorted(body):
        if atom not in seen:
            seen.add(atom)
            ordered.append(atom)
    return tuple(ordered)


def _dedup_head(head: Iterable[Atom]) -> tuple[Atom, ...]:
    return _dedup_body(head)


def _normalize_rule(rule: Rule) -> Rule:
    """Canonical atom ordering and duplicate removal (sets, per the paper).

    A rule that is already normal is returned as it is, without building
    and validating a copy: most rules the saturation adds are."""
    body = _dedup_body(rule.positive_body())
    head = _dedup_head(rule.head)
    evars = tuple(
        variable
        for variable in rule.exist_vars
        if any(variable in atom.variables() for atom in head)
    )
    if body == rule.body and head == rule.head and evars == rule.exist_vars:
        return rule
    return Rule(body, head, evars)


def _project_head(rule: Rule) -> Iterator[Rule]:
    """Inference rule 1: keep a single existential-free head atom."""
    if len(rule.head) <= 1 and not rule.exist_vars:
        return
    evars = rule.evars()
    for atom in rule.head:
        if atom.variables() & evars:
            continue
        yield Rule(rule.body, (atom,))


def _merge_variables(rule: Rule) -> Iterator[Rule]:
    """Inference rule 3 via pairwise merges of body variables."""
    body_vars = sorted(rule.uvars(), key=lambda v: v.name)
    for source, target in itertools.permutations(body_vars, 2):
        mapping = {source: target}
        try:
            yield rule.substitute(mapping)
        except RuleError:
            continue


class _Premise:
    """What guarded composition reads of its first premise ``α → β``:
    ``β`` in rule order and bucketed by relation key (each Datalog body
    atom only unifies against same-relation ``targets``), ``vars(α)`` as a
    set and sorted by name, the existential variables, and the head atoms
    that hold one (``contact``) or none (``projectable``)."""

    __slots__ = (
        "head", "targets", "uvars", "alpha_vars", "evars", "contact", "projectable"
    )

    def __init__(
        self,
        head: tuple[Atom, ...],
        alpha_vars: tuple[Variable, ...],
        evars: frozenset[Variable],
    ) -> None:
        self.head = head
        self.alpha_vars = alpha_vars
        self.uvars = frozenset(alpha_vars)
        self.evars = evars
        targets: dict[tuple, list[Atom]] = {}
        contact: list[Atom] = []
        projectable: list[Atom] = []
        for atom in head:
            targets.setdefault(atom.relation_key, []).append(atom)
            if evars.isdisjoint(atom.variables()):
                projectable.append(atom)
            else:
                contact.append(atom)
        self.targets = targets
        self.contact = tuple(contact)
        self.projectable = tuple(projectable)


def _premise_of(rule: Rule) -> _Premise:
    """The composition view of a rule, memoized on the instance — a
    saturation pass composes the same premise against every Datalog rule."""
    cached = rule.__dict__.get("_premise")
    if cached is None:
        cached = _Premise(
            rule.head,
            tuple(sorted(rule.uvars(), key=lambda v: v.name)),
            frozenset(rule.exist_vars),
        )
        object.__setattr__(rule, "_premise", cached)
    return cached


def _match_into_head(
    pattern: Atom, targets: Iterable[Atom], assignment: dict[Variable, Term]
) -> Iterator[dict[Variable, Term]]:
    """Unify a Datalog body atom with one of the same-relation head atoms
    of the first premise, extending ``assignment``.

    Terms are interned, so ``is`` comparisons are exact; the assignment is
    only copied once a new binding is actually needed."""
    pattern_terms = pattern.all_terms
    for target in targets:
        extension: dict[Variable, Term] | None = None
        ok = True
        for pattern_term, target_term in zip(pattern_terms, target.all_terms):
            if isinstance(pattern_term, Variable):
                source = assignment if extension is None else extension
                bound = source.get(pattern_term)
                if bound is None:
                    if extension is None:
                        extension = dict(assignment)
                    extension[pattern_term] = target_term
                elif bound is not target_term:
                    ok = False
                    break
            elif pattern_term is not target_term:
                ok = False
                break
        if ok:
            yield dict(assignment) if extension is None else extension


def _compositions(
    first: _Premise,
    datalog: Rule,
    max_leftover: int = 3,
    require_evar_contact: bool = False,
) -> Iterator[tuple[list[Atom], list[Atom]]]:
    """Inference rule 2 (guarded composition), as ``(h(γ1), h(δ))`` pairs.

    Splits the Datalog premise's body into a part ``γ2`` homomorphically
    mapped into ``head(first)`` and a deferred part ``γ1`` whose image must
    live on ``vars(first.body)``; the conclusion is
    ``body(first) ∧ h(γ1) → head(first) ∧ h(δ)``.

    With ``require_evar_contact`` only compositions whose homomorphism
    touches an existential variable of the first premise are produced:
    compositions entirely on the universal side are recovered at Datalog
    evaluation time by chaining the premise with head projections, so they
    are redundant for ``dat(Σ)`` — this is the goal-directed pruning."""
    first_uvars = first.uvars
    alpha_vars = first.alpha_vars
    targets = first.targets
    body = datalog.positive_body()

    def search(
        index: int,
        assignment: dict[Variable, Term],
        deferred: list[Atom],
        used_any: bool,
    ) -> Iterator[tuple[dict[Variable, Term], list[Atom]]]:
        if index == len(body):
            yield assignment, deferred
            return
        atom = body[index]
        for extension in _match_into_head(
            atom, targets.get(atom.relation_key, ()), assignment
        ):
            yield from search(index + 1, extension, deferred, True)
        # defer this atom to γ1
        yield from search(index + 1, assignment, deferred + [atom], used_any)

    evar_set = first.evars
    for assignment, deferred in search(0, {}, [], False):
        if require_evar_contact and not any(
            image in evar_set for image in assignment.values()
        ):
            continue
        leftover = sorted(
            {
                variable
                for atom in deferred
                for variable in atom.variables()
                if variable not in assignment
            },
            key=lambda v: v.name,
        )
        if len(leftover) > max_leftover:
            continue
        if leftover and not alpha_vars:
            continue
        for images in itertools.product(alpha_vars, repeat=len(leftover)):
            mapping: dict[Term, Term] = dict(assignment)
            mapping.update(zip(leftover, images))
            gamma1 = [atom.substitute(mapping) for atom in deferred]
            if any(
                term not in first_uvars
                for atom in gamma1
                for term in atom.variables()
            ):
                continue
            yield gamma1, [atom.substitute(mapping) for atom in datalog.head]


def _compose(
    first: Rule,
    datalog: Rule,
    max_leftover: int = 3,
    require_evar_contact: bool = False,
) -> Iterator[Rule]:
    """The conclusions of :func:`_compositions` as rules."""
    for gamma1, delta in _compositions(
        _premise_of(first), datalog, max_leftover, require_evar_contact
    ):
        new_body = _dedup_body(tuple(first.positive_body()) + tuple(gamma1))
        new_head = _dedup_head(tuple(first.head) + tuple(delta))
        try:
            yield Rule(new_body, new_head, first.exist_vars)
        except RuleError:
            continue


@dataclass
class _Closure:
    rules: list[Rule] = field(default_factory=list)
    keys: set[tuple] = field(default_factory=set)

    def add(self, rule: Rule) -> bool:
        rule = _normalize_rule(rule)
        key = canonical_rule_key(rule)
        if key in self.keys:
            return False
        self.keys.add(key)
        self.rules.append(rule)
        return True


def saturate(
    theory: Theory,
    *,
    max_rules: int = 50_000,
    require_guarded: bool = True,
    strategy: str = "goal-directed",
    governor: Optional[ResourceGovernor] = None,
) -> SaturationResult:
    """Compute ``Ξ(Σ)`` and ``dat(Σ)`` (Definition 19).

    ``strategy="goal-directed"`` (the default, and the spirit of the
    paper's Section 9 remarks) is a consequence-based restriction of the
    Figure 3 closure:

    * rule 2 (composition) only uses an *existential* rule as first premise
      — the head of an existential rule is the evolving description of the
      anonymous subtree it creates, and Datalog rules are composed into it;
    * rule 3 (variable merges) is only applied to existential rules —
      merged instances of pure Datalog rules are subsumed at evaluation
      time by the unmerged rule;
    * rule 1 (projection) extracts existential-free head atoms of
      existential rules into the Datalog pool, which feeds back as second
      premises.

    Ground-atom consequences that the chase derives through labeled nulls
    always factor through the existential rule that created each null, so
    the restricted closure derives the same Datalog program — this is the
    classic consequence-driven completion scheme (cf. EL / Horn-SHIQ,
    which the paper cites as its inspiration for Definition 19).

    ``strategy="exhaustive"`` applies all three inference rules to all
    premises (the literal Definition 19); it terminates by the same
    counting argument but is doubly exponential in practice and only usable
    on tiny inputs.

    ``max_rules`` bounds the closure size; exceeding it raises
    :class:`SaturationBudget` (the partial closure rides on the
    exception's ``outcome``).  Use :func:`try_saturate` for the
    non-raising, resumable variant."""
    outcome = try_saturate(
        theory,
        max_rules=max_rules,
        require_guarded=require_guarded,
        strategy=strategy,
        governor=governor,
    )
    if not outcome.complete:
        reason = outcome.exhausted or "budget"
        if reason == "max_rules":
            raise SaturationBudget(
                f"saturation exceeded {max_rules} rules", outcome=outcome
            )
        raise exhausted_error(
            reason, f"saturation exhausted ({reason})", outcome
        )
    return outcome.value


def try_saturate(
    theory: Theory,
    *,
    max_rules: int = 50_000,
    require_guarded: bool = True,
    strategy: str = "goal-directed",
    governor: Optional[ResourceGovernor] = None,
) -> Outcome[SaturationResult]:
    """Graceful :func:`saturate`: exhaustion (rule budget, deadline,
    cancellation) returns a structured partial :class:`Outcome` instead of
    discarding the closure.

    The partial closure is *sound but incomplete*: every rule in it is
    Figure-3 derivable (so every answer its ``dat(Σ)`` yields is a certain
    answer), but consequences may be missing.  For the goal-directed
    strategy the outcome carries a :class:`SaturationSnapshot`; pass it to
    :func:`resume_saturation` to continue under a fresh budget."""
    if strategy not in ("goal-directed", "exhaustive"):
        raise InvalidTheoryError(f"unknown saturation strategy {strategy!r}")
    if require_guarded:
        for rule in theory:
            if rule.has_negation():
                raise InvalidTheoryError(
                    "saturation is defined for positive rules"
                )
            if not is_guarded_rule(rule):
                raise InvalidTheoryError(f"rule is not guarded: {rule}")
    governor = resolve_governor(governor)

    obs = _obs_current()
    run_span = (
        obs.span("translate.saturate", rules=len(theory), strategy=strategy)
        if obs is not None
        else nullcontext()
    )
    with run_span as span:
        if strategy == "exhaustive":
            outcome = _saturate_exhaustive(theory, max_rules, governor)
        else:
            outcome = _saturate_goal_directed(
                theory, max_rules, governor=governor
            )
        result = outcome.value
        if obs is not None:
            obs.inc("saturation.derived_rules", result.derived_rules)
            obs.gauge("saturation.closure_rules", len(result.closure))
            obs.gauge("saturation.datalog_rules", len(result.datalog))
            if not outcome.complete:
                obs.inc("saturation.exhausted")
            span.set(
                closure_rules=len(result.closure),
                datalog_rules=len(result.datalog),
                iterations=result.iterations,
                exhausted=outcome.exhausted,
            )
    return outcome


def resume_saturation(
    snapshot: "SaturationSnapshot",
    *,
    max_rules: int = 50_000,
    governor: Optional[ResourceGovernor] = None,
) -> Outcome[SaturationResult]:
    """Continue an exhausted goal-directed saturation from its snapshot
    under a fresh budget.

    The closure operator is monotone, so restarting the fixpoint loop
    from the checkpointed state converges to the *same* closure as an
    uninterrupted run (resume-after-cut ≡ uninterrupted)."""
    return _saturate_goal_directed(
        None,
        max_rules,
        governor=resolve_governor(governor),
        snapshot=snapshot,
    )


class _Context:
    """A saturation context ``body → ∃evars. head`` and its ``root``.

    The root is the head of the existential input rule a derivation
    chain starts from, under the chain's variable merges; compositions
    leave it as it is.  Every chain keeps two invariants: Σ entails
    ``body → ∃evars. root`` (the input rule, weakened by compositions'
    extra body atoms, instantiated by merges), and Σ entails
    ``body ∧ root → head`` for all values of ``evars`` (compositions
    apply entailed Datalog rules, merges instantiate).  Two chains that
    reach one ``(root, body, evars)`` therefore prove their heads for the
    same witnesses, and their head atoms accumulate in a single
    monotonically growing head set, whichever input rule each chain
    started from.  Chains with different roots stay apart even over one
    body: their heads may hold of different nulls.

    The body is immutable, so its sorted atoms and variables are computed
    once; the composition view of the head is rebuilt only when the head
    grows (its size identifies it)."""

    __slots__ = (
        "root", "body", "evars", "head", "sorted_body", "body_vars", "_premise", "_rule"
    )

    def __init__(
        self,
        root: tuple[Atom, ...],
        body: frozenset[Atom],
        evars: tuple[Variable, ...],
        head: set[Atom],
    ) -> None:
        self.root = root
        self.body = body
        self.evars = evars
        self.head = head
        self.sorted_body = _dedup_body(body)
        self.body_vars = tuple(
            sorted({v for atom in body for v in atom.variables()}, key=lambda v: v.name)
        )
        self._premise: Optional[_Premise] = None
        self._rule: Optional[Rule] = None

    def premise(self) -> _Premise:
        premise = self._premise
        if premise is None or len(premise.head) != len(self.head):
            premise = self._premise = _Premise(
                _dedup_head(self.head), self.body_vars, frozenset(self.evars)
            )
        return premise

    def to_rule(self) -> Rule:
        head = self.premise().head
        rule = self._rule
        if rule is None or len(rule.head) != len(head):
            rule = self._rule = Rule(self.sorted_body, head, self.evars)
        return rule


class _RuleIndex:
    """Datalog rules as positions in the rule pool, offered to a context
    by existential contact.

    With ``require_evar_contact`` a rule composes into a head only if one
    of its body atoms maps onto a head atom ``H`` holding an existential
    variable: same relation key, and every constant of the body atom
    equal (``is``, as :func:`_match_into_head` compares) to ``H``'s term
    there — which also puts a body variable on each existential position
    of ``H``.  The rules that pass for ``H`` are cached per head atom until
    the index grows: head atoms recur across contexts."""

    def __init__(self) -> None:
        self.by_relation: dict[tuple, list[tuple[int, Atom]]] = {}
        self._offers: dict[Atom, list[int]] = {}

    def add(self, position: int, rule: Rule) -> None:
        for atom in rule.positive_body():
            self.by_relation.setdefault(atom.relation_key, []).append(
                (position, atom)
            )
        self._offers.clear()

    def _offer(self, target: Atom) -> list[int]:
        offered = self._offers.get(target)
        if offered is None:
            terms = target.all_terms
            offered = []
            # Positions were added in increasing order, so a rule's
            # repeated matches are adjacent.
            for position, atom in self.by_relation.get(target.relation_key, ()):
                if (not offered or offered[-1] != position) and all(
                    term is target_term or isinstance(term, Variable)
                    for term, target_term in zip(atom.all_terms, terms)
                ):
                    offered.append(position)
            self._offers[target] = offered
        return offered

    def candidates(self, premise: _Premise) -> list[int]:
        """Positions of the rules that can touch ``premise``'s existential
        head atoms, in increasing order."""
        offers = [self._offer(atom) for atom in premise.contact]
        if len(offers) == 1:
            return offers[0]
        return sorted(set().union(*offers))


@dataclass
class SaturationSnapshot:
    """Checkpoint of a goal-directed saturation.

    Besides the context table and the Datalog pool it carries the delta
    frontier: the ``worklist`` of contexts that are new or grew since
    they were last processed (the first ``round_left`` of them belong to
    the round in progress), and ``indexed``, how many pool rules are in
    the relation index — the rest were projected in the last round and
    have not yet been composed into the settled contexts.  Cuts happen
    only where this state is exact, so resuming continues the very same
    derivation sequence as an uninterrupted run.  Each context is held
    as ``(root, body, evars, head)``."""

    contexts: list[
        tuple[tuple[Atom, ...], frozenset[Atom], tuple[Variable, ...], frozenset[Atom]]
    ]
    datalog_rules: list[Rule]
    datalog_keys: set[tuple]
    worklist: list[tuple]
    round_left: int
    indexed: int
    derived: int
    iterations: int


def _saturate_goal_directed(
    theory: Optional[Theory],
    max_rules: int,
    *,
    governor: Optional[ResourceGovernor] = None,
    snapshot: Optional[SaturationSnapshot] = None,
) -> Outcome[SaturationResult]:
    """The delta-driven context fixpoint.

    Contexts are keyed by ``(root, body, evars)`` (see :class:`_Context`):
    existential rules with one head share a context per body as long as
    their merges send the head to the same atoms, so a composition one of
    them makes is not made again for the others.  Each round first
    composes the Datalog rules projected in the previous round into the
    *settled* contexts (those not on the worklist), then indexes them;
    the worklist contexts are then merged (rule 3), composed with their
    index candidates (rule 2) and projected (rule 1).  An index offers a
    context only the rules that can touch one of its existential head
    atoms, and a (body, head atom) pair already projected is not
    projected again: both skip only work that yields nothing.  Any
    addition queues work for the next round — a new or grown context
    joins the worklist, a projected rule waits to be indexed — so the
    last round adds nothing.  The governor ticks once per settled
    context in the first phase and once per worklist context in the
    second: re-running a settled context's composition after a cut adds
    nothing, and a worklist context is only dequeued after its tick."""
    datalog = _Closure()
    contexts: dict[tuple, _Context] = {}
    worklist: dict[tuple, None] = {}
    round_left = 0
    indexed = 0
    derived = 0
    iterations = 0
    index = _RuleIndex()
    # Run-local caches and counters: a resumed run starts them afresh.
    projected: set[tuple[frozenset[Atom], Atom]] = set()
    compositions = 0

    if snapshot is not None:
        datalog.rules = list(snapshot.datalog_rules)
        datalog.keys = set(snapshot.datalog_keys)
        for root, body, evars, head in snapshot.contexts:
            contexts[(root, body, evars)] = _Context(root, body, evars, set(head))
        worklist = dict.fromkeys(snapshot.worklist)
        round_left = snapshot.round_left
        indexed = snapshot.indexed
        for position in range(indexed):
            index.add(position, datalog.rules[position])
        derived = snapshot.derived
        iterations = snapshot.iterations

    def tick() -> None:
        if governor is not None:
            reason = governor.tick()
            if reason is not None:
                raise _Exhausted(reason)

    def add_context(
        root: tuple[Atom, ...],
        body: frozenset[Atom],
        evars: tuple[Variable, ...],
        head_atoms: Iterable[Atom],
    ) -> None:
        """Create or grow a context; either queues it on the worklist."""
        nonlocal derived
        key = (root, body, evars)
        context = contexts.get(key)
        if context is None:
            # Check before inserting so the checkpointed state stays
            # within budget (a resumed run sees a consistent table).
            if len(contexts) + len(datalog.rules) + 1 > max_rules:
                raise _Exhausted("max_rules")
            contexts[key] = _Context(root, body, evars, set(head_atoms))
        else:
            before = len(context.head)
            context.head |= set(head_atoms)
            if len(context.head) == before:
                return
        worklist[key] = None
        derived += 1

    def compose_into(context: _Context, rule_index: _RuleIndex) -> None:
        """Rule 2: compose the index's candidate rules into ``context``."""
        # The conclusion of (γ1, δ) is body ∧ γ1 → head ∧ δ; its rule
        # checks cannot fail (γ1 lives on the body's variables, δ on the
        # head's), so no Rule is built.  The premise is the head as it
        # was on entry, even if a composition grows this very context.
        nonlocal compositions
        premise = context.premise()
        for position in rule_index.candidates(premise):
            compositions += 1
            for gamma1, delta in _compositions(
                premise, datalog.rules[position], require_evar_contact=True
            ):
                add_context(
                    context.root,
                    context.body.union(gamma1),
                    context.evars,
                    premise.head + tuple(delta),
                )

    def process(context: _Context) -> None:
        nonlocal derived
        # Rule 3: merges of body variables, creating sibling contexts.
        for source, target in itertools.permutations(context.body_vars, 2):
            mapping = {source: target}
            add_context(
                _dedup_head(atom.substitute(mapping) for atom in context.root),
                frozenset(atom.substitute(mapping) for atom in context.body),
                context.evars,
                [atom.substitute(mapping) for atom in context.head],
            )
        # Rule 2: compose every indexed Datalog rule that can reach the head.
        compose_into(context, index)
        # Rule 1: project existential-free head atoms into the Datalog pool.
        # The projection depends on the body and the atom only, so a pair
        # already projected (by this context or one with the same body) is
        # skipped; it is marked only once its key is in the pool, so a
        # context requeued by a budget cut re-projects what it missed.
        for atom in context.premise().projectable:
            marker = (context.body, atom)
            if marker in projected:
                continue
            rule = Rule(context.sorted_body, (atom,))
            if len(contexts) + len(datalog.rules) + 1 > max_rules:
                if canonical_rule_key(_normalize_rule(rule)) not in datalog.keys:
                    raise _Exhausted("max_rules")
            elif datalog.add(rule):
                derived += 1
            projected.add(marker)

    obs = _obs_current()
    exhausted: Optional[str] = None
    round_start = derived
    try:
        if snapshot is None:
            if theory is None:
                raise InvalidTheoryError("saturation needs a theory or a snapshot")
            for rule in theory:
                if rule.is_datalog():
                    datalog.add(rule)
                else:
                    rule = _normalize_rule(rule)
                    add_context(
                        rule.head,
                        frozenset(rule.positive_body()),
                        rule.exist_vars,
                        rule.head,
                    )
            derived = round_start = 0  # the input contexts are not derived

        while worklist or indexed < len(datalog.rules):
            if round_left == 0:
                # Last round's projections meet the settled contexts; the
                # worklist ones see them through the index below.
                fresh = _RuleIndex()
                for position in range(indexed, len(datalog.rules)):
                    fresh.add(position, datalog.rules[position])
                for key, context in list(contexts.items()):
                    if key not in worklist:
                        tick()
                        compose_into(context, fresh)
                for position in range(indexed, len(datalog.rules)):
                    index.add(position, datalog.rules[position])
                indexed = len(datalog.rules)
                round_left = len(worklist)
            while round_left:
                tick()
                key = next(iter(worklist))
                del worklist[key]
                round_left -= 1
                try:
                    process(contexts[key])
                except _Exhausted:
                    # Budget cut mid-context: requeue it in front so a
                    # resumed run processes it again from the start.
                    worklist = {key: None, **worklist}
                    round_left += 1
                    raise
            iterations += 1
            if obs is not None:
                obs.observe("saturation_rules_added", derived - round_start)
            round_start = derived
    except _Exhausted as exc:
        exhausted = exc.reason
    if obs is not None:
        obs.inc("saturation.compositions", compositions)
        obs.gauge("saturation.contexts", len(contexts))

    closure_theory = Theory(
        tuple(context.to_rule() for context in contexts.values())
        + tuple(datalog.rules)
    )
    datalog_theory = Theory(datalog.rules)
    result = SaturationResult(
        closure=closure_theory,
        datalog=datalog_theory,
        derived_rules=derived,
        iterations=iterations,
    )
    resume_state = None
    if exhausted is not None:
        resume_state = SaturationSnapshot(
            contexts=[
                (c.root, c.body, c.evars, frozenset(c.head))
                for c in contexts.values()
            ],
            datalog_rules=list(datalog.rules),
            datalog_keys=set(datalog.keys),
            worklist=list(worklist),
            round_left=round_left,
            indexed=indexed,
            derived=derived,
            iterations=iterations,
        )
    return Outcome(
        value=result,
        complete=exhausted is None,
        exhausted=exhausted,
        sound=True,
        snapshot=resume_state,
    )


def _saturate_exhaustive(
    theory: Theory, max_rules: int, governor: Optional[ResourceGovernor] = None
) -> Outcome[SaturationResult]:
    closure = _Closure()
    for rule in theory:
        closure.add(rule)

    iterations = 0
    derived = 0
    index = 0
    exhausted: Optional[str] = None
    try:
        while index < len(closure.rules):
            if governor is not None:
                reason = governor.tick()
                if reason is not None:
                    raise _Exhausted(reason)
            current = closure.rules[index]
            index += 1
            iterations += 1
            new_rules: list[Rule] = []
            new_rules.extend(_project_head(current))
            new_rules.extend(_merge_variables(current))
            snapshot = list(closure.rules)
            for other in snapshot:
                if other.is_datalog():
                    new_rules.extend(_compose(current, other))
                if current.is_datalog():
                    new_rules.extend(_compose(other, current))
            for rule in new_rules:
                if closure.add(rule):
                    derived += 1
                    if len(closure.rules) > max_rules:
                        raise _Exhausted("max_rules")
    except _Exhausted as exc:
        exhausted = exc.reason

    closure_theory = Theory(closure.rules)
    datalog_theory = Theory(rule for rule in closure.rules if rule.is_datalog())
    result = SaturationResult(
        closure=closure_theory,
        datalog=datalog_theory,
        derived_rules=derived,
        iterations=iterations,
    )
    return Outcome(
        value=result,
        complete=exhausted is None,
        exhausted=exhausted,
        sound=True,
        snapshot=None,
    )


def guarded_to_datalog(
    theory: Theory,
    *,
    max_rules: int = 50_000,
    governor: Optional[ResourceGovernor] = None,
) -> Theory:
    """``dat(Σ)`` for a guarded theory (Theorem 3)."""
    return saturate(theory, max_rules=max_rules, governor=governor).datalog


def nearly_guarded_to_datalog(
    theory: Theory,
    *,
    max_rules: int = 50_000,
    governor: Optional[ResourceGovernor] = None,
) -> Theory:
    """Proposition 6: ``dat(Σg) ∪ Σd`` for a nearly guarded theory.

    ``Σg`` are the guarded rules, ``Σd`` the remaining (unsafe-variable- and
    existential-free) Datalog rules, which need no rewriting because their
    bodies only ever match original constants."""
    if not is_nearly_guarded(theory):
        raise InvalidTheoryError("theory is not nearly guarded")
    guarded_part: list[Rule] = []
    datalog_part: list[Rule] = []
    for rule in theory:
        (guarded_part if is_guarded_rule(rule) else datalog_part).append(rule)
    saturated = saturate(
        Theory(guarded_part), max_rules=max_rules, governor=governor
    )
    return Theory(tuple(saturated.datalog.rules) + tuple(datalog_part))
