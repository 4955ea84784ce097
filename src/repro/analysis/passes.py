"""The analysis passes of the theory linter.

:func:`analyze` runs a fixed pipeline of passes over a rule set:

* **schema** — signature consistency (SCH001) and ``ACDom`` head
  occurrences (SCH002), over *raw* rules so that even rule sets a
  :class:`~repro.core.theory.Theory` would reject are diagnosable;
* **guardedness** — Figure 1 class failures (GRD001 error when a rule is
  not weakly frontier-guarded, i.e. the theory falls outside every class;
  GRD002/GRD003 notes), with guard-gap and affected-position-derivation
  witnesses;
* **termination** — one ``termination_ladder`` climb (TRM001 weak,
  TRM002 joint, TRM003 super-weak, TRM004 model-faithful via a bounded
  critical-instance chase) with cycle/trace witnesses; each rung is
  reported informationally when a later rung still proves termination;
* **estimation** — predicted chase cost on weakly acyclic theories:
  per-relation polynomial fact-count degrees (EST001) and
  null-generation depth/degree bounds (EST002) from the position
  dependency graph;
* **stratification** — negation cycles (STR001, Definition 22);
* **reachability** — rules that can never fire (RCH001) and derived
  relations nothing reads (RCH002).

Every pass is traced as an ``analysis.<name>`` span when
:mod:`repro.obs` instrumentation is active, and diagnostic counts land in
``analysis.diagnostics`` / ``analysis.diagnostics.<severity>`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

from ..chase.termination import (
    CRITERION_MFA,
    MFA_CYCLIC,
    TerminationLadder,
    estimate_chase_cost,
    termination_ladder,
)
from ..core.atoms import Atom, NegatedAtom
from ..core.parser import ParseError, parse_rules
from ..core.rules import Rule
from ..core.spans import SourceSpan
from ..core.theory import ACDOM, Theory
from ..datalog.stratification import find_negation_cycle
from ..guardedness.affected import (
    AffectedStep,
    affected_derivation,
    unsafe_variables,
    variable_body_positions,
)
from ..guardedness.classify import guard_gap, positive_reduct
from ..obs import current, span
from .diagnostics import CODES, AnalysisReport, Diagnostic, Severity

__all__ = ["AnalysisContext", "analyze", "analyze_text", "PASSES"]

#: Critical-instance chase budget used by the linter's MFA rung.  Smaller
#: than the advisor's default on purpose: lint runs on every edit and must
#: stay fast, and an inconclusive ("exhausted") check simply leaves TRM003
#: at warning severity.
LINT_MFA_MAX_STEPS = 512


@dataclass
class AnalysisContext:
    """Shared state handed to every pass."""

    rules: tuple[Rule, ...]
    theory: Optional[Theory]
    source: Optional[str]

    def span_of(self, rule_index: int) -> Optional[SourceSpan]:
        return self.rules[rule_index].span

    @cached_property
    def ladder(self) -> TerminationLadder:
        """The one termination-ladder climb of ``theory`` that the
        termination and estimation passes read; only read once
        ``theory`` is set."""
        assert self.theory is not None
        return termination_ladder(self.theory, mfa_max_steps=LINT_MFA_MAX_STEPS)


def _diag(
    code: str,
    message: str,
    *,
    rule_index: Optional[int] = None,
    span: Optional[SourceSpan] = None,
    witness: Optional[dict] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else CODES[code].severity,
        message=message,
        rule_index=rule_index,
        span=span,
        witness=witness or {},
    )


# ----------------------------------------------------------------------
# schema pass — SCH001 / SCH002
# ----------------------------------------------------------------------
def schema_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    first_use: dict[str, tuple[tuple[str, int, int], int, Atom]] = {}
    for index, rule in enumerate(ctx.rules):
        atoms: list[Atom] = []
        for literal in rule.body:
            atoms.append(literal.atom if isinstance(literal, NegatedAtom) else literal)
        atoms.extend(rule.head)
        for atom in atoms:
            key = atom.relation_key
            previous = first_use.get(atom.relation)
            if previous is None:
                first_use[atom.relation] = (key, index, atom)
            elif previous[0] != key:
                prev_key, prev_index, prev_atom = previous
                diagnostics.append(
                    _diag(
                        "SCH001",
                        f"relation {atom.relation} used with arity "
                        f"{key[1]} (annotation arity {key[2]}) but rule "
                        f"{prev_index} uses arity {prev_key[1]} "
                        f"(annotation arity {prev_key[2]})",
                        rule_index=index,
                        span=atom.span or rule.span,
                        witness={
                            "relation": atom.relation,
                            "first": {
                                "rule": prev_index,
                                "atom": str(prev_atom),
                                "arity": prev_key[1],
                                "annotation_arity": prev_key[2],
                            },
                            "conflict": {
                                "rule": index,
                                "atom": str(atom),
                                "arity": key[1],
                                "annotation_arity": key[2],
                            },
                        },
                    )
                )
        for atom in rule.head:
            if atom.relation == ACDOM:
                diagnostics.append(
                    _diag(
                        "SCH002",
                        f"{ACDOM} has a fixed extension and must not occur in "
                        "rule heads",
                        rule_index=index,
                        span=atom.span or rule.span,
                        witness={"rule": index, "atom": str(atom)},
                    )
                )
    return diagnostics


# ----------------------------------------------------------------------
# guardedness pass — GRD001 / GRD002 / GRD003
# ----------------------------------------------------------------------
def _derivation_prefix(
    steps: Sequence[AffectedStep], positions: Iterable[tuple[str, int]]
) -> list[AffectedStep]:
    """The shortest derivation prefix establishing all of ``positions``."""
    needed = set(positions)
    last = -1
    for index, step in enumerate(steps):
        if step.position in needed:
            last = index if index > last else last
    return list(steps[: last + 1])


def guardedness_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    theory = ctx.theory
    if theory is None or theory.is_datalog():
        # Plain Datalog is in every expressiveness class of Figure 1.
        return []
    reduct = positive_reduct(theory)
    steps = affected_derivation(reduct)
    ap = {step.position for step in steps}
    diagnostics: list[Diagnostic] = []
    for index, rule in enumerate(theory):
        unsafe = unsafe_variables(rule, reduct, ap)
        frontier_required = rule.argument_frontier() & unsafe
        wfg_gap = guard_gap(rule, frontier_required)
        if wfg_gap is not None:
            unsafe_witness = []
            for variable in sorted(frontier_required, key=lambda v: v.name):
                body_positions = sorted(variable_body_positions(rule, variable))
                unsafe_witness.append(
                    {
                        "variable": variable.name,
                        "body_positions": [list(p) for p in body_positions],
                        "derivation": [
                            step.to_dict()
                            for step in _derivation_prefix(steps, body_positions)
                        ],
                    }
                )
            names = ", ".join(wfg_gap.required)
            diagnostics.append(
                _diag(
                    "GRD001",
                    "rule is not weakly frontier-guarded: unsafe frontier "
                    f"variable(s) {names} are not covered by any single body "
                    "atom, so the theory falls outside every Figure 1 class",
                    rule_index=index,
                    span=rule.span,
                    witness={"gap": wfg_gap.to_dict(), "unsafe": unsafe_witness},
                )
            )
            continue  # the stronger finding subsumes the notes below
        plain_gap = guard_gap(rule, _argument_uvars(rule))
        if plain_gap is not None:
            names = ", ".join(plain_gap.required)
            diagnostics.append(
                _diag(
                    "GRD002",
                    f"rule is not guarded: universal variable(s) {names} are "
                    "not covered by any single body atom",
                    rule_index=index,
                    span=rule.span,
                    witness={"gap": plain_gap.to_dict()},
                )
            )
        wg_gap = guard_gap(rule, _argument_uvars(rule) & unsafe)
        if wg_gap is not None:
            names = ", ".join(wg_gap.required)
            diagnostics.append(
                _diag(
                    "GRD003",
                    f"rule is not weakly guarded: unsafe variable(s) {names} "
                    "are not covered by any single body atom (the theory can "
                    "only be weakly frontier-guarded)",
                    rule_index=index,
                    span=rule.span,
                    witness={"gap": wg_gap.to_dict()},
                )
            )
    return diagnostics


def _argument_uvars(rule: Rule) -> set:
    found = set()
    for atom in rule.positive_body():
        found |= atom.argument_variables()
    return found


# ----------------------------------------------------------------------
# termination pass — TRM001 / TRM002 / TRM003 / TRM004
# ----------------------------------------------------------------------
def termination_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    if ctx.theory is None:
        return []
    ladder = ctx.ladder
    cycle, graph = ladder.special_cycle, ladder.position_graph
    if cycle is None or graph is None:
        return []
    joint_cycle, swa_cycle = ladder.joint_cycle, ladder.super_weak_cycle
    mfa = ladder.mfa
    mfa_terminates = ladder.criterion == CRITERION_MFA
    cycle_witness = [
        {
            "source": list(source),
            "target": list(target),
            "special": special,
            "rule": graph.provenance.get((source, target)),
        }
        for source, target, special in cycle
    ]
    anchor = next(
        (edge["rule"] for edge in cycle_witness if edge["rule"] is not None), None
    )
    if joint_cycle is None:
        trm001_suffix = "; joint acyclicity still guarantees chase termination"
    elif swa_cycle is None:
        trm001_suffix = (
            "; super-weak acyclicity still guarantees chase termination"
        )
    elif mfa_terminates:
        trm001_suffix = (
            "; model-faithful acyclicity still guarantees chase termination"
        )
    else:
        trm001_suffix = ", so the chase is not guaranteed to terminate"
    diagnostics = [
        _diag(
            "TRM001",
            "theory is not weakly acyclic: the position dependency graph has "
            "a cycle through a special edge" + trm001_suffix,
            rule_index=anchor,
            span=ctx.span_of(anchor) if anchor is not None else None,
            witness={"cycle": cycle_witness},
            severity=Severity.INFO if ladder.terminates else None,
        )
    ]
    if joint_cycle is not None:
        if swa_cycle is None:
            trm002_suffix = (
                "; super-weak acyclicity still guarantees chase termination"
            )
        elif mfa_terminates:
            trm002_suffix = (
                "; model-faithful acyclicity still guarantees chase "
                "termination"
            )
        else:
            trm002_suffix = (
                ", so no acyclicity criterion proves chase termination"
            )
        anchor = joint_cycle[0][0]
        diagnostics.append(
            _diag(
                "TRM002",
                "theory is not jointly acyclic: existential variables feed "
                "each other in a cycle" + trm002_suffix,
                rule_index=anchor,
                span=ctx.span_of(anchor),
                witness={
                    "cycle": [
                        {"rule": rule_index, "variable": variable.name}
                        for rule_index, variable in joint_cycle
                    ]
                },
                severity=(
                    Severity.INFO
                    if swa_cycle is None or mfa_terminates
                    else None
                ),
            )
        )
    if swa_cycle is not None:
        if mfa_terminates:
            trm003_suffix = (
                "; model-faithful acyclicity still guarantees chase "
                "termination"
            )
        elif mfa is not None and mfa.verdict == MFA_CYCLIC:
            trm003_suffix = (
                ", and the critical-instance chase is cyclic (see TRM004)"
            )
        else:
            trm003_suffix = (
                ", and the bounded critical-instance chase is inconclusive"
            )
        anchor = swa_cycle[0][0]
        diagnostics.append(
            _diag(
                "TRM003",
                "theory is not super-weakly acyclic: skolem terms can move "
                "between existential positions in a cycle" + trm003_suffix,
                rule_index=anchor,
                span=ctx.span_of(anchor),
                witness={
                    "cycle": [
                        {"rule": rule_index, "variable": variable.name}
                        for rule_index, variable in swa_cycle
                    ]
                },
                severity=Severity.INFO if mfa_terminates else None,
            )
        )
    if mfa is not None and mfa.verdict == MFA_CYCLIC and mfa.cyclic is not None:
        anchor = mfa.cyclic["rule"]
        diagnostics.append(
            _diag(
                "TRM004",
                "theory is not model-faithfully acyclic: the critical-"
                "instance chase re-creates the skolem term of "
                f"{mfa.cyclic['evar']}@rule{anchor} inside itself, so no "
                "acyclicity criterion proves chase termination",
                rule_index=anchor,
                span=ctx.span_of(anchor),
                witness={
                    "max_steps": mfa.max_steps,
                    "trace": [dict(step) for step in mfa.trace],
                    "cyclic": dict(mfa.cyclic),
                },
            )
        )
    return diagnostics


# ----------------------------------------------------------------------
# estimation pass — EST001 / EST002
# ----------------------------------------------------------------------
def estimation_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    if ctx.theory is None:
        return []
    ladder = ctx.ladder
    estimate = None
    # The ladder graphs existential theories only.
    if ladder.position_graph is not None and ladder.special_cycle is None:
        estimate = estimate_chase_cost(ctx.theory, ladder.position_graph)
    if estimate is None:
        # Cost bounds are only derivable under weak acyclicity; the
        # termination pass already reports why the ladder was needed.
        return []
    cost = estimate.to_dict()
    return [
        _diag(
            "EST001",
            f"chase materializes at most O(n^{estimate.total_degree}) facts "
            "per relation on an n-constant database (weakly acyclic bound)",
            witness={
                "relations": cost["relations"],
                "total_degree": cost["total_degree"],
            },
        ),
        _diag(
            "EST002",
            f"chase generates nulls of nesting depth at most "
            f"{estimate.max_rank} across {len(cost['existentials'])} "
            "existential variable(s)",
            witness={
                "existentials": cost["existentials"],
                "max_rank": cost["max_rank"],
            },
        ),
    ]


# ----------------------------------------------------------------------
# stratification pass — STR001
# ----------------------------------------------------------------------
def stratification_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    theory = ctx.theory
    if theory is None or not theory.has_negation():
        return []
    cycle = find_negation_cycle(theory)
    if cycle is None:
        return []
    anchor = cycle[0][3]
    relations = " -> ".join([edge[0] for edge in cycle] + [cycle[0][0]])
    return [
        _diag(
            "STR001",
            f"theory is not stratifiable: cycle through negation "
            f"({relations}); stratified semantics (Definition 22) is "
            "undefined",
            rule_index=anchor,
            span=ctx.span_of(anchor),
            witness={
                "cycle": [
                    {
                        "body": body,
                        "head": head,
                        "negative": negative,
                        "rule": rule_index,
                    }
                    for body, head, negative, rule_index in cycle
                ]
            },
        )
    ]


# ----------------------------------------------------------------------
# reachability pass — RCH001 / RCH002
# ----------------------------------------------------------------------
def _live_relations(rules: Sequence[Rule]) -> set[str]:
    """Relations derivable from *some* database: EDB relations, ``ACDom``,
    and heads of rules whose positive bodies mention only live relations."""
    defined: set[str] = set()
    for rule in rules:
        for atom in rule.head:
            defined.add(atom.relation)
    live = {ACDOM}
    for rule in rules:
        for key in rule.relation_keys():
            if key[0] not in defined:
                live.add(key[0])
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if all(atom.relation in live for atom in rule.positive_body()):
                for atom in rule.head:
                    if atom.relation not in live:
                        live.add(atom.relation)
                        changed = True
    return live


def reachability_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    rules = ctx.rules
    diagnostics: list[Diagnostic] = []
    live = _live_relations(rules)
    all_relations: set[str] = set()
    for rule in rules:
        all_relations |= {key[0] for key in rule.relation_keys()}
    underivable = sorted(all_relations - live)
    # For pure Datalog the EDB/IDB split is exact: databases range over
    # relations no rule defines, so a deadlocked rule can *never* fire.
    # In the existential (chase) setting the database ranges over the
    # full signature — e.g. Example 1 seeds Scientific directly — so the
    # same deadlock is only a self-support smell, reported as info.
    datalog = all(rule.is_datalog() for rule in rules)
    for index, rule in enumerate(rules):
        blocked = sorted(
            {
                atom.relation
                for atom in rule.positive_body()
                if atom.relation not in live
            }
        )
        if blocked:
            names = ", ".join(underivable)
            if datalog:
                message = (
                    f"rule can never fire: body relation {blocked[0]} is not "
                    "derivable from the EDB (input) signature"
                )
                severity = None
            else:
                message = (
                    f"rule cannot fire unless the database seeds one of the "
                    f"self-supporting relations {{{names}}} directly"
                )
                severity = Severity.INFO
            diagnostics.append(
                _diag(
                    "RCH001",
                    message,
                    rule_index=index,
                    span=rule.span,
                    witness={"relation": blocked[0], "underivable": underivable},
                    severity=severity,
                )
            )
    read: set[str] = set()
    for rule in rules:
        for literal in rule.body:
            read.add(literal.relation)
    defined_by: dict[str, list[int]] = {}
    head_spans: dict[str, Optional[SourceSpan]] = {}
    for index, rule in enumerate(rules):
        for atom in rule.head:
            defined_by.setdefault(atom.relation, []).append(index)
            head_spans.setdefault(atom.relation, atom.span or rule.span)
    for relation in sorted(defined_by):
        if relation in read:
            continue
        indices = sorted(set(defined_by[relation]))
        diagnostics.append(
            _diag(
                "RCH002",
                f"relation {relation} is derived but never read (dead end, "
                "or the intended output relation)",
                rule_index=indices[0],
                span=head_spans[relation],
                witness={"relation": relation, "defined_by": indices},
            )
        )
    return diagnostics


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
PASSES: tuple[tuple[str, Callable[[AnalysisContext], list[Diagnostic]]], ...] = (
    ("schema", schema_pass),
    ("guardedness", guardedness_pass),
    ("termination", termination_pass),
    ("estimation", estimation_pass),
    ("stratification", stratification_pass),
    ("reachability", reachability_pass),
)


def analyze(
    subject: Union[Theory, Sequence[Rule]],
    *,
    source: Optional[str] = None,
) -> AnalysisReport:
    """Run every analysis pass over a theory or raw rule list.

    Accepts raw rules (from :func:`~repro.core.parser.parse_rules`) so
    that signature-inconsistent rule sets — which :class:`Theory`
    rejects — still produce SCH001 diagnostics; theory-level passes are
    skipped in that case."""
    if isinstance(subject, Theory):
        rules = subject.rules
    else:
        rules = tuple(subject)
    if source is None:
        for rule in rules:
            if rule.span is not None and rule.span.source is not None:
                source = rule.span.source
                break
    ctx = AnalysisContext(rules=rules, theory=None, source=source)
    diagnostics: list[Diagnostic] = []
    with span("analysis.schema", rules=len(rules)):
        diagnostics.extend(schema_pass(ctx))
    if not any(d.code.startswith("SCH") for d in diagnostics):
        if isinstance(subject, Theory):
            ctx.theory = subject
        else:
            try:
                ctx.theory = Theory(rules)
            except ValueError:
                ctx.theory = None
    for name, run in PASSES[1:]:
        with span(f"analysis.{name}", rules=len(rules)):
            diagnostics.extend(run(ctx))
    diagnostics.sort(
        key=lambda d: (
            d.span.line if d.span else 1_000_000,
            d.span.column if d.span else 0,
            d.code,
        )
    )
    instr = current()
    if instr is not None:
        instr.inc("analysis.diagnostics", len(diagnostics))
        for diagnostic in diagnostics:
            instr.inc(f"analysis.diagnostics.{diagnostic.severity.label}")
    return AnalysisReport(tuple(diagnostics), source=source)


def analyze_text(text: str, *, source: Optional[str] = None) -> AnalysisReport:
    """Parse and analyze; syntax errors become PAR001 diagnostics."""
    try:
        rules = parse_rules(text, source=source)
    except ParseError as error:
        error_span = SourceSpan(
            error.line, error.column, error.line, error.column, source
        )
        return AnalysisReport(
            (
                _diag(
                    "PAR001",
                    error.raw_message,
                    span=error_span,
                    witness={"position": error.position},
                ),
            ),
            source=source,
        )
    return analyze(rules, source=source)
