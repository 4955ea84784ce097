"""Witness replay — mechanical verification of analyzer findings.

Every :class:`~repro.analysis.diagnostics.Diagnostic` carries a witness
that is supposed to *prove* the finding.  :func:`replay` re-checks a
witness against the rules it was derived from, using only elementary
operations (set membership, edge existence in freshly recomputed graphs,
derivation-step checking) — never by re-running the analysis pass that
produced it.  A diagnostic whose witness does not replay is a bug in the
analyzer; the test suite replays every witness it ever sees.
"""

from __future__ import annotations

from typing import NoReturn, Optional, Sequence

from ..chase.termination import (
    TermToken,
    critical_instance,
    estimate_chase_cost,
    joint_dependency_edges,
    position_dependency_graph,
    super_weak_dependency_edges,
    term_token_from_json,
)
from ..core.atoms import Atom
from ..core.parser import ParseError, parse_rules
from ..core.rules import Rule
from ..core.terms import Constant, Variable
from ..core.theory import ACDOM, Theory
from ..datalog.stratification import dependency_edges
from ..guardedness.affected import Position, variable_body_positions
from .diagnostics import Diagnostic

__all__ = ["ReplayError", "replay"]


class ReplayError(AssertionError):
    """A witness failed mechanical verification."""


def _fail(diagnostic: Diagnostic, reason: str) -> NoReturn:
    raise ReplayError(f"{diagnostic.code} witness does not replay: {reason}")


def _position(raw: object) -> Position:
    relation, index = raw  # type: ignore[misc]
    return (str(relation), int(index))


def _rule_at(
    diagnostic: Diagnostic, rules: Sequence[Rule], index: object
) -> Rule:
    if not isinstance(index, int) or not 0 <= index < len(rules):
        _fail(diagnostic, f"rule index {index!r} out of range")
    return rules[index]


def replay(
    diagnostic: Diagnostic,
    rules: Sequence[Rule],
    *,
    text: Optional[str] = None,
) -> None:
    """Verify ``diagnostic``'s witness against ``rules`` (raises
    :class:`ReplayError` on failure, returns ``None`` on success).

    ``text`` is only needed for PAR001 (the original source text, so the
    parse failure can be reproduced)."""
    handler = _HANDLERS.get(diagnostic.code)
    if handler is None:
        _fail(diagnostic, f"unknown diagnostic code {diagnostic.code}")
    if diagnostic.code == "PAR001":
        _replay_parse(diagnostic, text)
    else:
        handler(diagnostic, tuple(rules))


# ----------------------------------------------------------------------
# per-code verifiers
# ----------------------------------------------------------------------
def _replay_parse(diagnostic: Diagnostic, text: Optional[str]) -> None:
    if text is None:
        _fail(diagnostic, "original text required to replay a parse error")
    try:
        parse_rules(text)
    except ParseError as error:
        if diagnostic.span is None:
            _fail(diagnostic, "parse diagnostic has no span")
        if (error.line, error.column) != (
            diagnostic.span.line,
            diagnostic.span.column,
        ):
            _fail(
                diagnostic,
                f"parse error moved: reported {diagnostic.span.line}:"
                f"{diagnostic.span.column}, replay found "
                f"{error.line}:{error.column}",
            )
        return
    _fail(diagnostic, "text parses cleanly")


def _replay_schema_arity(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    witness = diagnostic.witness
    relation = witness["relation"]
    keys = set()
    for site in (witness["first"], witness["conflict"]):
        rule = _rule_at(diagnostic, rules, site["rule"])
        key = (relation, site["arity"], site["annotation_arity"])
        if key not in rule.relation_keys():
            _fail(
                diagnostic,
                f"rule {site['rule']} does not use {relation} with "
                f"arity {site['arity']}/{site['annotation_arity']}",
            )
        keys.add(key)
    if len(keys) != 2:
        _fail(diagnostic, "the two claimed signatures coincide")


def _replay_schema_acdom(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    rule = _rule_at(diagnostic, rules, diagnostic.witness["rule"])
    if not any(atom.relation == ACDOM for atom in rule.head):
        _fail(diagnostic, f"{ACDOM} does not occur in the rule head")


def _check_gap(diagnostic: Diagnostic, rule: Rule) -> set[Variable]:
    """Verify a guard-gap witness; returns the required variable set."""
    gap = diagnostic.witness.get("gap")
    if not gap:
        _fail(diagnostic, "missing guard-gap witness")
    required = {Variable(name) for name in gap["required"]}
    if not required:
        _fail(diagnostic, "empty required set is trivially guarded")
    body = list(rule.positive_body())
    entries = gap["atoms"]
    if len(entries) != len(body):
        _fail(diagnostic, "gap does not cover every positive body atom")
    for atom, entry in zip(body, entries):
        if str(atom) != entry["atom"]:
            _fail(diagnostic, f"gap atom {entry['atom']!r} is not {atom}")
        missing = {Variable(name) for name in entry["missing"]}
        if missing != required - atom.argument_variables():
            _fail(diagnostic, f"missing set for {atom} is wrong")
        if not missing:
            _fail(diagnostic, f"atom {atom} covers the required set")
    rule_variables = set()
    for atom in body:
        rule_variables |= atom.argument_variables()
    if not required <= rule_variables | set(rule.exist_vars):
        _fail(diagnostic, "required variables do not occur in the rule")
    return required


def _check_derivation(
    diagnostic: Diagnostic, rules: Sequence[Rule], entry: dict
) -> None:
    """Walk one unsafe-variable derivation, checking every step's premise."""
    established: set[Position] = set()
    for step in entry["derivation"]:
        position = _position(step["position"])
        rule = _rule_at(diagnostic, rules, step["rule"])
        variable = Variable(step["variable"])
        head_positions = set()
        for atom in rule.head:
            for index, term in enumerate(atom.args):
                if term == variable:
                    head_positions.add((atom.relation, index))
        if position not in head_positions:
            _fail(
                diagnostic,
                f"{variable.name} does not occur at {position} in the head "
                f"of rule {step['rule']}",
            )
        if step["kind"] == "existential":
            if variable not in rule.exist_vars:
                _fail(
                    diagnostic,
                    f"{variable.name} is not existential in rule {step['rule']}",
                )
        elif step["kind"] == "propagated":
            sources = {_position(raw) for raw in step["sources"]}
            if sources != variable_body_positions(rule, variable):
                _fail(
                    diagnostic,
                    f"sources of {variable.name} in rule {step['rule']} are "
                    "not its body positions",
                )
            if not sources <= established:
                _fail(
                    diagnostic,
                    f"premises of step at {position} not established earlier",
                )
        else:
            _fail(diagnostic, f"unknown derivation step kind {step['kind']!r}")
        established.add(position)
    body_positions = {_position(raw) for raw in entry["body_positions"]}
    if not body_positions:
        _fail(diagnostic, "unsafe variable with no body positions")
    if not body_positions <= established:
        _fail(
            diagnostic,
            f"derivation does not establish all body positions of "
            f"{entry['variable']}",
        )


def _replay_guard(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    rule = _rule_at(diagnostic, rules, diagnostic.rule_index)
    required = _check_gap(diagnostic, rule)
    if diagnostic.code == "GRD001":
        unsafe_entries = diagnostic.witness.get("unsafe", ())
        claimed = {Variable(entry["variable"]) for entry in unsafe_entries}
        if claimed != required:
            _fail(diagnostic, "unsafe entries do not match the required set")
        frontier = rule.argument_frontier()
        for entry in unsafe_entries:
            variable = Variable(entry["variable"])
            if variable not in frontier:
                _fail(diagnostic, f"{variable.name} is not a frontier variable")
            positions = {_position(raw) for raw in entry["body_positions"]}
            if positions != variable_body_positions(rule, variable):
                _fail(
                    diagnostic,
                    f"body positions of {variable.name} are misreported",
                )
            _check_derivation(diagnostic, rules, entry)


def _replay_weak_acyclicity(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    graph = position_dependency_graph(Theory(rules))
    edges = diagnostic.witness["cycle"]
    if not edges:
        _fail(diagnostic, "empty cycle")
    if not any(edge["special"] for edge in edges):
        _fail(diagnostic, "cycle has no special edge")
    for position, edge in enumerate(edges):
        source = _position(edge["source"])
        target = _position(edge["target"])
        edge_set = graph.special if edge["special"] else graph.regular
        if (source, target) not in edge_set:
            kind = "special" if edge["special"] else "regular"
            _fail(diagnostic, f"{source} -> {target} is not a {kind} edge")
        following = edges[(position + 1) % len(edges)]
        if target != _position(following["source"]):
            _fail(diagnostic, "cycle is not closed")


def _replay_evar_cycle(
    diagnostic: Diagnostic, rules: Sequence[Rule], edges: dict
) -> None:
    """A cycle over ``(rule, existential variable)`` nodes in ``edges``."""
    nodes = diagnostic.witness["cycle"]
    if not nodes:
        _fail(diagnostic, "empty cycle")
    keys = []
    for node in nodes:
        rule = _rule_at(diagnostic, rules, node["rule"])
        variable = Variable(node["variable"])
        if variable not in rule.exist_vars:
            _fail(
                diagnostic,
                f"{variable.name} is not existential in rule {node['rule']}",
            )
        keys.append((node["rule"], variable))
    for position, key in enumerate(keys):
        following = keys[(position + 1) % len(keys)]
        if following not in edges.get(key, ()):
            _fail(
                diagnostic,
                f"no existential dependency {key} -> {following}",
            )


def _replay_joint_acyclicity(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    _replay_evar_cycle(diagnostic, rules, joint_dependency_edges(Theory(rules)))


def _replay_super_weak_acyclicity(
    diagnostic: Diagnostic, rules: Sequence[Rule]
) -> None:
    _replay_evar_cycle(
        diagnostic, rules, super_weak_dependency_edges(Theory(rules))
    )


def _ground_tokens(
    diagnostic: Diagnostic, atom: Atom, assignment: dict
) -> tuple:
    terms = []
    for term in atom.all_terms:
        if isinstance(term, Constant):
            terms.append(("c", term.name))
        elif term in assignment:
            terms.append(assignment[term])
        else:
            _fail(diagnostic, f"variable {term} unbound in a trace step")
    return (atom.relation_key, tuple(terms))


def _contains_symbol(token: TermToken, symbol: tuple) -> bool:
    if token[0] == "c":
        return False
    if (token[1], token[2]) == symbol:
        return True
    return any(_contains_symbol(arg, symbol) for arg in token[3])


def _replay_mfa_cyclic(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    """Walk the critical-instance chase trace step by step: every body
    fact must hold in the instance built so far, skolem terms must be the
    canonical function of the frontier image, every claimed addition must
    be the grounded head — and the final step must mint a skolem term
    nested inside its own symbol."""
    witness = diagnostic.witness
    trace = witness.get("trace", ())
    cyclic = witness.get("cyclic")
    if not trace or not cyclic:
        _fail(diagnostic, "missing chase trace or cyclic term")
    database = critical_instance(Theory(rules))
    for number, step in enumerate(trace):
        rule = _rule_at(diagnostic, rules, step["rule"])
        assignment = {
            Variable(name): term_token_from_json(token)
            for name, token in step["assignment"].items()
        }
        frontier = sorted(rule.frontier(), key=lambda v: v.name)
        if any(variable not in assignment for variable in frontier):
            _fail(diagnostic, f"step {number} does not bind the frontier")
        image = tuple(assignment[variable] for variable in frontier)
        for evar in rule.exist_vars:
            expected: TermToken = ("f", step["rule"], evar.name, image)
            if assignment.get(evar) != expected:
                _fail(
                    diagnostic,
                    f"step {number}: skolem term of {evar.name} is not "
                    "determined by the frontier image",
                )
        for atom in rule.positive_body():
            if _ground_tokens(diagnostic, atom, assignment) not in database:
                _fail(
                    diagnostic,
                    f"step {number}: body atom {atom} does not hold in the "
                    "chased instance",
                )
        grounded = [
            _ground_tokens(diagnostic, atom, assignment) for atom in rule.head
        ]
        claimed = [
            (
                entry["relation"],
                tuple(term_token_from_json(raw) for raw in entry["terms"]),
            )
            for entry in step["added"]
        ]
        if [(fact[0][0], fact[1]) for fact in grounded] != claimed:
            _fail(
                diagnostic,
                f"step {number}: claimed additions are not the grounded head",
            )
        fresh = [fact for fact in grounded if fact not in database]
        if not fresh and number != len(trace) - 1:
            _fail(diagnostic, f"step {number} adds nothing new")
        database.update(grounded)
    term = term_token_from_json(cyclic["term"])
    last = trace[-1]
    if cyclic["rule"] != last["rule"]:
        _fail(diagnostic, "cyclic term is not minted by the final step")
    rule = _rule_at(diagnostic, rules, cyclic["rule"])
    if Variable(cyclic["evar"]) not in rule.exist_vars:
        _fail(
            diagnostic,
            f"{cyclic['evar']} is not existential in rule {cyclic['rule']}",
        )
    minted = last["assignment"].get(cyclic["evar"])
    if minted is None or term_token_from_json(minted) != term:
        _fail(diagnostic, "cyclic term differs from the final step's skolem")
    if term[0] != "f" or (term[1], term[2]) != (cyclic["rule"], cyclic["evar"]):
        _fail(diagnostic, "cyclic term does not belong to the claimed symbol")
    if not any(_contains_symbol(arg, (term[1], term[2])) for arg in term[3]):
        _fail(diagnostic, "cyclic term does not nest its own skolem symbol")


def _replay_cost_estimate(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    """EST bounds are a function of the position graph; recompute the
    degree/rank fixpoint and compare every claimed figure exactly."""
    theory = Theory(rules)
    estimate = estimate_chase_cost(theory, position_dependency_graph(theory))
    if estimate is None:
        _fail(diagnostic, "theory is not weakly acyclic; no bound derivable")
    cost = estimate.to_dict()
    witness = diagnostic.witness
    if diagnostic.code == "EST001":
        checks = (("relations", "relations"), ("total_degree", "total_degree"))
    else:
        checks = (("existentials", "existentials"), ("max_rank", "max_rank"))
    for witness_key, cost_key in checks:
        if witness.get(witness_key) != cost[cost_key]:
            _fail(
                diagnostic,
                f"claimed {witness_key} does not match a fresh estimate",
            )


def _replay_stratification(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    all_edges = set(dependency_edges(Theory(rules)))
    edges = diagnostic.witness["cycle"]
    if not edges:
        _fail(diagnostic, "empty cycle")
    if not any(edge["negative"] for edge in edges):
        _fail(diagnostic, "cycle has no negative edge")
    for position, edge in enumerate(edges):
        tupled = (edge["body"], edge["head"], edge["negative"], edge["rule"])
        if tupled not in all_edges:
            _fail(diagnostic, f"{tupled} is not a dependency edge")
        following = edges[(position + 1) % len(edges)]
        if edge["head"] != following["body"]:
            _fail(diagnostic, "cycle is not closed")


def _replay_dead_rule(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    witness = diagnostic.witness
    relation = witness["relation"]
    underivable = set(witness["underivable"])
    rule = _rule_at(diagnostic, rules, diagnostic.rule_index)
    if relation not in {atom.relation for atom in rule.positive_body()}:
        _fail(diagnostic, f"{relation} is not in the rule's positive body")
    if relation not in underivable:
        _fail(diagnostic, f"{relation} is not in the deadlocked set")
    # The deadlocked set is a certificate of underivability: every member
    # is defined only by rules that read another member positively.
    for member in underivable:
        if member == ACDOM:
            _fail(diagnostic, f"{ACDOM} is always derivable")
        defining = [
            candidate
            for candidate in rules
            if any(atom.relation == member for atom in candidate.head)
        ]
        if not defining:
            _fail(diagnostic, f"{member} is an EDB relation, hence derivable")
        for candidate in defining:
            body_relations = {
                atom.relation for atom in candidate.positive_body()
            }
            if not body_relations & underivable:
                _fail(
                    diagnostic,
                    f"a rule derives {member} from outside the deadlocked set",
                )


def _replay_unread_relation(diagnostic: Diagnostic, rules: Sequence[Rule]) -> None:
    witness = diagnostic.witness
    relation = witness["relation"]
    for rule in rules:
        if any(literal.relation == relation for literal in rule.body):
            _fail(diagnostic, f"{relation} is read by a rule body")
    defining = {
        index
        for index, rule in enumerate(rules)
        if any(atom.relation == relation for atom in rule.head)
    }
    if set(witness["defined_by"]) != defining or not defining:
        _fail(diagnostic, f"defining rules of {relation} are misreported")


_HANDLERS = {
    "PAR001": _replay_parse,
    "SCH001": _replay_schema_arity,
    "SCH002": _replay_schema_acdom,
    "GRD001": _replay_guard,
    "GRD002": _replay_guard,
    "GRD003": _replay_guard,
    "TRM001": _replay_weak_acyclicity,
    "TRM002": _replay_joint_acyclicity,
    "TRM003": _replay_super_weak_acyclicity,
    "TRM004": _replay_mfa_cyclic,
    "EST001": _replay_cost_estimate,
    "EST002": _replay_cost_estimate,
    "STR001": _replay_stratification,
    "RCH001": _replay_dead_rule,
    "RCH002": _replay_unread_relation,
}
