"""Static chase-termination analysis: the acyclicity ladder.

The paper's related work (Section 9, [23] = Krötzsch & Rudolph, IJCAI'11)
contrasts guardedness with *acyclicity*-based decidable fragments, whose
chases terminate on every database.  This module implements a ladder of
four criteria of strictly increasing strength (weak ⊆ joint ⊆ super-weak
⊆ model-faithful) so users — and the strategy advisor — can decide when
the plain chase is a complete decision procedure (no budgets needed):

* **weak acyclicity** (Fagin et al.): build the position dependency graph
  — a regular edge ``p → q`` whenever a universal variable can be copied
  from body position ``p`` to head position ``q``, and a *special* edge
  ``p ⇒ q′`` whenever a value in ``p`` can cause a fresh null in ``q′``.
  The theory is weakly acyclic iff no cycle passes through a special
  edge; then the restricted and skolem chases terminate polynomially.

* **joint acyclicity** (strictly more general): track, per existential
  variable ``z``, the set ``Mov(z)`` of positions its nulls can reach;
  draw ``z → z′`` when the nulls of ``z`` can feed every body occurrence
  of some frontier variable of the rule introducing ``z′``.  Acyclicity
  of this graph guarantees chase termination.

* **super-weak acyclicity** (Marnette, PODS'09): refine ``Mov`` from
  positions to *places* (individual argument occurrences) and only let a
  value move from a head occurrence to a body occurrence when the two
  atoms unify (existential variables acting as rigid Skolem markers, so
  distinct constants block the move).  Same graph, fewer edges, strictly
  more theories accepted.

* **model-faithful acyclicity** (MFA; Cuenca Grau et al., JAIR'13; the
  criterion behind the finite-chase languages of arXiv 1411.5220): run
  the skolem chase on the *critical instance* — one fact per relation
  over the rule constants plus a fresh ``*`` — and accept iff it reaches
  a fixpoint without ever nesting a Skolem function inside itself.  The
  run is bounded (``max_steps``, :data:`DEFAULT_MFA_MAX_STEPS` unless
  given); exceeding the budget is reported as ``exhausted``, never as
  termination, so the verdict stays sound.

:func:`termination_ladder` is the one climb: datalog, then each rung in
turn, each only after every weaker one failed.  Its
:class:`TerminationLadder` keeps the witness of every failed rung, and
:func:`chase_terminates`, the strategy advisor, the lint termination
pass and ``repro termination`` all read that one result.

Scope of every positive verdict: the **skolem** (semi-oblivious) and
**restricted** chases terminate on every database.  The oblivious chase
may still diverge (it invents a fresh null per trigger even for repeated
frontier images).  All analyses ignore negated literals (they only
suppress inferences).

:func:`estimate_chase_cost` turns a weakly acyclic position graph into a
polynomial cost estimate — per-position degrees, per-relation fact-count
exponents and per-existential null-generation exponents — consumed by
the EST001/EST002 lint passes and the strategy advisor, which hand it
the ladder's graph, so each builds the graph once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from ..core.atoms import Atom, RelationKey
from ..core.terms import Constant, Variable
from ..core.theory import Theory
from ..guardedness.affected import Position, positions_of
from ..obs.runtime import span

__all__ = [
    "CRITERION_DATALOG",
    "CRITERION_WEAKLY_ACYCLIC",
    "CRITERION_JOINTLY_ACYCLIC",
    "CRITERION_SUPER_WEAKLY_ACYCLIC",
    "CRITERION_MFA",
    "CRITERION_UNKNOWN",
    "TERMINATION_CRITERIA",
    "DEFAULT_MFA_MAX_STEPS",
    "MFA_TERMINATES",
    "MFA_CYCLIC",
    "MFA_EXHAUSTED",
    "PositionGraph",
    "position_dependency_graph",
    "find_special_cycle",
    "joint_dependency_edges",
    "find_joint_cycle",
    "super_weak_dependency_edges",
    "find_super_weak_cycle",
    "is_weakly_acyclic",
    "is_jointly_acyclic",
    "is_super_weakly_acyclic",
    "critical_instance",
    "MfaResult",
    "mfa_check",
    "is_model_faithful_acyclic",
    "term_token_to_json",
    "term_token_from_json",
    "position_ranks",
    "CostEstimate",
    "estimate_chase_cost",
    "TerminationLadder",
    "termination_ladder",
    "chase_terminates",
]

# ----------------------------------------------------------------------
# criterion constants — the stable reason strings of ``chase_terminates``
# ----------------------------------------------------------------------
#: Every rule is Datalog; the chase adds no nulls under any policy.
CRITERION_DATALOG = "datalog"
CRITERION_WEAKLY_ACYCLIC = "weakly-acyclic"
CRITERION_JOINTLY_ACYCLIC = "jointly-acyclic"
CRITERION_SUPER_WEAKLY_ACYCLIC = "super-weakly-acyclic"
CRITERION_MFA = "model-faithful-acyclic"
#: Not proven — the problem is undecidable, so this is never "diverges".
CRITERION_UNKNOWN = "unknown"

#: The ladder in the order ``termination_ladder`` climbs it (each
#: criterion subsumes all earlier ones on existential theories).
TERMINATION_CRITERIA = (
    CRITERION_DATALOG,
    CRITERION_WEAKLY_ACYCLIC,
    CRITERION_JOINTLY_ACYCLIC,
    CRITERION_SUPER_WEAKLY_ACYCLIC,
    CRITERION_MFA,
)

#: Verdicts of the bounded MFA check.
MFA_TERMINATES = "terminates"
MFA_CYCLIC = "cyclic"
MFA_EXHAUSTED = "exhausted"

#: Default critical-instance chase budget (steps) of the MFA rung, for the
#: strategy advisor, ``repro advise`` and ``repro termination``.  Bounded:
#: exhaustion degrades the verdict to "unknown", never to an overclaim.
#: The linter runs on every edit and keeps a smaller budget of its own.
DEFAULT_MFA_MAX_STEPS = 2048

#: A node of the joint-acyclicity graph: (rule index, existential variable).
ExistentialNode = tuple[int, Variable]


@dataclass
class PositionGraph:
    """The weak-acyclicity position dependency graph.

    ``provenance`` records, per edge, the index of one rule that
    contributes it — metadata for diagnostics, irrelevant to the
    acyclicity checks themselves.
    """

    regular: set[tuple[Position, Position]] = field(default_factory=set)
    special: set[tuple[Position, Position]] = field(default_factory=set)
    provenance: dict[tuple[Position, Position], int] = field(default_factory=dict)

    def nodes(self) -> set[Position]:
        found: set[Position] = set()
        for edge_set in (self.regular, self.special):
            for source, target in edge_set:
                found.add(source)
                found.add(target)
        return found


def position_dependency_graph(theory: Theory) -> PositionGraph:
    """Build the weak-acyclicity graph over argument positions."""
    graph = PositionGraph()
    for index, rule in enumerate(theory):
        body_atoms = rule.positive_body()
        evars = rule.evars()
        head_evar_positions: set[Position] = set()
        for evar in evars:
            head_evar_positions |= positions_of(rule.head, evar)
        for variable in rule.uvars():
            body_positions = positions_of(body_atoms, variable)
            if not body_positions:
                continue
            head_positions = positions_of(rule.head, variable)
            if not head_positions:
                continue
            for source in body_positions:
                for target in head_positions:
                    graph.regular.add((source, target))
                    graph.provenance.setdefault((source, target), index)
                for target in head_evar_positions:
                    graph.special.add((source, target))
                    graph.provenance.setdefault((source, target), index)
    return graph


def find_special_cycle(
    graph: PositionGraph,
) -> Optional[list[tuple[Position, Position, bool]]]:
    """A witness cycle through a special edge, or ``None`` if weakly acyclic.

    Returns a closed edge list ``[(source, target, special?), …]`` — the
    target of each edge is the source of the next, the last edge closes
    back to the first source, and at least one edge is special.  Every
    returned edge is a real edge of ``graph`` (``special?`` selects which
    edge set it came from), so the witness can be replayed."""
    successors: dict[Position, set[Position]] = {}
    for source, target in graph.regular | graph.special:
        successors.setdefault(source, set()).add(target)

    def path(start: Position, goal: Position) -> Optional[list[Position]]:
        """Shortest node path start → goal (possibly the empty path)."""
        if start == goal:
            return [start]
        parents: dict[Position, Position] = {}
        queue, seen = [start], {start}
        while queue:
            node = queue.pop(0)
            for nxt in sorted(successors.get(node, ())):
                if nxt in seen:
                    continue
                parents[nxt] = node
                if nxt == goal:
                    nodes = [goal]
                    while nodes[-1] != start:
                        nodes.append(parents[nodes[-1]])
                    return list(reversed(nodes))
                seen.add(nxt)
                queue.append(nxt)
        return None

    def label(source: Position, target: Position) -> bool:
        """Prefer the regular label when an edge is in both sets."""
        return (source, target) not in graph.regular

    for source, target in sorted(graph.special):
        nodes = path(target, source)
        if nodes is None:
            continue
        cycle = [(source, target, True)]
        for here, nxt in zip(nodes, nodes[1:]):
            cycle.append((here, nxt, label(here, nxt)))
        return cycle
    return None


def is_weakly_acyclic(theory: Theory) -> bool:
    """Weak acyclicity — the restricted/skolem chase terminates on every
    database (in polynomially many steps)."""
    return find_special_cycle(position_dependency_graph(theory)) is None


def _existential_move_sets(theory: Theory) -> dict[tuple[int, Variable], set[Position]]:
    """``Mov(z)`` per (rule index, existential variable): the positions the
    nulls invented for ``z`` may reach, as a least fixpoint."""
    moves: dict[tuple[int, Variable], set[Position]] = {}
    for index, rule in enumerate(theory):
        for evar in rule.exist_vars:
            moves[(index, evar)] = set(positions_of(rule.head, evar))
    changed = True
    while changed:
        changed = False
        for key, move_set in moves.items():
            for rule in theory:
                for variable in rule.uvars():
                    body_positions = positions_of(rule.positive_body(), variable)
                    if not body_positions or not body_positions <= move_set:
                        continue
                    head_positions = positions_of(rule.head, variable)
                    if not head_positions <= move_set:
                        move_set |= head_positions
                        changed = True
    return moves


def joint_dependency_edges(
    theory: Theory,
) -> dict[ExistentialNode, set[ExistentialNode]]:
    """The joint-acyclicity graph over (rule index, existential variable).

    Edge ``z → z′`` when the nulls of ``z`` can instantiate *every* body
    occurrence of some frontier variable of the rule introducing ``z′``."""
    moves = _existential_move_sets(theory)
    rules = list(theory)
    edges: dict[ExistentialNode, set[ExistentialNode]] = {key: set() for key in moves}
    for source_key, move_set in moves.items():
        for target_index, rule in enumerate(rules):
            if not rule.exist_vars:
                continue
            for variable in rule.frontier():
                body_positions = positions_of(rule.positive_body(), variable)
                if body_positions and body_positions <= move_set:
                    for evar in rule.exist_vars:
                        edges[source_key].add((target_index, evar))
                    break
    return edges


def _find_existential_cycle(
    edges: dict[ExistentialNode, set[ExistentialNode]],
) -> Optional[list[ExistentialNode]]:
    """Deterministic DFS cycle search over an existential-node graph."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {key: WHITE for key in edges}
    stack: list[ExistentialNode] = []

    def visit(key: ExistentialNode) -> Optional[list[ExistentialNode]]:
        color[key] = GRAY
        stack.append(key)
        for nxt in sorted(edges.get(key, ()), key=lambda n: (n[0], n[1].name)):
            if color[nxt] == GRAY:
                return stack[stack.index(nxt):]
            if color[nxt] == WHITE:
                found = visit(nxt)
                if found is not None:
                    return found
        color[key] = BLACK
        stack.pop()
        return None

    for key in sorted(edges, key=lambda n: (n[0], n[1].name)):
        if color[key] == WHITE:
            found = visit(key)
            if found is not None:
                return found
            stack.clear()
    return None


def find_joint_cycle(theory: Theory) -> Optional[list[ExistentialNode]]:
    """A witness cycle of the joint-acyclicity graph, or ``None``.

    Returns a node list ``[n0, …, nk]`` where every consecutive pair —
    and the wrap-around ``(nk, n0)`` — is an edge of
    :func:`joint_dependency_edges`."""
    return _find_existential_cycle(joint_dependency_edges(theory))


def is_jointly_acyclic(theory: Theory) -> bool:
    """Joint acyclicity ([23]) — subsumes weak acyclicity.

    Acyclicity of the :func:`joint_dependency_edges` graph guarantees
    chase termination."""
    return find_joint_cycle(theory) is None


# ----------------------------------------------------------------------
# super-weak acyclicity (Marnette, PODS'09)
# ----------------------------------------------------------------------
#: A *place*: one argument occurrence — (rule index, "body" | "head",
#: atom index within the positive body / head, argument index).
Place = tuple[int, str, int, int]


def _rigid(token: tuple) -> bool:
    """Constants and Skolem markers never unify with a different rigid."""
    return token[0] in ("c", "sk")


def _atoms_unify(head_atom: Atom, head_rule: int, head_evars: set[Variable],
                 body_atom: Atom) -> bool:
    """Can a fact produced by ``head_atom`` match ``body_atom``?

    Positional unification over arguments *and* annotation, with the
    head's existential variables treated as rigid Skolem markers and the
    two atoms' universal variables renamed apart (a produced fact is
    matched by a fresh trigger, so body variables never co-refer with
    head variables even within one rule)."""
    parent: dict[tuple, tuple] = {}

    def find(token: tuple) -> tuple:
        while parent.get(token, token) != token:
            parent[token] = parent.get(parent[token], parent[token])
            token = parent[token]
        return token

    def union(left: tuple, right: tuple) -> bool:
        left, right = find(left), find(right)
        if left == right:
            return True
        if _rigid(left) and _rigid(right):
            return False
        if _rigid(right):  # keep the rigid token as the class root
            left, right = right, left
        parent[right] = left
        return True

    for head_term, body_term in zip(head_atom.all_terms, body_atom.all_terms):
        if isinstance(head_term, Constant):
            head_token = ("c", head_term.name)
        elif head_term in head_evars:
            head_token = ("sk", head_rule, head_term.name)
        else:
            head_token = ("hv", head_term.name)
        if isinstance(body_term, Constant):
            body_token: tuple = ("c", body_term.name)
        else:
            body_token = ("bv", body_term.name)
        if not union(head_token, body_token):
            return False
    return True


def _super_weak_reach(theory: Theory) -> dict[ExistentialNode, set[Place]]:
    """Per (rule, existential variable): the set of places the invented
    nulls can reach — the place-level refinement of ``Mov``."""
    rules = list(theory)
    # place indices over the positive bodies and heads
    body_places_of: dict[tuple[int, Variable], set[Place]] = {}
    head_places_of: dict[tuple[int, Variable], set[Place]] = {}
    body_atom_at: dict[tuple[int, int], Atom] = {}
    head_atom_at: dict[tuple[int, int], Atom] = {}
    body_by_relpos: dict[tuple[RelationKey, int], list[Place]] = {}
    for index, rule in enumerate(rules):
        for atom_index, atom in enumerate(rule.positive_body()):
            body_atom_at[(index, atom_index)] = atom
            for arg_index, term in enumerate(atom.args):
                place = (index, "body", atom_index, arg_index)
                body_by_relpos.setdefault(
                    (atom.relation_key, arg_index), []
                ).append(place)
                if isinstance(term, Variable):
                    body_places_of.setdefault((index, term), set()).add(place)
        for atom_index, atom in enumerate(rule.head):
            head_atom_at[(index, atom_index)] = atom
            for arg_index, term in enumerate(atom.args):
                if isinstance(term, Variable):
                    head_places_of.setdefault((index, term), set()).add(
                        (index, "head", atom_index, arg_index)
                    )
    # precompute the trigger relation: head place ⤳ body place
    unifiable: dict[tuple[int, int, int, int], bool] = {}

    def moves_to(place: Place) -> Iterator[Place]:
        rule_index, _, atom_index, arg_index = place
        atom = head_atom_at[(rule_index, atom_index)]
        for target in body_by_relpos.get((atom.relation_key, arg_index), ()):
            pair = (rule_index, atom_index, target[0], target[2])
            verdict = unifiable.get(pair)
            if verdict is None:
                verdict = _atoms_unify(
                    atom,
                    rule_index,
                    set(rules[rule_index].exist_vars),
                    body_atom_at[(target[0], target[2])],
                )
                unifiable[pair] = verdict
            if verdict:
                yield target

    reach_of: dict[ExistentialNode, set[Place]] = {}
    for index, rule in enumerate(rules):
        for evar in rule.exist_vars:
            reach = set(head_places_of.get((index, evar), ()))
            changed = True
            while changed:
                changed = False
                for place in [p for p in reach if p[1] == "head"]:
                    for target in moves_to(place):
                        if target not in reach:
                            reach.add(target)
                            changed = True
                for (rule_index, variable), places in body_places_of.items():
                    if places and places <= reach:
                        gained = head_places_of.get((rule_index, variable), set())
                        if not gained <= reach:
                            reach |= gained
                            changed = True
            reach_of[(index, evar)] = reach
    return reach_of


def super_weak_dependency_edges(
    theory: Theory,
) -> dict[ExistentialNode, set[ExistentialNode]]:
    """The super-weak-acyclicity graph over (rule index, existential var).

    Same shape as :func:`joint_dependency_edges`, but the move relation
    is computed over *places* with unification pruning, so every edge
    here is also a joint edge (never the other way around)."""
    reach_of = _super_weak_reach(theory)
    rules = list(theory)
    body_places_of: dict[tuple[int, Variable], set[Place]] = {}
    for index, rule in enumerate(rules):
        for atom_index, atom in enumerate(rule.positive_body()):
            for arg_index, term in enumerate(atom.args):
                if isinstance(term, Variable):
                    body_places_of.setdefault((index, term), set()).add(
                        (index, "body", atom_index, arg_index)
                    )
    edges: dict[ExistentialNode, set[ExistentialNode]] = {
        key: set() for key in reach_of
    }
    for source_key, reach in reach_of.items():
        for target_index, rule in enumerate(rules):
            if not rule.exist_vars:
                continue
            for variable in rule.frontier():
                places = body_places_of.get((target_index, variable), set())
                if places and places <= reach:
                    for evar in rule.exist_vars:
                        edges[source_key].add((target_index, evar))
                    break
    return edges


def find_super_weak_cycle(theory: Theory) -> Optional[list[ExistentialNode]]:
    """A witness cycle of the super-weak-acyclicity graph, or ``None``.

    Same witness format as :func:`find_joint_cycle`, over
    :func:`super_weak_dependency_edges`."""
    return _find_existential_cycle(super_weak_dependency_edges(theory))


def is_super_weakly_acyclic(theory: Theory) -> bool:
    """Super-weak acyclicity (Marnette) — subsumes joint acyclicity."""
    return find_super_weak_cycle(theory) is None


# ----------------------------------------------------------------------
# model-faithful acyclicity (bounded critical-instance skolem chase)
# ----------------------------------------------------------------------
#: Ground terms of the critical-instance chase, as plain JSON-able
#: tuples so witnesses round-trip losslessly:
#: ``("c", name)`` — a constant; ``("f", rule, evar, (args…))`` — a
#: Skolem term for the existential ``evar`` of rule ``rule`` applied to
#: the frontier image ``args`` (sorted by variable name).
TermToken = tuple
#: A ground fact: ``(relation_key, (term tokens over args+annotation))``.
AtomToken = tuple[RelationKey, tuple]

#: The fresh constant of the critical instance.
_STAR: TermToken = ("c", "_star_")


def term_token_to_json(token: TermToken) -> dict[str, Any]:
    """The JSON form carried by TRM004 witnesses."""
    if token[0] == "c":
        return {"kind": "const", "name": token[1]}
    return {
        "kind": "skolem",
        "rule": token[1],
        "evar": token[2],
        "args": [term_token_to_json(arg) for arg in token[3]],
    }


def term_token_from_json(raw: dict[str, Any]) -> TermToken:
    if raw["kind"] == "const":
        return ("c", str(raw["name"]))
    return (
        "f",
        int(raw["rule"]),
        str(raw["evar"]),
        tuple(term_token_from_json(arg) for arg in raw["args"]),
    )


def _token_symbols(token: TermToken) -> frozenset[tuple[int, str]]:
    """All Skolem symbols ``(rule, evar)`` occurring in the term."""
    if token[0] == "c":
        return frozenset()
    symbols = {(token[1], token[2])}
    for arg in token[3]:
        symbols |= _token_symbols(arg)
    return frozenset(symbols)


def _token_depth(token: TermToken) -> int:
    if token[0] == "c":
        return 0
    return 1 + max((_token_depth(arg) for arg in token[3]), default=0)


def critical_instance(theory: Theory) -> set[AtomToken]:
    """The critical instance: every fact over the theory's signature and
    the rule constants plus the fresh ``*``.

    Any database maps homomorphically into it (constants of the rules to
    themselves, everything else to ``*``), so skolem-chase termination
    here implies termination on every database."""
    domain: list[TermToken] = [_STAR] + [
        ("c", constant.name)
        for constant in sorted(theory.constants(), key=lambda c: c.name)
    ]
    atoms: set[AtomToken] = set()
    for key in sorted(theory.relation_keys()):
        width = key[1] + key[2]
        stack: list[tuple[TermToken, ...]] = [()]
        for _ in range(width):
            stack = [prefix + (value,) for prefix in stack for value in domain]
        for args in stack:
            atoms.add((key, args))
    return atoms


def _match_body(
    atoms: Sequence[Atom],
    index: dict[RelationKey, list[tuple]],
    assignment: dict[Variable, TermToken],
    position: int,
) -> Iterator[dict[Variable, TermToken]]:
    """Backtracking join of a positive body against the token database."""
    if position == len(atoms):
        yield dict(assignment)
        return
    atom = atoms[position]
    for fact_terms in index.get(atom.relation_key, ()):
        bound: list[Variable] = []
        ok = True
        for pattern, value in zip(atom.all_terms, fact_terms):
            if isinstance(pattern, Constant):
                if value != ("c", pattern.name):
                    ok = False
                    break
            else:
                seen = assignment.get(pattern)
                if seen is None:
                    assignment[pattern] = value
                    bound.append(pattern)
                elif seen != value:
                    ok = False
                    break
        if ok:
            yield from _match_body(atoms, index, assignment, position + 1)
        for variable in bound:
            del assignment[variable]


def _ground_atom(atom: Atom, assignment: dict[Variable, TermToken]) -> AtomToken:
    terms = tuple(
        ("c", term.name) if isinstance(term, Constant) else assignment[term]
        for term in atom.all_terms
    )
    return (atom.relation_key, terms)


@dataclass(frozen=True)
class MfaResult:
    """Outcome of the bounded critical-instance skolem chase.

    ``verdict`` is :data:`MFA_TERMINATES` (fixpoint, no cyclic term — the
    theory is model-faithful acyclic), :data:`MFA_CYCLIC` (a Skolem
    function nested inside itself — MFA refuted), or
    :data:`MFA_EXHAUSTED` (budget ran out — *no* verdict either way).
    ``trace`` replays every firing: each step names the rule, the full
    body assignment, and the added facts, so the run can be re-checked
    mechanically without re-searching for matches.  ``cyclic`` (only for
    :data:`MFA_CYCLIC`) pins the offending Skolem term."""

    verdict: str
    steps: int
    atoms: int
    nulls: int
    depth: int
    max_steps: int
    trace: tuple[dict, ...] = ()
    cyclic: Optional[dict] = None

    def to_dict(self, *, include_trace: bool = False) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "verdict": self.verdict,
            "steps": self.steps,
            "atoms": self.atoms,
            "nulls": self.nulls,
            "depth": self.depth,
            "max_steps": self.max_steps,
        }
        if include_trace:
            payload["trace"] = list(self.trace)
            payload["cyclic"] = self.cyclic
        return payload


def mfa_check(
    theory: Theory, *, max_steps: int = DEFAULT_MFA_MAX_STEPS,
    max_atoms: int = 50_000,
) -> MfaResult:
    """Bounded MFA: skolem-chase the critical instance, watching for a
    Skolem function applied (transitively) to its own output.

    Sound in the never-overclaims direction: :data:`MFA_TERMINATES` is
    only returned on a genuine fixpoint, so it certifies skolem- and
    restricted-chase termination on **every** database; hitting
    ``max_steps``/``max_atoms`` yields :data:`MFA_EXHAUSTED`."""
    database = critical_instance(theory)
    if len(database) > max_atoms:
        return MfaResult(MFA_EXHAUSTED, 0, len(database), 0, 0, max_steps)
    index: dict[RelationKey, list[tuple]] = {}
    for key, terms in sorted(database):
        index.setdefault(key, []).append(terms)
    fired: set[tuple[int, tuple]] = set()
    trace: list[dict] = []
    steps = nulls = depth = 0
    rules = list(theory)
    changed = True
    while changed:
        changed = False
        for rule_index, rule in enumerate(rules):
            frontier = sorted(rule.frontier(), key=lambda v: v.name)
            body = rule.positive_body()
            # Snapshot the matches: firing mutates the index, and the
            # skolem ``fired`` set already dedupes re-discoveries.
            for assignment in list(_match_body(body, index, {}, 0)):
                image = tuple(assignment[variable] for variable in frontier)
                key = (rule_index, image)
                if key in fired:
                    continue
                fired.add(key)
                cyclic: Optional[tuple[int, str, TermToken]] = None
                for evar in rule.exist_vars:
                    token: TermToken = ("f", rule_index, evar.name, image)
                    assignment[evar] = token
                    nulls += 1
                    depth = max(depth, _token_depth(token))
                    if cyclic is None:
                        nested = frozenset().union(
                            *(_token_symbols(arg) for arg in image)
                        ) if image else frozenset()
                        if (rule_index, evar.name) in nested:
                            cyclic = (rule_index, evar.name, token)
                added = [_ground_atom(atom, assignment) for atom in rule.head]
                fresh = [fact for fact in added if fact not in database]
                if not fresh and cyclic is None:
                    continue
                steps += 1
                trace.append(
                    {
                        "rule": rule_index,
                        "assignment": {
                            variable.name: term_token_to_json(value)
                            for variable, value in sorted(
                                assignment.items(), key=lambda kv: kv[0].name
                            )
                        },
                        "added": [
                            {
                                "relation": fact[0][0],
                                "terms": [
                                    term_token_to_json(term) for term in fact[1]
                                ],
                            }
                            for fact in added
                        ],
                    }
                )
                for fact in fresh:
                    database.add(fact)
                    index.setdefault(fact[0], []).append(fact[1])
                changed = True
                if cyclic is not None:
                    return MfaResult(
                        MFA_CYCLIC,
                        steps,
                        len(database),
                        nulls,
                        depth,
                        max_steps,
                        trace=tuple(trace),
                        cyclic={
                            "rule": cyclic[0],
                            "evar": cyclic[1],
                            "term": term_token_to_json(cyclic[2]),
                        },
                    )
                if steps >= max_steps or len(database) > max_atoms:
                    return MfaResult(
                        MFA_EXHAUSTED, steps, len(database), nulls, depth, max_steps
                    )
    return MfaResult(
        MFA_TERMINATES, steps, len(database), nulls, depth, max_steps,
        trace=tuple(trace),
    )


def is_model_faithful_acyclic(
    theory: Theory, *, max_steps: int = DEFAULT_MFA_MAX_STEPS
) -> bool:
    """MFA within budget — subsumes super-weak acyclicity (a larger
    budget can only turn ``False`` into ``True``, never the reverse)."""
    return mfa_check(theory, max_steps=max_steps).verdict == MFA_TERMINATES


# ----------------------------------------------------------------------
# cost estimation over the (weakly acyclic) position graph
# ----------------------------------------------------------------------
def position_ranks(graph: PositionGraph) -> Optional[dict[Position, int]]:
    """``rank(p)``: the maximum number of special edges on any path into
    ``p`` — finite exactly when the theory is weakly acyclic (returns
    ``None`` otherwise).  Fagin et al.'s bound: nulls created at a
    rank-``k`` position nest at most ``k`` deep."""
    nodes = graph.nodes()
    ranks = {position: 0 for position in nodes}
    bound = len(graph.special)
    for _ in range(len(nodes) * (bound + 1) + 1):
        changed = False
        for source, target in graph.regular:
            if ranks[target] < ranks[source]:
                ranks[target] = ranks[source]
                changed = True
        for source, target in graph.special:
            if ranks[target] < ranks[source] + 1:
                ranks[target] = ranks[source] + 1
                changed = True
        if not changed:
            return ranks
        if ranks and max(ranks.values()) > bound:
            return None
    return None


@dataclass(frozen=True)
class CostEstimate:
    """Polynomial bounds on the chase of a weakly acyclic theory, as
    degrees in ``n`` (the active-domain size of the input database).

    ``position_degrees[p]`` bounds the distinct values at position ``p``
    by ``O(n^d)``; ``relation_degrees[R]`` (the sum over ``R``'s
    positions) bounds the facts over ``R``; ``creation_degrees[(i, y)]``
    bounds the nulls invented for existential ``y`` of rule ``i``;
    ``depths`` bounds their nesting.  Annotation payload is treated as
    domain-bounded (degree 1), consistent with the rest of the analyses
    tracking argument positions only."""

    position_degrees: dict[Position, int]
    relation_degrees: dict[str, int]
    creation_degrees: dict[tuple[int, str], int]
    depths: dict[tuple[int, str], int]
    max_rank: int
    total_degree: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "relations": [
                {"relation": relation, "degree": degree}
                for relation, degree in sorted(self.relation_degrees.items())
            ],
            "existentials": [
                {
                    "rule": rule_index,
                    "variable": name,
                    "degree": self.creation_degrees[(rule_index, name)],
                    "depth": self.depths[(rule_index, name)],
                }
                for rule_index, name in sorted(self.creation_degrees)
            ],
            "max_rank": self.max_rank,
            "total_degree": self.total_degree,
        }


def estimate_chase_cost(
    theory: Theory, graph: PositionGraph
) -> Optional[CostEstimate]:
    """Degree bounds from the theory's position graph (``graph``, as
    :func:`position_dependency_graph` builds it) and rule fan-out, or
    ``None`` when the theory is not weakly acyclic (no polynomial bound
    exists to report).  Callers that climbed the ladder pass its graph,
    and skip the call when the ladder found a special cycle.

    The fixpoint: every position starts at degree 1 (the database may
    fill it with any of the ``n`` domain values); regular edges copy
    degrees forward (max); an existential ``y`` of rule ``i`` creates at
    most ``n^c`` nulls where ``c`` sums, over the rule's frontier
    variables, the cheapest body position each must match — and those
    nulls land on ``y``'s head positions.  Weak acyclicity makes this
    monotone iteration converge."""
    ranks = position_ranks(graph)
    if ranks is None:
        return None
    from ..core.theory import ACDOM

    degrees: dict[Position, int] = {}
    for key in theory.relation_keys():
        for arg_index in range(key[1]):
            degrees[(key[0], arg_index)] = 1
    for position in graph.nodes():
        degrees.setdefault(position, 1)
    rules = list(theory)
    creation: dict[tuple[int, str], int] = {}
    depths: dict[tuple[int, str], int] = {}
    for _ in range(10_000):
        changed = False
        for source, target in graph.regular:
            if degrees[target] < degrees[source]:
                degrees[target] = degrees[source]
                changed = True
        for rule_index, rule in enumerate(rules):
            if not rule.exist_vars:
                continue
            cost = 0
            for variable in sorted(rule.frontier(), key=lambda v: v.name):
                body_positions = positions_of(rule.positive_body(), variable)
                if body_positions:
                    cost += min(degrees[position] for position in body_positions)
                else:
                    cost += 1
            for evar in rule.exist_vars:
                creation[(rule_index, evar.name)] = cost
                head_positions = positions_of(rule.head, evar)
                depths[(rule_index, evar.name)] = max(
                    (ranks.get(position, 0) for position in head_positions),
                    default=0,
                )
                for position in head_positions:
                    if degrees[position] < cost:
                        degrees[position] = cost
                        changed = True
        if not changed:
            break
    else:  # pragma: no cover - unreachable when weakly acyclic
        return None
    relation_degrees: dict[str, int] = {}
    for key in theory.relation_keys():
        if key[0] == ACDOM:
            continue
        relation_degrees[key[0]] = sum(
            degrees[(key[0], arg_index)] for arg_index in range(key[1])
        ) if key[1] else 0
    return CostEstimate(
        position_degrees=degrees,
        relation_degrees=relation_degrees,
        creation_degrees=creation,
        depths=depths,
        max_rank=max(ranks.values(), default=0),
        total_degree=max(relation_degrees.values(), default=0),
    )


# ----------------------------------------------------------------------
# the ladder entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TerminationLadder:
    """One climb of the ladder: the criterion of the first rung that
    proves termination (:data:`CRITERION_UNKNOWN` when none does) and the
    witness of every rung that ran and failed.

    ``position_graph`` is built for every existential theory;
    ``special_cycle``, ``joint_cycle`` and ``super_weak_cycle`` are the
    weak, joint and super-weak rungs' failures, in the formats of
    :func:`find_special_cycle` and :func:`find_joint_cycle`; ``mfa`` is
    the critical-instance chase whenever the MFA rung ran, the proof when
    its verdict is :data:`MFA_TERMINATES`."""

    criterion: str
    position_graph: Optional[PositionGraph] = None
    special_cycle: Optional[list[tuple[Position, Position, bool]]] = None
    joint_cycle: Optional[list[ExistentialNode]] = None
    super_weak_cycle: Optional[list[ExistentialNode]] = None
    mfa: Optional[MfaResult] = None

    @property
    def terminates(self) -> bool:
        return self.criterion != CRITERION_UNKNOWN


def termination_ladder(
    theory: Theory, *, mfa_max_steps: Optional[int]
) -> TerminationLadder:
    """Climb datalog → weak → joint → super-weak → MFA once, stopping at
    the first rung that proves termination.

    A rung runs only after every weaker one failed, so a weakly acyclic
    theory never pays for the cycle searches above it or for the
    critical-instance chase.  ``mfa_max_steps=None`` skips the MFA rung;
    otherwise it runs under a ``chase.termination.mfa`` span."""
    if theory.is_datalog():
        return TerminationLadder(CRITERION_DATALOG)
    graph = position_dependency_graph(theory)
    special_cycle = find_special_cycle(graph)
    if special_cycle is None:
        return TerminationLadder(CRITERION_WEAKLY_ACYCLIC, graph)
    joint_cycle = find_joint_cycle(theory)
    if joint_cycle is None:
        return TerminationLadder(CRITERION_JOINTLY_ACYCLIC, graph, special_cycle)
    super_weak_cycle = find_super_weak_cycle(theory)
    if super_weak_cycle is None:
        return TerminationLadder(
            CRITERION_SUPER_WEAKLY_ACYCLIC, graph, special_cycle, joint_cycle
        )
    mfa: Optional[MfaResult] = None
    if mfa_max_steps is not None:
        with span("chase.termination.mfa", budget=mfa_max_steps):
            mfa = mfa_check(theory, max_steps=mfa_max_steps)
    proven = mfa is not None and mfa.verdict == MFA_TERMINATES
    return TerminationLadder(
        CRITERION_MFA if proven else CRITERION_UNKNOWN,
        graph, special_cycle, joint_cycle, super_weak_cycle, mfa,
    )


def chase_terminates(
    theory: Theory, *, mfa_max_steps: Optional[int] = None
) -> tuple[bool, str]:
    """Best-effort static termination verdict: :func:`termination_ladder`
    as a pair.

    Returns ``(True, criterion)`` naming the *first* criterion that
    proves termination (one of :data:`TERMINATION_CRITERIA`) and
    ``(False, CRITERION_UNKNOWN)`` otherwise — the problem is
    undecidable in general, so False means *not proven*, not
    *non-terminating*.  The MFA rung runs only when ``mfa_max_steps`` is
    given (it chases the critical instance, which is real work compared
    to the graph criteria).

    Scope of the verdicts: ``datalog`` covers every chase policy; all
    acyclicity criteria guarantee termination of the *skolem*
    (semi-oblivious) and restricted chases — the oblivious chase may
    still diverge (it invents a fresh null per trigger even for repeated
    frontier images, e.g. on ``P2(x,y) → ∃z P1(z)`` fed back by
    ``P1(x) → P2(x,x)``)."""
    ladder = termination_ladder(theory, mfa_max_steps=mfa_max_steps)
    return ladder.terminates, ladder.criterion
