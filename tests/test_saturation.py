"""Tests for the Figure 3 saturation calculus (Theorem 3, Proposition 6)."""

import random

import pytest

from repro.core import (
    Atom,
    Query,
    Rule,
    Theory,
    Variable,
    parse_database,
    parse_theory,
)
from repro.core.rules import canonical_rule_key
from repro.chase import ChaseBudget, answers_in, chase
from repro.obs import instrumented
from repro.datalog import datalog_answers, evaluate
from repro.bench.generators import (
    random_database,
    random_guarded_theory,
    random_signature,
)
from repro.translate import (
    SaturationBudget,
    guarded_to_datalog,
    nearly_guarded_to_datalog,
    saturate,
)

EXAMPLE7 = parse_theory(
    """
    A(x) -> exists y. R(x, y)
    R(x, y) -> S(y, y)
    S(x, y) -> exists z. T(x, y, z)
    T(x, x, y) -> B(x)
    C(x), R(x, y), B(y) -> D(x)
    """
)


class TestExample7:
    """The paper's worked derivation σ6 … σ12."""

    def test_sigma12_derived(self):
        result = saturate(EXAMPLE7)
        target = canonical_rule_key(parse_theory("A(x), C(x) -> D(x)").rules[0])
        assert target in {canonical_rule_key(rule) for rule in result.datalog}

    def test_query_answered_by_datalog(self):
        datalog = guarded_to_datalog(EXAMPLE7)
        db = parse_database("A(c). C(c).")
        answers = datalog_answers(Query(datalog, "D"), db)
        assert {t[0].name for t in answers} == {"c"}

    def test_agrees_with_chase(self):
        datalog = guarded_to_datalog(EXAMPLE7)
        db = parse_database("A(c). C(c).")
        chased = chase(EXAMPLE7, db, policy="restricted")
        assert chased.complete
        fixpoint = evaluate(datalog, db)
        for relation in sorted(EXAMPLE7.relations()):
            assert answers_in(chased.database, relation) == answers_in(
                fixpoint, relation
            )

    def test_datalog_output_is_datalog(self):
        datalog = guarded_to_datalog(EXAMPLE7)
        assert datalog.is_datalog()

    def test_original_datalog_rules_kept(self):
        result = saturate(EXAMPLE7)
        original = canonical_rule_key(
            parse_theory("C(x), R(x, y), B(y) -> D(x)").rules[0]
        )
        assert original in {canonical_rule_key(r) for r in result.datalog}


class TestCalculusMechanics:
    def test_projection_rule(self):
        """Inference rule 1: existential-free head atoms project out."""
        theory = parse_theory("A(x) -> exists y. R(x, y)")
        # composing with R(x,y) -> S(x) gives head S(x) without evars
        theory = theory.extend(parse_theory("R(x,y) -> S(x)").rules)
        result = saturate(theory)
        target = canonical_rule_key(parse_theory("A(x) -> S(x)").rules[0])
        assert target in {canonical_rule_key(r) for r in result.datalog}

    def test_merge_rule_needed(self):
        """σ6-style derivation requires unifying body variables."""
        theory = parse_theory(
            """
            A(x) -> exists y. R(y, y)
            R(x, y), Eq(x, y) -> W(x)
            """
        )
        # without merging x,y in the second rule the match into R(y,y) fails
        result = saturate(theory)
        assert len(result.datalog) >= 1

    def test_requires_guarded(self):
        with pytest.raises(ValueError):
            saturate(parse_theory("E(x,y), E(y,z) -> T(x,z)"))

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            saturate(parse_theory("P(x), not Q(x) -> R(x)"))

    def test_budget_raises(self):
        with pytest.raises(SaturationBudget):
            saturate(EXAMPLE7, max_rules=2)

    def test_exhaustive_strategy_on_tiny_theory(self):
        theory = parse_theory("A(x) -> exists y. R(x, y)\nR(x,y) -> S(x)")
        goal = saturate(theory, strategy="goal-directed")
        exhaustive = saturate(theory, strategy="exhaustive", max_rules=5000)
        goal_keys = {canonical_rule_key(r) for r in goal.datalog}
        exhaustive_keys = {canonical_rule_key(r) for r in exhaustive.datalog}
        assert goal_keys <= exhaustive_keys

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            saturate(EXAMPLE7, strategy="magic")


class TestNearlyGuarded:
    def test_proposition6_shape(self):
        theory = parse_theory(
            """
            A(x) -> exists y. R(x, y)
            R(x,y) -> S(x)
            S(x), S(y), E(x,y) -> Link(x, y)
            """
        )
        datalog = nearly_guarded_to_datalog(theory)
        assert datalog.is_datalog()
        # the non-guarded Datalog rule passes through verbatim
        passthrough = canonical_rule_key(
            parse_theory("S(x), S(y), E(x,y) -> Link(x, y)").rules[0]
        )
        assert passthrough in {canonical_rule_key(r) for r in datalog}

    def test_proposition6_answers(self):
        theory = parse_theory(
            """
            A(x) -> exists y. R(x, y)
            R(x,y) -> S(x)
            S(x), S(y), E(x,y) -> Link(x, y)
            """
        )
        db = parse_database("A(a). A(b). E(a,b).")
        datalog = nearly_guarded_to_datalog(theory)
        chased = chase(theory, db, policy="restricted")
        assert chased.complete
        assert answers_in(chased.database, "Link") == answers_in(
            evaluate(datalog, db), "Link"
        )

    def test_rejects_non_nearly_guarded(self):
        theory = parse_theory(
            """
            Start(x) -> exists y. R(x, y)
            R(x,y) -> exists z. R(y, z)
            R(x,y), R(y,z) -> Two(x, z)
            """
        )
        with pytest.raises(ValueError):
            nearly_guarded_to_datalog(theory)


def _agrees_with_chase(theory, db) -> bool:
    """Whether ``dat(Σ)`` over ``db`` gives the restricted chase's atoms on
    every relation of ``theory``; ``False`` when either side runs out of
    budget (the draw is skipped)."""
    try:
        datalog = guarded_to_datalog(theory, max_rules=5000)
    except SaturationBudget:
        return False
    chased = chase(
        theory, db, policy="restricted", budget=ChaseBudget(max_steps=2000)
    )
    if not chased.complete:
        return False
    fixpoint = evaluate(datalog, db)
    for relation in sorted(theory.relations()):
        assert answers_in(chased.database, relation) == answers_in(
            fixpoint, relation
        ), f"mismatch on {relation} for:\n{theory}"
    return True


def _share_a_head(rng, theory):
    """Add a rule that copies an existential rule's head onto another
    body: another rule's, or its own with the variables permuted, which
    variable merges bring back together with the original.  Two rules then
    create their nulls from the same head atoms; ``None`` when no body
    holds the head's frontier."""
    rules = list(theory)
    for source in rng.sample(rules, len(rules)):
        if not source.exist_vars:
            continue
        variables = sorted(source.positive_body_variables(), key=lambda v: v.name)
        renaming = dict(zip(variables, rng.sample(variables, len(variables))))
        bodies = [
            rule.positive_body()
            for rule in rules
            if source.frontier() <= rule.positive_body_variables()
        ]
        bodies.append(
            tuple(atom.substitute(renaming) for atom in source.positive_body())
        )
        bodies = [
            body for body in bodies if set(body) != set(source.positive_body())
        ]
        if bodies:
            return theory.extend(
                [Rule(rng.choice(bodies), source.head, source.exist_vars)]
            )
    return None


def _contexts(theory) -> int:
    with instrumented() as instr:
        saturate(theory)
    return instr.metrics.gauges["saturation.contexts"]


def _heads_apart(theory):
    """``theory`` with each existential rule's variables renamed apart: no
    two rules then share a head, so none share a context."""
    rules = []
    for number, rule in enumerate(theory):
        if rule.exist_vars:
            renaming = {
                variable: Variable(f"{variable.name}_{number}")
                for variable in rule.exist_vars
            }
            rule = Rule(
                rule.body,
                tuple(atom.substitute(renaming) for atom in rule.head),
                tuple(renaming.values()),
            )
        rules.append(rule)
    return Theory(rules)


_X, _Y, _U, _W = (Variable(name) for name in "xyuw")


def _unmerge(rng, body, variable):
    """``body`` with a random nonempty set of ``variable``'s occurrences
    replaced by ``x``, so that merging ``x`` into ``variable`` gives
    ``body`` back; ``None`` unless some atom then holds x, y and u."""
    spots = [
        (i, j)
        for i, atom in enumerate(body)
        for j, term in enumerate(atom.all_terms)
        if term is variable
    ]
    chosen = {spot for spot in spots if rng.random() < 0.5}
    atoms = [
        Atom(
            atom.relation,
            tuple(
                _X if (i, j) in chosen else term
                for j, term in enumerate(atom.all_terms)
            ),
        )
        for i, atom in enumerate(body)
    ]
    if chosen and any({_X, _Y, _U} <= atom.variables() for atom in atoms):
        return atoms
    return None


def _merges_onto_one_body(rng):
    """A theory in which the merges x→y and x→u reach one body over y and
    u from rules with head ``R(x, w)``, sending the frontier x to y and to
    u, and a database that holds that body at y=b, u=c.  The chase makes
    one null for b and one for c, so a context that joined the two
    merges would give one null the ``Tag`` of both and answer ``Bad`` for
    the constant without ``Mark``.  Either two rules un-merge the body
    (one at y, one at u), or one rule holds it and an atom over x, y and
    u that both merges send into it."""
    two_rules = rng.random() < 0.5
    while True:
        merged = [
            Atom(rng.choice("GK"), tuple(rng.choice((_Y, _U)) for _ in range(3)))
            for _ in range(rng.randint(1, 3))
        ]
        if two_rules:
            bodies = [_unmerge(rng, merged, _Y), _unmerge(rng, merged, _U)]
        else:
            atom = Atom(rng.choice("GK"), tuple(rng.sample((_X, _Y, _U), 3)))
            merged += [atom.substitute({_X: _Y}), atom.substitute({_X: _U})]
            bodies = [merged + [atom]]
        if all(bodies):
            break
    head = Atom("R", (_X, _W))
    theory = Theory(
        [Rule(rule_body, (head,), (_W,)) for rule_body in bodies]
        + list(
            parse_theory(
                """
                R(x, w), Mark(x) -> Tag(w)
                R(x, w), Tag(w) -> Bad(x)
                """
            )
        )
    )
    constants = {_Y: "b", _U: "c"}
    facts = [
        f"{atom.relation}({', '.join(constants[term] for term in atom.all_terms)})."
        for atom in merged
    ]
    facts.append(f"Mark({rng.choice('bc')}).")
    return theory, parse_database(" ".join(facts))


class TestFuzzAgainstChase:
    def test_random_guarded_theories(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(12):
            sig = random_signature(rng, n_relations=3, max_arity=2)
            theory = random_guarded_theory(rng, sig, n_rules=3)
            db = random_database(rng, sig, n_constants=3, n_atoms=6)
            checked += _agrees_with_chase(theory, db)
        assert checked >= 5

    def test_random_theories_sharing_a_head(self):
        """Draws in which two rules create their nulls from one head; the
        draws count only if enough of them reach a shared context (fewer
        contexts than with the heads renamed apart)."""
        rng = random.Random(7)
        checked = shared = 0
        for _ in range(40):
            sig = random_signature(rng, n_relations=3, max_arity=2)
            theory = None
            while theory is None:
                theory = _share_a_head(
                    rng,
                    random_guarded_theory(
                        rng, sig, n_rules=3, existential_probability=0.7
                    ),
                )
            db = random_database(rng, sig, n_constants=3, n_atoms=6)
            if _agrees_with_chase(theory, db):
                checked += 1
                shared += _contexts(theory) < _contexts(_heads_apart(theory))
        assert checked >= 20
        assert shared >= 8

    def test_random_merges_onto_one_body(self):
        """Draws in which one body is reached by merges that send the
        head's frontier to different variables (see
        :func:`_merges_onto_one_body`)."""
        rng = random.Random(11)
        checked = 0
        for _ in range(30):
            checked += _agrees_with_chase(*_merges_onto_one_body(rng))
        assert checked == 30


class TestCompositionWork:
    """The goal-directed loop hands a context only the Datalog rules that
    can touch one of its existential head atoms, and existential rules
    with one head share their contexts.  The pins keep both from
    vanishing.  Offering every rule with a shared body relation derives
    the same rules in the same rounds but hands ``_compositions`` 18,
    3,760 and 16,650 pairs.  One context table per input rule (on the
    chain inputs, four grounded rules per head) builds 5, 128 and 400
    contexts, derives 9, 404 and 1,215 rules and hands 16, 940 and 3,330
    pairs, in the same 5, 5 and 6 rounds."""

    CASES = [
        ("example7", 9, 5, 16, 5),
        ("section7_chain3", 252, 5, 380, 60),
        ("section7_chain4", 680, 6, 1080, 155),
    ]

    @pytest.mark.parametrize(
        "name, derived, iterations, compositions, contexts", CASES
    )
    def test_work_is_pinned(self, name, derived, iterations, compositions, contexts):
        # Imported here: the golden module imports EXAMPLE7 from this one.
        from .test_saturation_golden import SECTION7_MAX_RULES, case

        with instrumented() as instr:
            result = saturate(case(name), max_rules=SECTION7_MAX_RULES)
        assert (result.derived_rules, result.iterations) == (derived, iterations)
        assert instr.metrics.counter("saturation.compositions") == compositions
        assert instr.metrics.gauges["saturation.contexts"] == contexts


class TestSharedHeads:
    """Contexts are keyed by root, body and existential variables, where
    the root is the input rule's head under the chain's merges: rules with
    one head share a context per body as long as their merges send the
    head to the same atoms.  The chase is the oracle here; the exhaustive
    closure does not finish on these theories in useful time."""

    def test_rules_with_one_head_share_contexts(self):
        theory = parse_theory(
            """
            P(x) -> exists w. R(x, w)
            Q(x) -> exists w. R(x, w)
            R(x, w), Q(x) -> A(x)
            R(x, w), P(x) -> B(x)
            """
        )
        # {P}, {Q} and the shared {P, Q}; one table per rule keeps two
        # copies of the last.
        assert _contexts(theory) == 3
        assert _agrees_with_chase(theory, parse_database("P(a). Q(a). P(b)."))

    def test_different_heads_over_one_body_stay_apart(self):
        theory = parse_theory(
            """
            P(x) -> exists w. R(x, w)
            P(x) -> exists w. S(x, w)
            R(x, w), S(x, w) -> Bad(x)
            """
        )
        # Two nulls for a: R and S never hold of one of them.
        assert _contexts(theory) == 2
        assert not answers_in(
            evaluate(guarded_to_datalog(theory), parse_database("P(a).")), "Bad"
        )
        assert _agrees_with_chase(theory, parse_database("P(a)."))

    @pytest.mark.parametrize(
        "rules, facts",
        [
            # x→y in the first rule and x→u in the second both give the
            # body {G(y, y, u), K(u, y, u)}, with the roots R(y, w) and
            # R(u, w).
            (
                "G(x, y, u), K(u, y, u) -> exists w. R(x, w)\n"
                "K(x, y, u), G(y, y, x) -> exists w. R(x, w)",
                "G(b, b, c). K(c, b, c).",
            ),
            # x→y and x→u both give {G(y, y, u), G(u, y, u)}.
            (
                "G(x, y, u), G(y, y, u), G(u, y, u) -> exists w. R(x, w)",
                "G(b, b, c). G(c, b, c).",
            ),
        ],
        ids=["two-rules", "one-rule"],
    )
    def test_merges_that_move_the_head_stay_apart(self, rules, facts):
        theory = parse_theory(
            rules + "\nR(a, c), A(a) -> M(c)\nR(a, c), M(c) -> Bad(a)"
        )
        # The chase makes one null for b and one for c, and A(c) marks
        # only the latter.
        db = parse_database(facts + " A(c).")
        bad = answers_in(evaluate(guarded_to_datalog(theory), db), "Bad")
        assert {str(answer[0]) for answer in bad} == {"c"}
        assert _agrees_with_chase(theory, db)
