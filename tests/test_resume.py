"""Checkpoint/resume round-trips.

The contract under test: cutting a run at an arbitrary point and
resuming from its snapshot yields the same final result as never having
been interrupted — exactly equal for the chase (the snapshot preserves
the pending trigger order and the null counter), and for saturation
equal as a closure (monotone fixpoint) and, under governor cuts, exactly
(the snapshot preserves the worklist and the indexed-rule count)."""

import random

import pytest

from repro.bench.generators import (
    random_database,
    random_guarded_theory,
    random_signature,
)
from repro.chase.runner import (
    DATALOG_PHASE,
    EXISTENTIAL_PHASE,
    OBLIVIOUS,
    RESTRICTED,
    SKOLEM,
    ChaseBudget,
    chase,
    resume_chase,
)
from repro.core.homomorphism import databases_homomorphically_equivalent
from repro.core.parser import parse_database, parse_theory
from repro.core.rules import canonical_rule_key
from repro.robustness import ResourceGovernor
from repro.robustness.faults import probe
from repro.translate.saturation import (
    resume_saturation,
    try_saturate,
)

from .test_chase import PUBLICATION_DATA, PUBLICATION_THEORY
from .test_saturation_golden import case

LOOP = parse_theory("E(x,y) -> exists z. E(y,z)")
LOOP_DB = parse_database("E(a,b).")

#: The weakly guarded exemplar of the ``chase_materialize`` benchmark
#: workload: three existential-free rules and one existential rule.
WG_THEORY = parse_theory(
    """
    E(x,y) -> T(x,y)
    E(x,y), T(y,z) -> T(x,z)
    T(x,y) -> exists w. M(y, w)
    M(y,w), T(x,y) -> Reach(x)
    """
)
#: A fixed 8-node graph: a 4-cycle, a tail leaving it, and one chord.
WG_DB = parse_database(
    "E(a,b). E(b,c). E(c,d). E(d,a). E(d,e). E(e,f). E(f,g). E(g,h). E(b,f)."
)


def _assert_same_result(reference, resumed):
    assert set(resumed.database.atoms()) == set(reference.database.atoms())
    assert resumed.steps == reference.steps
    assert resumed.nulls_created == reference.nulls_created
    assert resumed.complete == reference.complete
    assert resumed.truncated_reason == reference.truncated_reason


class TestChaseResume:
    def test_resume_equals_uninterrupted_infinite_chase(self):
        # Reference: run to a 40-step budget.  Cut: interrupt after 7
        # ticks, then resume under the same cumulative budget.
        budget = ChaseBudget(max_steps=40)
        reference = chase(LOOP, LOOP_DB, budget=budget)
        cut = chase(
            LOOP, LOOP_DB, budget=budget,
            governor=ResourceGovernor(max_ticks=7),
        )
        assert not cut.complete and cut.snapshot is not None
        resumed = resume_chase(cut.snapshot, budget=budget)
        _assert_same_result(reference, resumed)

    def test_resume_after_resume(self):
        budget = ChaseBudget(max_steps=30)
        reference = chase(LOOP, LOOP_DB, budget=budget)
        first = chase(
            LOOP, LOOP_DB, budget=budget,
            governor=ResourceGovernor(max_ticks=5),
        )
        second = resume_chase(
            first.snapshot, budget=budget,
            governor=ResourceGovernor(max_ticks=5),
        )
        assert not second.complete
        final = resume_chase(second.snapshot, budget=budget)
        _assert_same_result(reference, final)

    @pytest.mark.parametrize("seed", [11, 23, 47])
    @pytest.mark.parametrize("policy", ["oblivious", "restricted"])
    def test_resume_on_generated_theories(self, seed, policy):
        rng = random.Random(seed)
        signature = random_signature(rng, n_relations=4, max_arity=2)
        theory = random_guarded_theory(
            rng, signature, n_rules=5, existential_probability=0.6
        )
        database = random_database(rng, signature, n_constants=4, n_atoms=8)
        budget = ChaseBudget(max_steps=120)
        reference = chase(theory, database, policy=policy, budget=budget)
        for cut_at in (1, 3, 10):
            cut = chase(
                theory, database, policy=policy, budget=budget,
                governor=ResourceGovernor(max_ticks=cut_at),
            )
            if cut.complete:
                # the whole run fit under the tick budget; nothing to resume
                _assert_same_result(reference, cut)
                continue
            resumed = resume_chase(cut.snapshot, budget=budget)
            _assert_same_result(reference, resumed)

    def test_resume_preserves_round_accounting(self):
        budget = ChaseBudget(max_steps=40)
        reference = chase(LOOP, LOOP_DB, budget=budget)
        cut = chase(
            LOOP, LOOP_DB, budget=budget,
            governor=ResourceGovernor(max_ticks=7),
        )
        resumed = resume_chase(cut.snapshot, budget=budget)
        assert resumed.rounds == reference.rounds
        # split round entries must sum to the reference totals
        assert (
            resumed.stats.triggers_fired == reference.stats.triggers_fired
        )
        assert resumed.stats.atoms_added == reference.stats.atoms_added

    def test_skolem_policy_resumes(self):
        theory = parse_theory(
            "P(x) -> exists y. R(x,y)\nR(x,y) -> P(y)\n"
        )
        database = parse_database("P(a).")
        budget = ChaseBudget(max_steps=25)
        reference = chase(theory, database, policy="skolem", budget=budget)
        cut = chase(
            theory, database, policy="skolem", budget=budget,
            governor=ResourceGovernor(max_ticks=4),
        )
        assert not cut.complete
        resumed = resume_chase(cut.snapshot, budget=budget)
        _assert_same_result(reference, resumed)


def _round_totals(result):
    stats = result.stats
    return (
        stats.triggers_enumerated,
        stats.triggers_fired,
        stats.atoms_added,
        sum(entry.nulls_created for entry in stats.rounds),
    )


class TestRestrictedResume:
    """The Datalog-first restricted loop stops at Datalog iterations and
    at existential triggers; a resume from any of those points replays
    the rest of the uninterrupted run exactly."""

    @pytest.mark.parametrize(
        "theory, database",
        [
            (WG_THEORY, WG_DB),
            (parse_theory(PUBLICATION_THEORY), parse_database(PUBLICATION_DATA)),
        ],
        ids=["wg_exemplar", "publication"],
    )
    def test_cut_at_every_tick_resumes_exactly(self, theory, database):
        def run(governor=None):
            return chase(theory, database, policy=RESTRICTED, governor=governor)

        reference = run()
        assert reference.complete
        ticks = probe(run)
        phases = set()
        for cut_at in range(ticks):
            cut = run(ResourceGovernor(max_ticks=cut_at))
            assert cut.truncated_reason == "max_ticks"
            phases.add(cut.snapshot.phase)
            resumed = resume_chase(cut.snapshot)
            _assert_same_result(reference, resumed)
            assert resumed.rounds == reference.rounds
            assert _round_totals(resumed) == _round_totals(reference)
        assert phases == {DATALOG_PHASE, EXISTENTIAL_PHASE}

    def test_max_steps_cut_inside_a_datalog_phase(self):
        budget = ChaseBudget(max_steps=10_000)
        reference = chase(WG_THEORY, WG_DB, policy=RESTRICTED, budget=budget)
        cut = chase(
            WG_THEORY, WG_DB, policy=RESTRICTED, budget=ChaseBudget(max_steps=5)
        )
        assert cut.truncated_reason == "max_steps"
        assert cut.snapshot.phase == DATALOG_PHASE
        assert cut.snapshot.datalog_delta
        # A Datalog iteration is atomic: the first one copies all nine
        # edges into T, overshooting the budget by four facts.
        assert cut.steps == len(WG_DB)
        resumed = resume_chase(cut.snapshot, budget=budget)
        _assert_same_result(reference, resumed)
        assert resumed.rounds == reference.rounds
        assert _round_totals(resumed) == _round_totals(reference)


class TestDepthResume:
    """A trigger skipped for ``max_depth`` is carried in the snapshot and
    retried by a resume under a larger bound."""

    THEORY = parse_theory(
        "P(x) -> exists y. R(x,y)\n"
        "R(x,y) -> exists z. S(y,z)\n"
        "S(y,z) -> Q(z)\n"
    )

    @pytest.mark.parametrize("policy", [OBLIVIOUS, SKOLEM, RESTRICTED])
    def test_resume_with_a_larger_depth_completes(self, policy):
        database = parse_database("P(a).")
        reference = chase(self.THEORY, database, policy=policy)
        cut = chase(
            self.THEORY, database, policy=policy,
            budget=ChaseBudget(max_depth=1),
        )
        assert not cut.complete and cut.truncated_reason == "max_depth"
        assert cut.snapshot.deferred
        resumed = resume_chase(cut.snapshot, budget=ChaseBudget())
        assert resumed.complete
        assert {atom.relation for atom in resumed.database} == {"P", "R", "S", "Q"}
        assert databases_homomorphically_equivalent(
            resumed.database, reference.database
        )
        assert (
            resumed.database.ground_atoms() == reference.database.ground_atoms()
        )

    def test_resume_under_the_same_depth_stays_cut(self):
        database = parse_database("P(a).")
        budget = ChaseBudget(max_depth=1)
        cut = chase(self.THEORY, database, policy=RESTRICTED, budget=budget)
        again = resume_chase(cut.snapshot, budget=budget)
        assert again.truncated_reason == "max_depth"
        assert set(again.database) == set(cut.database)
        assert again.snapshot.deferred


class TestSaturationResume:
    @staticmethod
    def _closure_pairs(result):
        return {
            (tuple(sorted(map(str, rule.body))), str(atom))
            for rule in result.closure
            for atom in rule.head
        } | {
            (tuple(sorted(map(str, rule.body))), str(atom))
            for rule in result.datalog
            for atom in rule.head
        }

    def _check_resume(self, theory):
        reference = try_saturate(theory)
        assert reference.complete
        reference_pairs = self._closure_pairs(reference.value)
        resumed_any = False
        for cut_at in (1, 2, 5, 9):
            cut = try_saturate(
                theory, governor=ResourceGovernor(max_ticks=cut_at)
            )
            if cut.complete:
                assert self._closure_pairs(cut.value) == reference_pairs
                continue
            assert cut.snapshot is not None
            resumed = resume_saturation(cut.snapshot)
            assert resumed.complete, resumed.exhausted
            assert self._closure_pairs(resumed.value) == reference_pairs
            resumed_any = True
        return resumed_any

    def test_handcrafted_theory(self):
        theory = parse_theory(
            "A(x) -> exists y. R(x,y)\n"
            "R(x,y) -> B(y)\n"
            "R(x,y), B(y) -> C(x)\n"
            "C(x) -> A(x)\n"
        )
        assert self._check_resume(theory)

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_generated_guarded_theories(self, seed):
        rng = random.Random(seed)
        signature = random_signature(rng, n_relations=3, max_arity=2)
        theory = random_guarded_theory(
            rng, signature, n_rules=4, existential_probability=0.7
        )
        self._check_resume(theory)

    @pytest.mark.parametrize(
        "name, stride", [("example7", 1), ("section7_chain3", 11)]
    )
    def test_cuts_inside_the_worklist_resume_exactly(self, name, stride):
        """Governor cuts across the whole run — every tick of Example 7,
        every ``stride``-th of the chain-3 grounded Section 7 theory —
        many of them between worklist contexts: the resumed closure,
        ``dat``, ``derived_rules`` and round count equal the
        uninterrupted run's."""
        theory = case(name)
        counter = ResourceGovernor()
        reference = try_saturate(theory, governor=counter)
        assert reference.complete

        def keys(result):
            return (
                {canonical_rule_key(rule) for rule in result.closure},
                {canonical_rule_key(rule) for rule in result.datalog},
            )

        inside = 0
        for cut_at in range(1, counter.ticks, stride):
            cut = try_saturate(
                theory, governor=ResourceGovernor(max_ticks=cut_at)
            )
            assert not cut.complete
            inside += cut.snapshot.round_left > 0
            resumed = resume_saturation(cut.snapshot)
            assert resumed.complete, resumed.exhausted
            assert keys(resumed.value) == keys(reference.value)
            assert resumed.value.derived_rules == reference.value.derived_rules
            assert resumed.value.iterations == reference.value.iterations
        assert inside > 0

    def test_resume_under_budget_can_exhaust_again(self):
        theory = parse_theory(
            "A(x) -> exists y. R(x,y)\n"
            "R(x,y) -> B(y)\n"
            "R(x,y), B(y) -> C(x)\n"
            "C(x) -> A(x)\n"
        )
        cut = try_saturate(theory, governor=ResourceGovernor(max_ticks=1))
        assert not cut.complete
        again = resume_saturation(
            cut.snapshot, governor=ResourceGovernor(max_ticks=1)
        )
        if not again.complete:
            assert again.snapshot is not None
            final = resume_saturation(again.snapshot)
            assert final.complete
