"""Unit tests for the resource-governance subsystem (repro.robustness)
and the graceful-degradation paths it adds to every engine."""

import pytest

from repro.capture.exptime import compile_machine, machine_accepts_via_chase
from repro.capture.string_db import StringSignature, encode_word
from repro.capture.turing import BLANK, Transition, TuringMachine
from repro.chase.chase_tree import build_chase_tree
from repro.chase.core_db import core_of
from repro.chase.runner import (
    ChaseBudget,
    certain_answers,
    chase,
    entails,
    try_certain_answers,
)
from repro.chase.stratified import stratified_answers, stratified_chase
from repro.core.atoms import Atom
from repro.core.parser import parse_database, parse_theory
from repro.core.terms import Constant, Null
from repro.core.theory import Query
from repro.datalog.engine import evaluate, try_evaluate
from repro.robustness import (
    BudgetExceeded,
    Cancelled,
    CancellationToken,
    ConvergenceError,
    Deadline,
    DeadlineExceeded,
    InvalidRequestError,
    InvalidTheoryError,
    Outcome,
    ReproError,
    ResourceGovernor,
    TranslationError,
    current_governor,
    exhausted_error,
    governed,
    resolve_governor,
)
from repro.translate.expansion import ExpansionBudget, expand, try_expand
from repro.translate.saturation import (
    SaturationBudget,
    saturate,
    try_saturate,
)


LOOP = parse_theory("E(x,y) -> exists z. E(y,z)")
LOOP_DB = parse_database("E(a,b).")


class TestErrorHierarchy:
    def test_grafted_onto_builtins(self):
        # Existing `except ValueError` / `except RuntimeError` call sites
        # must keep working after the typed-error migration.
        assert issubclass(InvalidTheoryError, ValueError)
        assert issubclass(InvalidRequestError, ValueError)
        assert issubclass(BudgetExceeded, RuntimeError)
        assert issubclass(DeadlineExceeded, BudgetExceeded)
        assert issubclass(Cancelled, RuntimeError)
        assert issubclass(ConvergenceError, RuntimeError)
        assert issubclass(TranslationError, RuntimeError)
        for cls in (
            InvalidTheoryError,
            BudgetExceeded,
            Cancelled,
            ConvergenceError,
            TranslationError,
        ):
            assert issubclass(cls, ReproError)

    def test_exhausted_error_dispatch(self):
        assert isinstance(exhausted_error("cancelled", "m"), Cancelled)
        assert isinstance(exhausted_error("deadline", "m"), DeadlineExceeded)
        err = exhausted_error("max_steps", "m")
        assert isinstance(err, BudgetExceeded)
        assert err.reason == "max_steps"

    def test_outcome_rides_on_exception(self):
        outcome = Outcome(value=1, complete=False, exhausted="max_steps")
        err = exhausted_error("max_steps", "m", outcome)
        assert err.outcome is outcome


class TestOutcome:
    def test_truthiness_tracks_completeness(self):
        assert Outcome(value=1, complete=True)
        assert not Outcome(value=1, complete=False, exhausted="deadline")

    def test_require_raises_typed(self):
        ok = Outcome(value=7, complete=True)
        assert ok.require("thing") == 7
        bad = Outcome(value=7, complete=False, exhausted="cancelled")
        with pytest.raises(Cancelled):
            bad.require("thing")


class TestDeadlineAndToken:
    def test_deadline_expiry(self):
        assert not Deadline.after(60).expired()
        assert Deadline.expired_now().expired()
        assert Deadline.after(60).remaining() > 0

    def test_token_cancel(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("user hit ^C")
        assert token.cancelled
        assert token.message == "user hit ^C"


class TestResourceGovernor:
    def test_tick_budget(self):
        governor = ResourceGovernor(max_ticks=3)
        assert [governor.tick() for _ in range(3)] == [None, None, None]
        assert governor.tick() == "max_ticks"
        assert governor.exhausted == "max_ticks"
        # sticky
        assert governor.tick() == "max_ticks"

    def test_deadline_trip(self):
        governor = ResourceGovernor(deadline=Deadline.expired_now())
        assert governor.tick() == "deadline"

    def test_cancellation_trip(self):
        token = CancellationToken()
        governor = ResourceGovernor(token=token)
        assert governor.tick() is None
        token.cancel()
        assert governor.tick() == "cancelled"

    def test_poll_does_not_count(self):
        governor = ResourceGovernor(max_ticks=1)
        assert governor.poll() is None
        assert governor.ticks == 0

    def test_check_raises_typed(self):
        governor = ResourceGovernor(deadline=Deadline.expired_now())
        with pytest.raises(DeadlineExceeded):
            governor.check()

    def test_timeout_shorthand(self):
        governor = ResourceGovernor(timeout=60)
        assert governor.deadline is not None
        with pytest.raises(ValueError):
            ResourceGovernor(timeout=1, deadline=Deadline.after(1))

    def test_ambient_installation(self):
        assert current_governor() is None
        governor = ResourceGovernor(max_ticks=10)
        with governed(governor):
            assert current_governor() is governor
            assert resolve_governor(None) is governor
            explicit = ResourceGovernor()
            assert resolve_governor(explicit) is explicit
        assert current_governor() is None


class TestChaseGovernance:
    def test_deadline_truncates_with_snapshot(self):
        result = chase(
            LOOP,
            LOOP_DB,
            governor=ResourceGovernor(deadline=Deadline.expired_now()),
        )
        assert not result.complete
        assert result.truncated_reason == "deadline"
        assert result.snapshot is not None

    def test_cancellation_reason(self):
        token = CancellationToken()
        token.cancel()
        result = chase(LOOP, LOOP_DB, governor=ResourceGovernor(token=token))
        assert result.truncated_reason == "cancelled"

    def test_ambient_governor_reaches_chase(self):
        with governed(ResourceGovernor(max_ticks=2)):
            result = chase(LOOP, LOOP_DB)
        assert result.truncated_reason == "max_ticks"

    def test_entails_raises_typed_on_truncation(self):
        with pytest.raises(BudgetExceeded) as excinfo:
            entails(
                LOOP,
                LOOP_DB,
                Atom("E", (Constant("never"), Constant("ever"))),
                budget=ChaseBudget(max_steps=3),
            )
        assert excinfo.value.reason == "max_steps"
        assert excinfo.value.outcome is not None

    def test_certain_answers_raises_typed(self):
        query = Query(LOOP, "E")
        with pytest.raises(BudgetExceeded) as excinfo:
            certain_answers(query, LOOP_DB, budget=ChaseBudget(max_steps=2))
        # still catchable as the historical RuntimeError
        assert isinstance(excinfo.value, RuntimeError)
        assert excinfo.value.outcome.snapshot is not None

    def test_try_certain_answers_partial_is_sound(self):
        theory = parse_theory(
            "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)\n"
        )
        database = parse_database("E(a,b). E(b,c). E(c,d).")
        query = Query(theory, "T")
        full = try_certain_answers(query, database)
        assert full.complete and full.sound
        cut = try_certain_answers(
            query, database, budget=ChaseBudget(max_steps=2)
        )
        assert not cut.complete
        assert cut.exhausted == "max_steps"
        assert cut.value <= full.value  # sound: no spurious answers


class TestChaseTreeTruncation:
    def test_over_budget_returns_partial_tree(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        tree, db = build_chase_tree(
            theory, parse_database("E(a,b)."), budget=ChaseBudget(max_steps=4)
        )
        # truncated, but structurally a chase tree: root + one node per null
        assert len(tree.nodes) >= 2
        assert tree.all_atoms() == set(db.atoms())

    def test_governor_truncates_tree(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        tree, _ = build_chase_tree(
            theory,
            parse_database("E(a,b)."),
            governor=ResourceGovernor(max_ticks=3),
        )
        assert len(tree.nodes) >= 2


class TestStratifiedGovernance:
    def test_budgets_length_mismatch_is_typed(self):
        theory = parse_theory("E(x,y) -> T(x,y)")
        with pytest.raises(InvalidRequestError):
            stratified_chase(
                theory,
                parse_database("E(a,b)."),
                budgets=[ChaseBudget(), ChaseBudget()],
            )

    def test_mismatch_still_catchable_as_valueerror(self):
        theory = parse_theory("E(x,y) -> T(x,y)")
        with pytest.raises(ValueError):
            stratified_chase(
                theory, parse_database("E(a,b)."), budgets=[]
            )

    def test_stratified_answers_typed_exhaustion(self):
        query = Query(LOOP, "E")
        with pytest.raises(BudgetExceeded) as excinfo:
            stratified_answers(
                query, LOOP_DB, budget=ChaseBudget(max_steps=2)
            )
        assert excinfo.value.reason == "max_steps"

    def test_deadline_stops_iteration(self):
        result = stratified_chase(
            LOOP,
            LOOP_DB,
            governor=ResourceGovernor(deadline=Deadline.expired_now()),
        )
        assert result.truncated_reason == "deadline"


class TestDatalogGovernance:
    THEORY = parse_theory(
        "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)\n"
    )
    DB = parse_database("E(a,b). E(b,c). E(c,d). E(d,e).")

    def test_max_iterations_partial_outcome(self):
        outcome = try_evaluate(self.THEORY, self.DB, max_iterations=2)
        assert not outcome.complete
        assert outcome.exhausted == "max_iterations"
        assert outcome.sound
        full = try_evaluate(self.THEORY, self.DB)
        assert full.complete
        assert set(outcome.value.atoms()) <= set(full.value.atoms())

    def test_evaluate_raises_typed(self):
        with pytest.raises(BudgetExceeded) as excinfo:
            evaluate(self.THEORY, self.DB, max_iterations=1)
        assert excinfo.value.reason == "max_iterations"
        assert excinfo.value.outcome is not None

    def test_governor_reaches_evaluation(self):
        outcome = try_evaluate(
            self.THEORY,
            self.DB,
            governor=ResourceGovernor(deadline=Deadline.expired_now()),
        )
        assert outcome.exhausted == "deadline"

    def test_naive_strategy_also_governed(self):
        outcome = try_evaluate(
            self.THEORY, self.DB, strategy="naive", max_iterations=1
        )
        assert outcome.exhausted == "max_iterations"


class TestSaturationGovernance:
    THEORY = parse_theory(
        "A(x) -> exists y. R(x,y)\nR(x,y) -> B(y)\nR(x,y), B(y) -> C(x)\n"
    )

    def test_budget_raises_with_partial_outcome(self):
        with pytest.raises(SaturationBudget) as excinfo:
            saturate(self.THEORY, max_rules=3)
        assert excinfo.value.reason == "max_rules"
        outcome = excinfo.value.outcome
        assert outcome is not None and not outcome.complete
        assert len(outcome.value.closure) <= 3

    def test_try_saturate_deadline(self):
        outcome = try_saturate(
            self.THEORY,
            governor=ResourceGovernor(deadline=Deadline.expired_now()),
        )
        assert not outcome.complete
        assert outcome.exhausted == "deadline"
        assert outcome.snapshot is not None

    def test_partial_closure_is_sound(self):
        # Context heads grow monotonically, so compare at the granularity
        # of (body, single head atom) — every derivation present in the
        # cut closure must appear in the full one.
        def pairs(result):
            return {
                (tuple(sorted(map(str, r.body))), str(atom))
                for r in result.closure
                for atom in r.head
            }

        full = try_saturate(self.THEORY)
        assert full.complete
        cut = try_saturate(
            self.THEORY, governor=ResourceGovernor(max_ticks=2)
        )
        assert pairs(cut.value) <= pairs(full.value)


class TestExpansionGovernance:
    THEORY = parse_theory(
        "R(x,y), R(y,z) -> P(y)\nS(x,y,w) -> exists v. R(x,v)\n"
    )

    def test_max_rules_graceful(self):
        # The initial set (original rules + bag axioms) is not budgeted;
        # the cap applies to rewriting products, checked before insertion.
        full = expand(self.THEORY)
        cap = len(full.theory) - 1
        outcome = try_expand(self.THEORY, max_rules=cap)
        assert not outcome.complete
        assert outcome.exhausted == "max_rules"
        assert len(outcome.value.theory) <= cap
        assert outcome.value.rewritten_rules < full.rewritten_rules
        assert set(outcome.value.theory.rules) <= set(full.theory.rules)

    def test_expand_raises_expansion_budget(self):
        with pytest.raises(ExpansionBudget) as excinfo:
            expand(self.THEORY, max_rules=len(self.THEORY) + 1)
        assert excinfo.value.reason == "max_rules"
        assert excinfo.value.outcome is not None

    def test_governor_deadline(self):
        outcome = try_expand(
            self.THEORY,
            governor=ResourceGovernor(deadline=Deadline.expired_now()),
        )
        assert outcome.exhausted == "deadline"

    def test_invalid_theory_typed(self):
        not_fg = parse_theory("E(x,y), F(y,z) -> exists w. G(x,z,w)")
        with pytest.raises(InvalidTheoryError):
            try_expand(not_fg)


class TestCoreConvergence:
    def test_iteration_ceiling_is_typed(self):
        # Two redundant nulls: the greedy loop needs one fold per null,
        # so max_iterations=1 trips the ceiling.
        db = parse_database("R(a, b).")
        nulls = [Null("u"), Null("v")]
        atoms = list(db.atoms()) + [
            Atom("R", (Constant("a"), nulls[0])),
            Atom("R", (Constant("a"), nulls[1])),
        ]
        from repro.core.database import Database

        padded = Database(atoms)
        with pytest.raises(ConvergenceError):
            core_of(padded, max_iterations=1)
        # enough budget → converges to the 1-atom core
        core = core_of(padded, max_iterations=10)
        assert len(core) == 1

    def test_convergence_error_catchable_as_runtimeerror(self):
        with pytest.raises(RuntimeError):
            raise ConvergenceError("x")


class TestExptimeGovernance:
    @staticmethod
    def _looping_machine():
        # Bounces on the first cell forever: never reaches accept/reject.
        return TuringMachine(
            states=("q0", "q1", "qa"),
            alphabet=("0", "1", BLANK),
            initial_state="q0",
            kinds={"q0": "exists", "q1": "exists", "qa": "accept"},
            delta={
                ("q0", "0"): (Transition("q1", "0", 0),),
                ("q1", "0"): (Transition("q0", "0", 0),),
            },
        )

    def test_truncated_acceptance_is_typed(self):
        signature = StringSignature(1, ("0", "1"))
        compiled = compile_machine(self._looping_machine(), signature)
        database = encode_word(list("00"), signature)
        with pytest.raises(BudgetExceeded) as excinfo:
            machine_accepts_via_chase(
                compiled, database, budget=ChaseBudget(max_steps=50)
            )
        assert excinfo.value.reason == "max_steps"
        outcome = excinfo.value.outcome
        assert outcome is not None
        assert outcome.snapshot is not None
