"""Unit tests for the strategy advisor (repro.analysis.advisor).

Covers the lazy acyclicity ladder (every rung of weak ⊂ joint ⊂
super-weak ⊂ MFA maps to the right criterion constant), engine
applicability verdicts, the recommendation policy, witness/cost
attachment, obs counters, and the ``repro advise`` subcommand with its
published JSON schema.
"""

import json
import sys

import pytest

from repro.analysis import (
    ADVICE_JSON_SCHEMA,
    ADVICE_SCHEMA_VERSION,
    advise,
    analyze,
)
from repro.analysis.advisor import (
    ENGINE_BUDGETED,
    ENGINE_COMPLETE,
    ENGINE_NOT_APPLICABLE,
    ENGINE_TERMINATES,
)
from repro.chase import DEFAULT_MFA_MAX_STEPS, chase_terminates, termination
from repro.cli import main
from repro.core import parse_theory
from repro.obs import instrumented

jsonschema = pytest.importorskip("jsonschema")

DATALOG = "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)"
WA = (
    "Publication(x) -> exists k. HasKeyword(x, k)\n"
    "HasKeyword(x, k) -> Indexed(x)"
)
#: Jointly but not weakly acyclic: the position graph has the special
#: cycle A.1 => C.2 -> A.1, but y's nulls never cover B.1, so the rule
#: cannot refire on its own output.
JA = "A(x), B(x) -> exists y. C(x, y)\nC(x, y) -> A(y)"
#: Super-weakly but not jointly acyclic: distinct head/body constants
#: make the positions unreachable at the term level.
SWA = 'A(x) -> exists z. R(x, z, "c1")\nR(x, y, "c2") -> A(y)'
#: Model-faithfully but not super-weakly acyclic: pairwise unification
#: conflates the skolem images f("a") and f("b"); the critical-instance
#: chase keeps them apart and reaches a fixpoint.
MFA = (
    "A(x) -> exists y. R(x, y)\n"
    'R("a", y), R("b", y) -> T(y)\n'
    "T(y) -> A(y)"
)
#: Guarded and genuinely non-terminating: every rung fails.
LOOP = "E(x, y) -> exists z. E(y, z)"

LADDER = [
    (DATALOG, "datalog", "datalog"),
    (WA, "weakly-acyclic", "chase"),
    (JA, "jointly-acyclic", "chase"),
    (SWA, "super-weakly-acyclic", "chase"),
    (MFA, "model-faithful-acyclic", "chase"),
]


class TestLadder:
    @pytest.mark.parametrize("text,criterion,recommended", LADDER)
    def test_terminating_rungs(self, text, criterion, recommended):
        advice = advise(parse_theory(text))
        assert advice.criterion == criterion
        assert advice.terminates is True
        assert advice.recommended == recommended
        assert advice.witness is None

    def test_unprovable_theory_is_unknown(self):
        advice = advise(parse_theory(LOOP))
        assert advice.criterion == "unknown"
        assert advice.terminates is False
        # LOOP is guarded, so the class translation stays complete.
        assert advice.recommended == "translate"

    def test_unknown_verdict_carries_witness(self):
        advice = advise(parse_theory(LOOP))
        assert advice.witness is not None
        assert advice.witness["super_weak_cycle"] == [
            {"rule": 0, "variable": "z"}
        ]
        assert advice.witness["mfa"]["verdict"] in ("cyclic", "exhausted")
        assert advice.mfa == advice.witness["mfa"]

    def test_mfa_summary_attached_only_when_rung_ran(self):
        assert advise(parse_theory(WA)).mfa is None
        assert advise(parse_theory(SWA)).mfa is None
        assert advise(parse_theory(MFA)).mfa is not None
        assert advise(parse_theory(MFA)).mfa["verdict"] == "terminates"

    def test_cost_estimate_only_on_weakly_acyclic(self):
        advice = advise(parse_theory(WA))
        assert advice.cost is not None
        assert advice.cost["total_degree"] >= 1
        assert advise(parse_theory(SWA)).cost is None


class TestSurfacesAgree:
    """The advisor, ``chase_terminates`` and ``repro termination`` read one
    ladder climb under one default budget, so they name one criterion."""

    @pytest.mark.parametrize(
        "text",
        [text for text, _, _ in LADDER] + [LOOP],
        ids=[criterion for _, criterion, _ in LADDER] + ["unknown"],
    )
    def test_one_criterion(self, text, capsys, tmp_path):
        theory = parse_theory(text)
        criterion = advise(theory).criterion
        terminates, reason = chase_terminates(
            theory, mfa_max_steps=DEFAULT_MFA_MAX_STEPS
        )
        assert reason == criterion
        path = tmp_path / "theory.rules"
        path.write_text(text + "\n")
        assert main(["termination", str(path)]) == (0 if terminates else 1)
        verdict = "yes" if terminates else "unknown"
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"terminates: {verdict} ({criterion})"


class TestOnePositionGraph:
    """``advise`` and ``analyze`` estimate the chase cost from the
    ladder's position graph instead of building a second one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = termination.position_dependency_graph

        def counted(theory):
            calls.append(theory)
            return original(theory)

        # Wrap every binding of the function, not just its home module.
        for module_name, module in list(sys.modules.items()):
            if (
                module_name.startswith("repro")
                and getattr(module, "position_dependency_graph", None) is original
            ):
                monkeypatch.setattr(module, "position_dependency_graph", counted)
        return calls

    @pytest.mark.parametrize(
        "text",
        [text for text, _, _ in LADDER[1:]] + [LOOP],
        ids=[criterion for _, criterion, _ in LADDER[1:]] + ["unknown"],
    )
    def test_existential_theory_graphed_once(self, text, builds):
        theory = parse_theory(text)
        advise(theory)
        assert len(builds) == 1
        analyze(theory)
        assert len(builds) == 2

    def test_datalog_theory_graphed_for_its_estimate(self, builds):
        # The ladder stops at its first rung, so only the estimate graphs.
        advice = advise(parse_theory(DATALOG))
        assert advice.cost is not None and len(builds) == 1


class TestEngines:
    def test_datalog_theory(self):
        engines = advise(parse_theory(DATALOG)).engines
        assert engines["datalog"] == ENGINE_COMPLETE
        assert engines["chase"] == ENGINE_TERMINATES

    def test_stratified_negation_is_datalog(self):
        advice = advise(parse_theory(DATALOG + "\nN(x), not T(x,x) -> Acyc(x)"))
        assert advice.engines["datalog"] == ENGINE_COMPLETE
        assert advice.recommended == "datalog"

    def test_unstratified_negation_is_not_datalog(self):
        advice = advise(parse_theory(DATALOG + "\nE(x,y), not T(y,x) -> T(x,x)"))
        assert advice.engines["datalog"] == ENGINE_NOT_APPLICABLE
        assert advice.recommended != "datalog"
        # The chase and the translations take positive rules only.
        assert advice.engines["chase"] == ENGINE_NOT_APPLICABLE
        assert advice.engines["translate"] == ENGINE_NOT_APPLICABLE
        assert advice.engines["wfg-pipeline"] == ENGINE_NOT_APPLICABLE

    def test_guarded_loop(self):
        engines = advise(parse_theory(LOOP)).engines
        assert engines["datalog"] == ENGINE_NOT_APPLICABLE
        assert engines["translate"] == ENGINE_COMPLETE
        assert engines["chase"] == ENGINE_BUDGETED

    def test_reasons_are_prose(self):
        advice = advise(parse_theory(MFA))
        assert any("model-faithful-acyclic" in r for r in advice.reasons)


class TestCounters:
    def test_advise_increments_counters(self):
        with instrumented() as instr:
            advise(parse_theory(MFA))
            advise(parse_theory(LOOP))
        assert instr.metrics.counter("advisor.runs") == 2
        assert (
            instr.metrics.counter("advisor.criterion.model-faithful-acyclic")
            == 1
        )
        assert instr.metrics.counter("advisor.criterion.unknown") == 1
        assert instr.metrics.counter("advisor.recommendation.chase") == 1
        assert instr.metrics.counter("advisor.recommendation.translate") == 1


class TestCli:
    @pytest.fixture()
    def rules(self, tmp_path):
        path = tmp_path / "mfa.rules"
        path.write_text(MFA + "\n")
        return str(path)

    def test_advise_json_validates_against_schema(self, capsys, rules):
        assert main(["advise", rules]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, ADVICE_JSON_SCHEMA)
        assert report["schema_version"] == ADVICE_SCHEMA_VERSION
        assert report["rules"] == 3
        assert report["advice"]["recommended"] == "chase"
        assert report["advice"]["criterion"] == "model-faithful-acyclic"

    def test_advise_text_mode(self, capsys, rules):
        assert main(["advise", rules, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "recommended strategy: chase" in out
        assert "proven (model-faithful-acyclic)" in out

    def test_advise_respects_mfa_budget(self, capsys, rules):
        # Starving the critical-instance chase degrades the verdict to
        # "unknown" — never to an overclaim.
        assert main(["advise", rules, "--mfa-steps", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, ADVICE_JSON_SCHEMA)
        assert report["advice"]["terminates"] is False
        assert report["advice"]["witness"]["mfa"]["verdict"] == "exhausted"

    def test_shipped_example_recommends_chase(self, capsys):
        assert main(["advise", "examples/publication.rules"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, ADVICE_JSON_SCHEMA)
        assert report["advice"]["criterion"] == "weakly-acyclic"
        assert report["advice"]["recommended"] == "chase"
