"""Golden tests for ``repro lint``: exact diagnostics on the shipped
example theories, JSON schema validation, ``--fail-on`` semantics, and
parse-error reporting with line numbers (exit code 2)."""

import json
import sys

import pytest

from repro.analysis import REPORT_JSON_SCHEMA, REPORT_SCHEMA_VERSION
from repro.chase import termination
from repro.cli import main

from .test_advisor import LOOP, MFA

jsonschema = pytest.importorskip("jsonschema")

FLAWED = "examples/flawed.rules"
PUBLICATION = "examples/publication.rules"


class TestGoldenDiagnostics:
    def test_flawed_rules(self, capsys):
        assert main(["lint", FLAWED]) == 1  # has errors
        out = capsys.readouterr().out
        report = json_report(capsys, FLAWED)
        golden = [
            ("TRM001", "warning", 8),
            ("TRM002", "warning", 8),
            ("TRM003", "warning", 8),
            ("TRM004", "warning", 8),
            ("GRD001", "error", 13),
            ("STR001", "error", 16),
            ("RCH001", "info", 21),
            ("RCH001", "info", 22),
        ]
        observed = [
            (d["code"], d["severity"], d["span"]["line"])
            for d in report["diagnostics"]
        ]
        assert observed == golden
        assert report["summary"] == {"error": 2, "warning": 4, "info": 2}
        assert "summary: 2 errors, 4 warnings, 2 infos" in out

    def test_publication_rules(self, capsys):
        # The paper's flagship example (Figure 2) must lint without
        # errors or warnings: only informational notes.
        assert main(["lint", PUBLICATION]) == 0
        capsys.readouterr()
        report = json_report(capsys, PUBLICATION)
        observed = [
            (d["code"], d["severity"]) for d in report["diagnostics"]
        ]
        assert observed == [
            ("GRD002", "info"),
            ("GRD003", "info"),
            ("RCH001", "info"),
            ("GRD002", "info"),
            ("RCH001", "info"),
            ("RCH002", "info"),
            ("EST001", "info"),
            ("EST002", "info"),
        ]
        assert report["summary"] == {"error": 0, "warning": 0, "info": 8}

    def test_witnesses_present_in_json(self, capsys):
        report = json_report(capsys, FLAWED)
        by_code = {d["code"]: d for d in report["diagnostics"]}
        assert by_code["GRD001"]["witness"]["unsafe"][0]["derivation"]
        assert by_code["TRM001"]["witness"]["cycle"]
        assert by_code["TRM003"]["witness"]["cycle"]
        assert by_code["TRM004"]["witness"]["cyclic"]
        assert by_code["TRM004"]["witness"]["trace"]
        assert by_code["STR001"]["witness"]["cycle"]
        assert by_code["RCH001"]["witness"]["underivable"]


def json_report(capsys, path: str) -> dict:
    assert main(["lint", path, "--format", "json", "--fail-on", "never"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_JSON_SCHEMA)
    assert report["schema_version"] == REPORT_SCHEMA_VERSION
    return report


class TestPrintSchema:
    def test_print_schema_matches_published_constant(self, capsys):
        assert main(["lint", "--print-schema"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == REPORT_JSON_SCHEMA
        jsonschema.Draft202012Validator.check_schema(printed)

    def test_lint_without_theory_or_flag_is_an_error(self, capsys):
        assert main(["lint"]) == 2
        assert "error:" in capsys.readouterr().err


class TestFailOn:
    def test_fail_on_error_default(self, capsys):
        assert main(["lint", FLAWED]) == 1
        capsys.readouterr()

    def test_fail_on_warning(self, capsys):
        assert main(["lint", PUBLICATION, "--fail-on", "warning"]) == 0
        capsys.readouterr()

    def test_fail_on_never_still_prints(self, capsys):
        assert main(["lint", FLAWED, "--fail-on", "never"]) == 0
        assert "GRD001" in capsys.readouterr().out

    def test_warning_only_theory(self, capsys, tmp_path):
        path = tmp_path / "dead.rules"
        path.write_text("Ghost(x), E(x, y) -> Haunt(x)\nHaunt(x) -> Ghost(x)\n")
        assert main(["lint", str(path)]) == 0
        capsys.readouterr()
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_jointly_cyclic_theory_fails_on_warning(self, capsys, tmp_path):
        path = tmp_path / "loop.rules"
        path.write_text("E(x, y) -> exists z. F(y, z)\nF(x, y) -> E(x, y)\n")
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_clean_theory_has_zero_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "clean.rules"
        path.write_text(
            "E(x, y) -> Path(x, y)\nPath(x, y), E(y, z) -> Path(x, z)\n"
        )
        assert main(["lint", str(path), "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        assert "(0 diagnostics)" in out


class TestParseErrors:
    def test_lint_reports_line_and_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("P(x) -> Q(x)\nP(x ->\n")
        assert main(["lint", str(path)]) == 2
        out = capsys.readouterr().out
        assert "PAR001" in out
        assert f"{path}:2:" in out

    def test_parse_error_exits_2_even_with_fail_on_never(self, capsys, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("P(x ->\n")
        assert main(["lint", str(path), "--fail-on", "never"]) == 2
        capsys.readouterr()

    def test_other_commands_report_location(self, capsys, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("P(x) -> Q(x)\nnope nope\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{path}:2:" in err

    def test_missing_file_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["lint", str(tmp_path / "nope.rules")])


class TestTerminationWitness:
    def test_prints_cycles(self, capsys, tmp_path):
        path = tmp_path / "loop.rules"
        path.write_text("E(x, y) -> exists z. E(y, z)\n")
        assert main(["termination", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "terminates: unknown (unknown)"
        assert "(E,1) => (E,1)" in out
        assert "z@rule0" in out

    def test_terminating_theory_prints_no_witness(self, capsys, tmp_path):
        path = tmp_path / "fine.rules"
        path.write_text("P(x) -> exists z. Q(x, z)\n")
        assert main(["termination", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "terminates: yes (weakly-acyclic)"

    def test_mfa_theory_terminates(self, capsys, tmp_path):
        # The default budget is the advisor's, so is the verdict: the
        # graph rungs fail and the critical-instance chase proves it.
        path = tmp_path / "mfa.rules"
        path.write_text(MFA + "\n")
        assert main(["termination", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "terminates: yes (model-faithful-acyclic)"
        assert "critical-instance chase: terminates after" in out

    def test_climbs_each_rung_once(self, capsys, tmp_path, monkeypatch):
        calls = dict.fromkeys(
            (
                "position_dependency_graph",
                "find_joint_cycle",
                "find_super_weak_cycle",
                "mfa_check",
            ),
            0,
        )
        for name in calls:
            original = getattr(termination, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # Wrap every binding of the function, not just its home module.
            for module_name, module in list(sys.modules.items()):
                if (
                    module_name.startswith("repro")
                    and getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, counted)
        path = tmp_path / "loop.rules"
        path.write_text(LOOP + "\n")
        assert main(["termination", str(path), "--mfa-steps", "64"]) == 1
        capsys.readouterr()
        assert calls == dict.fromkeys(calls, 1)


class TestStatsIntegration:
    def test_lint_stats_reports_pass_spans(self, capsys):
        assert main(["lint", PUBLICATION, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "analysis.guardedness" in err
        assert "analysis.diagnostics" in err

    def test_critical_instance_chase_is_traced(self, capsys, tmp_path):
        path = tmp_path / "mfa.rules"
        path.write_text(MFA + "\n")
        for command in ("termination", "lint"):
            assert main([command, str(path), "--stats"]) == 0
            assert "chase.termination.mfa" in capsys.readouterr().err
