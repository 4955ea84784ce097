"""Diagnostic records for the theory linter.

A :class:`Diagnostic` is one finding of the static analyzer: a stable
code (``GRD001``, ``TRM001``, …), a severity, a human-readable message, a
source location, and a **witness** — a machine-checkable JSON-able
structure that *proves* the finding (an uncovered unsafe variable with
its affected-position derivation, a special-edge cycle, a negation
cycle, …).  :mod:`repro.analysis.replay` re-checks witnesses against the
rules they were derived from; the test suite replays every witness the
analyzer ever emits.

The code registry below maps every code to its default severity and its
provenance in the paper (Definition/Theorem/Section), rendered in
DESIGN.md.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

from ..core.spans import SourceSpan

__all__ = [
    "Severity",
    "Diagnostic",
    "CodeInfo",
    "CODES",
    "AnalysisReport",
    "REPORT_SCHEMA_VERSION",
    "REPORT_JSON_SCHEMA",
]

#: Version of the ``repro lint --format json`` report layout.  Bumped
#: whenever ``AnalysisReport.to_dict()`` changes shape; consumers pin it
#: via ``REPORT_JSON_SCHEMA`` (``repro lint --print-schema``).
REPORT_SCHEMA_VERSION = 2


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so thresholds compare naturally."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str
    title: str
    severity: Severity
    provenance: str


#: Every diagnostic code the analyzer can emit.  ``severity`` is the
#: default; individual diagnostics may be downgraded (e.g. TRM001 is
#: informational when joint acyclicity still guarantees termination).
CODES: dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo(
            "PAR001",
            "syntax error",
            Severity.ERROR,
            "Section 2 (rule syntax, Equation (1))",
        ),
        CodeInfo(
            "SCH001",
            "inconsistent relation signature",
            Severity.ERROR,
            "Section 2 (relational signatures)",
        ),
        CodeInfo(
            "SCH002",
            "ACDom must not occur in rule heads",
            Severity.ERROR,
            "Section 2, 'Further Notions' (active constant domain)",
        ),
        CodeInfo(
            "GRD001",
            "rule is not weakly frontier-guarded",
            Severity.ERROR,
            "Definitions 1-3, Figure 1 (the theory falls outside every class)",
        ),
        CodeInfo(
            "GRD002",
            "rule is not guarded",
            Severity.INFO,
            "Definition 1 (guarded rules)",
        ),
        CodeInfo(
            "GRD003",
            "rule is not weakly guarded",
            Severity.INFO,
            "Definitions 2-3 (affected positions, weak guards)",
        ),
        CodeInfo(
            "TRM001",
            "theory is not weakly acyclic",
            Severity.WARNING,
            "Section 9 [23]; Fagin et al. (position dependency graph)",
        ),
        CodeInfo(
            "TRM002",
            "theory is not jointly acyclic",
            Severity.WARNING,
            "Section 9 [23]; Kroetzsch & Rudolph, IJCAI'11",
        ),
        CodeInfo(
            "TRM003",
            "theory is not super-weakly acyclic",
            Severity.WARNING,
            "Section 9 [23]; Marnette, PODS'09 (super-weak acyclicity)",
        ),
        CodeInfo(
            "TRM004",
            "critical-instance chase is cyclic (not MFA)",
            Severity.WARNING,
            "arXiv 1411.5220 §4; Cuenca Grau et al., JAIR'13 (MFA)",
        ),
        CodeInfo(
            "EST001",
            "predicted chase fact-count bound",
            Severity.INFO,
            "Fagin et al. (weak acyclicity gives polynomial chase bounds)",
        ),
        CodeInfo(
            "EST002",
            "predicted null-generation bound",
            Severity.INFO,
            "arXiv 1411.5220 §3 (existential fan-out along the position graph)",
        ),
        CodeInfo(
            "STR001",
            "theory is not stratifiable",
            Severity.ERROR,
            "Definition 22 / Section 8 (stratified negation)",
        ),
        CodeInfo(
            "RCH001",
            "rule can never fire",
            Severity.WARNING,
            "Section 2 (EDB/IDB signature split); predicate reachability",
        ),
        CodeInfo(
            "RCH002",
            "relation is derived but never read",
            Severity.INFO,
            "Section 2 (queries designate an output relation)",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code, severity, message, location, and witness."""

    code: str
    severity: Severity
    message: str
    rule_index: Optional[int] = None
    span: Optional[SourceSpan] = None
    witness: Mapping[str, Any] = field(default_factory=dict)

    def location(self) -> str:
        if self.span is not None:
            return self.span.label()
        return "<theory>"

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
            "rule": self.rule_index,
            "span": self.span.to_dict() if self.span else None,
            "witness": json.loads(json.dumps(dict(self.witness))),
        }


@dataclass(frozen=True)
class AnalysisReport:
    """The outcome of one analyzer run over a rule set."""

    diagnostics: tuple[Diagnostic, ...]
    source: Optional[str] = None

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    def errors(self) -> tuple[Diagnostic, ...]:
        return self.at_least(Severity.ERROR)

    def at_least(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity >= severity)

    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def counts(self) -> dict[str, int]:
        counts = {severity.label: 0 for severity in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.label] += 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "source": self.source,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": self.counts(),
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render_text(self) -> str:
        lines: list[str] = []
        for diagnostic in self.diagnostics:
            lines.append(
                f"{diagnostic.location()}: {diagnostic.severity.label} "
                f"{diagnostic.code}: {diagnostic.message}"
            )
            lines.extend(f"    {line}" for line in _witness_lines(diagnostic))
        counts = self.counts()
        lines.append(
            f"summary: {counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} infos ({len(self.diagnostics)} diagnostics)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _format_position(position: Any) -> str:
    relation, index = position
    return f"({relation},{index})"


def _witness_lines(diagnostic: Diagnostic) -> list[str]:
    """Compact human rendering of a witness, per code family."""
    witness = diagnostic.witness
    lines: list[str] = []
    if diagnostic.code in ("GRD001", "GRD002", "GRD003"):
        gap = witness.get("gap", {})
        required = ", ".join(gap.get("required", ()))
        lines.append(f"no single body atom covers {{{required}}}:")
        for entry in gap.get("atoms", ()):
            missing = ", ".join(entry["missing"])
            lines.append(f"  {entry['atom']} is missing {{{missing}}}")
        for entry in witness.get("unsafe", ()):
            positions = ", ".join(
                _format_position(p) for p in entry["body_positions"]
            )
            lines.append(
                f"note: {entry['variable']} is unsafe - body positions "
                f"{positions} are all affected "
                f"({len(entry['derivation'])}-step derivation)"
            )
    elif diagnostic.code == "TRM001":
        lines.append("cycle through a special edge in the position graph:")
        for edge in witness.get("cycle", ()):
            arrow = "=>" if edge["special"] else "->"
            lines.append(
                f"  {_format_position(edge['source'])} {arrow} "
                f"{_format_position(edge['target'])}"
            )
    elif diagnostic.code == "TRM002":
        nodes = witness.get("cycle", ())
        rendered = " -> ".join(
            f"{n['variable']}@rule{n['rule']}" for n in nodes
        )
        if nodes:
            lines.append(f"existential dependency cycle: {rendered} -> (wraps)")
    elif diagnostic.code == "TRM003":
        nodes = witness.get("cycle", ())
        rendered = " -> ".join(
            f"{n['variable']}@rule{n['rule']}" for n in nodes
        )
        if nodes:
            lines.append(
                f"super-weak dependency cycle: {rendered} -> (wraps)"
            )
    elif diagnostic.code == "TRM004":
        cyclic = witness.get("cyclic", {})
        lines.append(
            f"critical-instance chase re-nests the skolem term of "
            f"{cyclic.get('evar')}@rule{cyclic.get('rule')} after "
            f"{len(witness.get('trace', ()))} steps "
            f"(budget {witness.get('max_steps')})"
        )
    elif diagnostic.code == "EST001":
        for entry in witness.get("relations", ()):
            lines.append(
                f"  {entry['relation']}: degree {entry['degree']}"
            )
        lines.append(
            f"max per-relation polynomial degree: "
            f"{witness.get('total_degree')}"
        )
    elif diagnostic.code == "EST002":
        for entry in witness.get("existentials", ()):
            lines.append(
                f"  {entry['variable']}@rule{entry['rule']}: "
                f"degree {entry['degree']}, depth {entry['depth']}"
            )
        lines.append(f"max null nesting depth: {witness.get('max_rank')}")
    elif diagnostic.code == "STR001":
        lines.append("cycle through negation in the predicate graph:")
        for edge in witness.get("cycle", ()):
            arrow = "-[not]->" if edge["negative"] else "->"
            lines.append(
                f"  {edge['body']} {arrow} {edge['head']} (rule {edge['rule']})"
            )
    elif diagnostic.code == "RCH001":
        blocked = ", ".join(witness.get("underivable", ()))
        lines.append(
            f"relation {witness.get('relation')} is underivable; "
            f"deadlocked set: {{{blocked}}}"
        )
    elif diagnostic.code == "PAR001":
        position = witness.get("position")
        if position is not None:
            lines.append(f"at character offset {position}")
    elif diagnostic.code == "RCH002":
        rules = ", ".join(str(i) for i in witness.get("defined_by", ()))
        lines.append(
            f"relation {witness.get('relation')} is only written "
            f"(by rule {rules})"
        )
    elif witness:
        lines.append(json.dumps(dict(witness), sort_keys=True))
    return lines


#: JSON Schema (draft 2020-12) for ``AnalysisReport.to_dict()`` — used by
#: the CI gate that validates ``repro lint --format json`` output.
REPORT_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "source", "diagnostics", "summary"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "source": {"type": ["string", "null"]},
        "diagnostics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["code", "severity", "message", "rule", "span", "witness"],
                "additionalProperties": False,
                "properties": {
                    "code": {"type": "string", "pattern": "^[A-Z]{3}[0-9]{3}$"},
                    "severity": {"enum": ["error", "warning", "info"]},
                    "message": {"type": "string"},
                    "rule": {"type": ["integer", "null"]},
                    "span": {
                        "type": ["object", "null"],
                        "required": [
                            "line",
                            "column",
                            "end_line",
                            "end_column",
                            "source",
                        ],
                        "additionalProperties": False,
                        "properties": {
                            "line": {"type": "integer", "minimum": 1},
                            "column": {"type": "integer", "minimum": 1},
                            "end_line": {"type": "integer", "minimum": 1},
                            "end_column": {"type": "integer", "minimum": 1},
                            "source": {"type": ["string", "null"]},
                        },
                    },
                    "witness": {"type": "object"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["error", "warning", "info"],
            "additionalProperties": False,
            "properties": {
                "error": {"type": "integer", "minimum": 0},
                "warning": {"type": "integer", "minimum": 0},
                "info": {"type": "integer", "minimum": 0},
            },
        },
    },
}
