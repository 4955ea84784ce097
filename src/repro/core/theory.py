"""Theories — finite sets of existential rules.

A theory (Section 2) is a set of rules.  We keep rules in a tuple to give
deterministic iteration order, but equality and hashing treat the theory as
a set.  The class records the signature (relation name, arity, annotation
arity) and offers the bookkeeping the translations need: maximal relation
arity, constants occurring in rules, output relation management.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .atoms import RelationKey
from .rules import Rule
from .terms import Constant

__all__ = ["Theory", "ACDOM", "Query"]

#: The built-in active constant domain relation (Section 2, "Further Notions").
#: Its extension is fixed: ``ACDom(c)`` holds exactly for the constants that
#: occur in a non-ACDom atom of the input database.  It may be used in rule
#: bodies but never in rule heads.
ACDOM = "ACDom"


@dataclass(frozen=True)
class Theory:
    """An immutable collection of existential rules."""

    rules: tuple[Rule, ...]

    def __init__(self, rules: Iterable[Rule]) -> None:
        seen: set[Rule] = set()
        ordered: list[Rule] = []
        for rule in rules:
            if not isinstance(rule, Rule):
                raise TypeError(f"theory must contain rules, got {rule!r}")
            if rule not in seen:
                seen.add(rule)
                ordered.append(rule)
        object.__setattr__(self, "rules", tuple(ordered))
        self._validate()

    def _validate(self) -> None:
        arities: dict[str, RelationKey] = {}
        for rule in self.rules:
            for key in rule.relation_keys():
                name = key[0]
                previous = arities.get(name)
                if previous is not None and previous != key:
                    raise ValueError(
                        f"relation {name} used with inconsistent arity/annotation: "
                        f"{previous[1:]} vs {key[1:]}"
                    )
                arities[name] = key
            for atom in rule.head:
                if atom.relation == ACDOM:
                    raise ValueError("ACDom must not occur in rule heads")

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule in set(self.rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Theory):
            return NotImplemented
        return set(self.rules) == set(other.rules)

    def __hash__(self) -> int:
        return hash(frozenset(self.rules))

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __repr__(self) -> str:
        return f"Theory({len(self.rules)} rules)"

    # ------------------------------------------------------------------
    # signature bookkeeping
    # ------------------------------------------------------------------
    def relation_keys(self) -> set[RelationKey]:
        keys: set[RelationKey] = set()
        for rule in self.rules:
            keys |= rule.relation_keys()
        return keys

    def relations(self) -> set[str]:
        return {key[0] for key in self.relation_keys()}

    def arity_of(self, relation: str) -> int:
        for key in self.relation_keys():
            if key[0] == relation:
                return key[1]
        raise KeyError(f"relation {relation} not in theory signature")

    def max_arity(self, include_acdom: bool = False) -> int:
        """Maximal relation (argument) arity over the theory's signature."""
        arities = [
            key[1]
            for key in self.relation_keys()
            if include_acdom or key[0] != ACDOM
        ]
        return max(arities, default=0)

    def constants(self) -> set[Constant]:
        result: set[Constant] = set()
        for rule in self.rules:
            result |= rule.constants()
        return result

    def has_negation(self) -> bool:
        return any(rule.has_negation() for rule in self.rules)

    def is_datalog(self) -> bool:
        return all(rule.is_datalog() for rule in self.rules)

    def datalog_rules(self) -> tuple[Rule, ...]:
        return tuple(rule for rule in self.rules if rule.is_datalog())

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def extend(self, rules: Iterable[Rule]) -> "Theory":
        return Theory(self.rules + tuple(rules))

    def filter(self, predicate: Callable[[Rule], bool]) -> "Theory":
        return Theory(rule for rule in self.rules if predicate(rule))

    def map_rules(self, transform: Callable[[Rule], Rule]) -> "Theory":
        return Theory(transform(rule) for rule in self.rules)


@dataclass(frozen=True)
class Query:
    """A query ``(Σ, Q)`` — a theory with a designated output relation.

    ``ans((Σ,Q), D)`` is the set of constant tuples ``~c`` with
    ``Σ, D |= Q(~c)`` (Section 2).
    """

    theory: Theory
    output: str

    def __post_init__(self) -> None:
        if self.output not in self.theory.relations():
            raise ValueError(
                f"output relation {self.output} does not occur in the theory"
            )

    def __str__(self) -> str:
        return f"({len(self.theory)} rules, output={self.output})"
