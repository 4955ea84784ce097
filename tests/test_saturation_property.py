"""Property test for the goal-directed saturation's candidate index.

A context is offered only the Datalog rules with a body atom that can map
onto one of its existential head atoms (``_RuleIndex.candidates``).  The
pruning is sound only if it drops nothing that composes: whenever
``_compositions(premise, rule, require_evar_contact=True)`` yields, the
index must offer ``rule`` for ``premise``.  The golden corpus checks the
closures on fixed inputs; this checks the offer itself on generated
theories, some with constants next to repeated variables.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Theory, parse_theory
from repro.core.terms import Constant
from repro.translate.saturation import (
    _compositions,
    _premise_of,
    _RuleIndex,
    try_saturate,
)

from .test_saturation_golden import _random_theory, case

CONSTANTS = tuple(Constant(name) for name in ("c0", "c1", "c2"))


def _theory(seed: int, with_constants: bool) -> Theory:
    """A golden-generator draw; with ``with_constants``, some rules get a
    universal variable replaced by a constant from a 3-constant pool."""
    theory = _random_theory(seed)
    if not with_constants:
        return theory
    rng = random.Random(seed)
    rules = []
    for rule in theory:
        universal = sorted(rule.uvars(), key=lambda v: v.name)
        if universal and rng.random() < 0.5:
            rule = rule.substitute({rng.choice(universal): rng.choice(CONSTANTS)})
        rules.append(rule)
    return Theory(rules)


def _check_offers(theory: Theory) -> int:
    """Assert the index offers every composing (premise, rule) pair of the
    saturated theory; returns how many pairs composed."""
    result = try_saturate(theory, max_rules=5_000).value
    datalog = list(result.datalog)
    index = _RuleIndex()
    for position, rule in enumerate(datalog):
        index.add(position, rule)
    composing = 0
    for rule in result.closure:
        if rule.is_datalog():
            continue
        premise = _premise_of(rule)
        offered = index.candidates(premise)
        assert offered == sorted(set(offered))
        for position, candidate in enumerate(datalog):
            if next(
                _compositions(premise, candidate, require_evar_contact=True), None
            ) is not None:
                composing += 1
                assert position in offered, (str(rule), str(candidate))
    return composing


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_index_offers_every_composing_rule(seed, with_constants):
    _check_offers(_theory(seed, with_constants))


#: Only the second ``R`` atom of the Datalog rule (bodies are sorted, and
#: ``R(x, 0)`` sorts first) can map onto the head ``R(x, y)``: the first
#: carries a constant where the head has the existential ``y``.
LATER_ATOM_MATCHES = parse_theory(
    """
    A(x) -> exists y. R(x, y)
    R(x, "0"), R(x, y) -> S(x)
    """
)


@pytest.mark.parametrize(
    "theory",
    [case("section7_chain3"), LATER_ATOM_MATCHES],
    ids=["section7_chain3", "later_atom_matches"],
)
def test_index_offers_every_composing_rule_on_fixed_theories(theory):
    assert _check_offers(theory) > 0
