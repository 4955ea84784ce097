"""Differential suite for the Datalog-first restricted chase.

The restricted policy runs Datalog-first: existential-free rules go to
a fixpoint through the Datalog engine's semi-naive loop, then one pass
fires the new existential triggers.  Its named oracles are the trigger
loop of Section 2 (the oblivious and skolem policies) and the Datalog
engine itself:

* on theories the strategy advisor proves terminating, the restricted
  and skolem chases both reach a fixpoint, agree on every all-constant
  fact, and are homomorphically equivalent (both are universal models);
* on existential-free theories, the restricted chase, the oblivious
  chase and :func:`repro.datalog.engine.evaluate` build the same model,
  atom for atom.

Theories and databases are drawn the way ``test_advisor_property`` draws
them.  CI runs this suite on the compiled join path and again with
``REPRO_NAIVE_JOIN=1``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import advise
from repro.bench.generators import random_datalog_theory, random_signature
from repro.chase.runner import OBLIVIOUS, RESTRICTED, SKOLEM, chase
from repro.core.homomorphism import databases_homomorphically_equivalent
from repro.datalog.engine import evaluate

from .test_advisor_property import BUDGET, _database, theories


@settings(max_examples=100, deadline=None)
@given(theories, st.integers(min_value=0, max_value=10_000))
def test_restricted_agrees_with_skolem_on_terminating_theories(theory, db_seed):
    if not advise(theory).terminates:
        return
    database = _database(db_seed, theory)
    restricted = chase(theory, database, policy=RESTRICTED, budget=BUDGET)
    skolem = chase(theory, database, policy=SKOLEM, budget=BUDGET)
    assert restricted.complete, restricted.truncated_reason
    assert skolem.complete, skolem.truncated_reason
    assert restricted.database.ground_atoms() == skolem.database.ground_atoms()
    assert databases_homomorphically_equivalent(
        restricted.database, skolem.database
    )


def _datalog_theory(seed: int):
    rng = random.Random(seed)
    signature = random_signature(rng, n_relations=4, min_arity=2, max_arity=3)
    return random_datalog_theory(rng, signature, n_rules=4)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_restricted_model_equals_datalog_and_oblivious(theory_seed, db_seed):
    theory = _datalog_theory(theory_seed)
    database = _database(db_seed, theory)
    restricted = chase(theory, database, policy=RESTRICTED, budget=BUDGET)
    oblivious = chase(theory, database, policy=OBLIVIOUS, budget=BUDGET)
    assert restricted.complete and oblivious.complete
    model = set(evaluate(theory, database))
    assert set(restricted.database) == model
    assert set(oblivious.database) == model
    # Every Datalog step derives one new fact.
    assert restricted.steps == len(model) - len(database)
