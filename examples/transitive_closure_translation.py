"""Expressiveness boundaries: what frontier-guarded rules cannot say.

Transitive closure is the paper's canonical separator (Section 3): any
answer of a constant-free frontier-guarded query relates constants that
co-occur in a single database atom, so reachability — which relates the
endpoints of arbitrarily long paths — is Datalog- but not FG-expressible.
This script demonstrates the property, the violation, and how the *weakly*
guarded extension regains the lost power (and then some: the Section 7
pipeline answers the same query through the translations).

Run with ``python examples/transitive_closure_translation.py``.
"""

from repro import Query, certain_answers, classify, parse_database, parse_theory
from repro.expressiveness import answers_cooccur, cooccurrence_counterexample
from repro.translate import answer_wfg_query


def main() -> None:
    print("=== Frontier-guarded queries relate only co-occurring constants ===")
    fg_theory = parse_theory(
        """
        Publication(x) -> exists k1, k2. Keywords(x, k1, k2)
        Keywords(x, k1, k2) -> hasTopic(x, k1)
        hasAuthor(x,y), hasTopic(x,z) -> Topical(y, x)
        """
    )
    fg_db = parse_database("Publication(p1). hasAuthor(p1,a1). hasTopic(p1,t1).")
    print("FG theory classification:", classify(fg_theory).names())
    print(
        "co-occurrence property holds:",
        answers_cooccur(Query(fg_theory, "Topical"), fg_db),
    )
    print()

    print("=== Transitive closure violates the property ===")
    tc_query, tc_db, witness = cooccurrence_counterexample()
    print("theory:")
    print(tc_query.theory)
    print("database:", tc_db)
    answers = certain_answers(tc_query, tc_db)
    print("answers:", sorted((a.name, b.name) for a, b in answers))
    names = tuple(c.name for c in witness)
    print(f"the answer {names} relates constants sharing no input atom —")
    print("no frontier-guarded theory can produce it.")
    print("TC classification:", classify(tc_query.theory).names())
    print()

    print("=== The weakly guarded classes regain (and exceed) Datalog ===")
    wg_theory = parse_theory(
        """
        E(x,y) -> T(x,y)
        E(x,y), T(y,z) -> T(x,z)
        T(x,y) -> exists w. M(y, w)
        M(y,w), T(x,y) -> Reach(x)
        """
    )
    print("classification:", classify(wg_theory).names())
    wg_db = parse_database("E(a,b). E(b,c). E(c,d).")
    # The Section 7 pipeline: WFG → WG → partial grounding → Datalog →
    # evaluate.  (answer_query would take the planner's route instead: the
    # restricted chase, as this theory is weakly acyclic.)
    answers = answer_wfg_query(Query(wg_theory, "Reach"), wg_db).answers
    print("Reach via the Section 7 pipeline:", sorted(t[0].name for t in answers))


if __name__ == "__main__":
    main()
