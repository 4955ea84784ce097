"""Unit and regression tests for ``repro.incremental`` delta maintenance.

Covers the counting path (insert propagation, the Backward/Forward
delete, including cyclic-support garbage), golden ``UpdateStats``
counts, the reported fallbacks (negation, ACDom,
existential retraction, WFG grounding) and their derived-row counts, the
delta-restricted chase, content-hash memo invalidation under interleaved
insert/retract, and the registry staleness contract: after an
``update`` the materialization cache and snapshot key follow the *new*
database hash, so a restarted registry answers post-update queries from
the new snapshot and never serves the pre-update model.
"""

import os
import random

from repro.core import Atom, Database
from repro.core.parser import parse_atom, parse_database, parse_theory
from repro.core.plan import MAX_COMPILED_ATOMS
from repro.core.terms import Constant
from repro.chase.runner import ChaseBudget, chase
from repro.datalog.engine import evaluate
from repro.incremental import (
    ChaseLiveModel,
    LiveModel,
    RecomputeLiveModel,
    UpdateStats,
    incremental_stats,
)

TC = "e(x,y) -> t(x,y)\ne(x,y), t(y,z) -> t(x,z)"


def atoms(*texts):
    return [parse_atom(text, data_mode=True) for text in texts]


def model_atoms(db):
    return set(db)


def fresh_eval(program, edb):
    return model_atoms(evaluate(program, parse_database(
        "\n".join(f"{atom}." for atom in sorted(edb))
    )))


class TestLongRuleBodies:
    def test_body_longer_than_the_compile_limit(self):
        # A body of MAX_COMPILED_ATOMS atoms runs compiled; a longer one
        # is too long for a generated executor, so it runs on the
        # interpreter in insert propagation and overdeletion alike.  The
        # rederive pins the head in front of the body, so it interprets
        # from MAX_COMPILED_ATOMS body atoms on.
        for n in (MAX_COMPILED_ATOMS, MAX_COMPILED_ATOMS + 1, MAX_COMPILED_ATOMS + 6):
            body = ", ".join(f"e(v{i}, v{i + 1})" for i in range(n))
            program = parse_theory(f"{body} -> p(v0, v{n})")
            edb = set(atoms(*(f"e(c{i}, c{i + 1})" for i in range(n))))
            live = LiveModel(program, parse_database(
                "\n".join(f"{atom}." for atom in sorted(edb))
            ))
            assert live.mode == "counting"
            assert live.answers("p") == {(Constant("c0"), Constant(f"c{n}"))}
            inserted = atoms(f"e(c{n}, c{n + 1})")
            live.apply(inserts=inserted)
            edb.update(inserted)
            assert model_atoms(live.model) == fresh_eval(program, edb)
            assert len(live.answers("p")) == 2
            retracted = atoms("e(c0, c1)")
            live.apply(retracts=retracted)
            edb.difference_update(retracted)
            assert model_atoms(live.model) == fresh_eval(program, edb)
            assert live.answers("p") == {(Constant("c1"), Constant(f"c{n + 1}"))}


class TestCountingInsert:
    def test_insert_propagates_transitively(self):
        program = parse_theory(TC)
        live = LiveModel(program, parse_database("e(a, b)."))
        assert live.mode == "counting"
        stats = live.apply(inserts=atoms("e(b, c)"))
        assert stats.mode == "counting" and stats.fallback is None
        assert stats.inserted == 1
        assert live.answers("t") == {
            (Constant("a"), Constant("b")),
            (Constant("b"), Constant("c")),
            (Constant("a"), Constant("c")),
        }
        assert model_atoms(live.model) == fresh_eval(program, live.edb)

    def test_duplicate_insert_is_a_noop(self):
        program = parse_theory(TC)
        live = LiveModel(program, parse_database("e(a, b)."))
        stats = live.apply(inserts=atoms("e(a, b)"))
        assert stats.inserted == 0 and stats.delta_size == 0

    def test_insert_of_already_derived_fact_gains_edb_status(self):
        # t(a,b) is derived; inserting it extensionally must let it
        # survive the later retraction of its only derivation.
        program = parse_theory(TC)
        live = LiveModel(program, parse_database("e(a, b)."))
        live.apply(inserts=atoms("t(a, b)"))
        live.apply(retracts=atoms("e(a, b)"))
        assert live.answers("t") == {(Constant("a"), Constant("b"))}
        assert model_atoms(live.model) == fresh_eval(program, live.edb)


class TestCountingRetract:
    def test_retract_removes_dependent_derivations(self):
        program = parse_theory(TC)
        live = LiveModel(program, parse_database("e(a, b). e(b, c). e(c, d)."))
        stats = live.apply(retracts=atoms("e(b, c)"))
        assert stats.retracted == 1
        assert stats.mode == "counting"
        assert live.answers("t") == {
            (Constant("a"), Constant("b")),
            (Constant("c"), Constant("d")),
        }
        assert model_atoms(live.model) == fresh_eval(program, live.edb)

    def test_alternative_support_survives_rederivation(self):
        # t(a,c) holds via b and via d; deleting one path keeps it.
        program = parse_theory(TC)
        live = LiveModel(
            program,
            parse_database("e(a, b). e(b, c). e(a, d). e(d, c)."),
        )
        stats = live.apply(retracts=atoms("e(b, c)"))
        assert (Constant("a"), Constant("c")) in live.answers("t")
        assert stats.rederived >= 1
        assert model_atoms(live.model) == fresh_eval(program, live.edb)

    def test_cyclic_support_is_garbage_collected(self):
        # A derivation cycle with no external support must die whole:
        # p/q support each other once seeded, and the seed goes away.
        program = parse_theory("s(x) -> p(x)\np(x) -> q(x)\nq(x) -> p(x)")
        live = LiveModel(program, parse_database("s(a)."))
        assert live.answers("p") == {(Constant("a"),)}
        live.apply(retracts=atoms("s(a)"))
        assert live.answers("p") == set()
        assert live.answers("q") == set()
        assert model_atoms(live.model) == fresh_eval(program, live.edb)

    def test_retract_of_absent_fact_is_a_noop(self):
        program = parse_theory(TC)
        live = LiveModel(program, parse_database("e(a, b)."))
        stats = live.apply(retracts=atoms("e(z, z)"))
        assert stats.retracted == 0 and stats.delta_size == 0

    def test_mixed_batch_matches_recompute(self):
        program = parse_theory(TC)
        live = LiveModel(program, parse_database("e(a, b). e(b, c)."))
        live.apply(inserts=atoms("e(c, d)"), retracts=atoms("e(a, b)"))
        assert model_atoms(live.model) == fresh_eval(program, live.edb)
        assert live.answers("t") == {
            (Constant("b"), Constant("c")),
            (Constant("c"), Constant("d")),
            (Constant("b"), Constant("d")),
        }


class TestReportedFallbacks:
    def test_negation_falls_back_with_reason(self):
        program = parse_theory("e(x,y) -> r(x,y)\ne(x,y), not r(y,x) -> one_way(x,y)")
        live = LiveModel(program, parse_database("e(a, b)."))
        assert live.mode == "recompute" and live.fallback_reason == "negation"
        stats = live.apply(inserts=atoms("e(b, a)"))
        assert stats.mode == "recompute" and stats.fallback == "negation"
        assert live.answers("one_way") == set()

    def test_recompute_counts_derived_rows_net_of_the_edb_change(self):
        # r(c,d) and one_way(c,d) are the derived rows; e(c,d) is not.
        program = parse_theory("e(x,y) -> r(x,y)\ne(x,y), not r(y,x) -> one_way(x,y)")
        live = LiveModel(program, parse_database("e(a, b)."))
        stats = live.apply(inserts=atoms("e(c, d)"))
        assert (stats.inserted, stats.derived_added, stats.delta_size) == (1, 2, 3)
        stats = live.apply(retracts=atoms("e(a, b)"))
        assert (stats.retracted, stats.derived_removed, stats.delta_size) == (1, 2, 3)

    def test_counting_and_recompute_report_the_same_delta(self):
        program = parse_theory(TC)
        database = parse_database("e(a, b).")
        counting = LiveModel(program, database)
        recompute = RecomputeLiveModel(
            lambda db: evaluate(program, db), database, reason="wfg_grounding"
        )
        for batch, size in (
            ({"inserts": atoms("e(b, c)")}, 3),
            ({"retracts": atoms("e(b, c)")}, 3),
            # t(a,b) is already derived: it only gains extensional status.
            ({"inserts": atoms("t(a, b)")}, 1),
            # ... and loses it again while e(a,b) still derives it.
            ({"retracts": atoms("t(a, b)")}, 1),
        ):
            expected = counting.apply(**batch)
            got = recompute.apply(**batch)
            assert expected.mode == "counting" and got.mode == "recompute"
            assert (
                got.inserted,
                got.retracted,
                got.derived_added,
                got.derived_removed,
                got.delta_size,
            ) == (
                expected.inserted,
                expected.retracted,
                expected.derived_added,
                expected.derived_removed,
                expected.delta_size,
            )
            assert expected.delta_size == size

    def test_acdom_falls_back_with_reason(self):
        program = parse_theory("ACDom(x), e(y,z) -> reach(x)")
        live = LiveModel(program, parse_database("e(a, b)."))
        assert live.fallback_reason == "acdom"
        live.apply(inserts=atoms("e(c, d)"))
        # Inserts grow the active domain: the recompute must see c and d.
        assert (Constant("c"),) in live.answers("reach")

    def test_recompute_live_model_reports_its_reason(self):
        program = parse_theory(TC)

        def materialize(db):
            return evaluate(program, db)

        live = RecomputeLiveModel(
            materialize, parse_database("e(a, b)."), reason="wfg_grounding"
        )
        stats = live.apply(inserts=atoms("e(b, c)"))
        assert stats.mode == "recompute" and stats.fallback == "wfg_grounding"
        assert (Constant("a"), Constant("c")) in live.answers("t")

    def test_fallback_counts_in_process_stats(self):
        before = incremental_stats()
        live = LiveModel(
            parse_theory("e(x,y), not t(x,y) -> miss(x,y)\ne(x,y) -> s(x,y)"),
            parse_database("e(a, b)."),
        )
        live.apply(inserts=atoms("e(b, c)"))
        after = incremental_stats()
        assert after["updates"] == before["updates"] + 1
        assert after["fallbacks"] == before["fallbacks"] + 1


class TestChaseLiveModel:
    THEORY = "p(x) -> exists y. e(x,y)\ne(x,y) -> src(x)"

    def test_insert_extends_chase_without_recompute(self):
        theory = parse_theory(self.THEORY)
        live = ChaseLiveModel(theory, parse_database("p(a)."))
        stats = live.apply(inserts=atoms("p(b)"))
        assert stats.mode == "chase_delta" and stats.fallback is None
        # Both a and b now have existential successors feeding src.
        assert live.answers("src") == {(Constant("a"),), (Constant("b"),)}
        # The constant-only facts agree with a from-scratch chase.
        result = chase(theory, parse_database("p(a). p(b)."))
        assert live.answers("src") == {
            tuple(atom.args)
            for atom in result.database
            if atom.relation == "src"
            and all(isinstance(t, Constant) for t in atom.args)
        }

    def test_retraction_triggers_reported_recompute(self):
        theory = parse_theory(self.THEORY)
        live = ChaseLiveModel(theory, parse_database("p(a). p(b)."))
        stats = live.apply(retracts=atoms("p(b)"))
        assert stats.mode == "recompute"
        assert stats.fallback == "existential_retraction"
        # p(b) is extensional; e(b, _) and src(b) are the derived rows.
        assert (stats.retracted, stats.derived_removed, stats.delta_size) == (1, 2, 3)
        # The recomputed model has no trace of b's derivations.
        assert all(
            Constant("b") not in atom.args for atom in live.model
        )

    def test_update_span_names_the_path_taken(self):
        from repro.obs import instrumented

        live = ChaseLiveModel(parse_theory(self.THEORY), parse_database("p(a)."))
        with instrumented() as instr:
            live.apply(inserts=atoms("p(b)"))
            live.apply(retracts=atoms("p(b)"))
        modes = [
            span.attrs["mode"]
            for span in instr.tracer.spans
            if span.name == "incremental.update"
        ]
        assert modes == ["chase_delta", "recompute"]

    def test_constant_facts_survive_delta_chase(self):
        theory = parse_theory(
            "p(x) -> exists y. e(x,y)\np(x), p(z) -> link(x,z)"
        )
        live = ChaseLiveModel(theory, parse_database("p(a)."))
        live.apply(inserts=atoms("p(b)"))
        assert (Constant("a"), Constant("b")) in live.answers("link")
        assert (Constant("b"), Constant("a")) in live.answers("link")


class TestGoldenUpdateStats:
    """The counting path's bookkeeping, pinned batch by batch:
    ``(overdeleted, rederived, derived_added, derived_removed)`` per
    ``apply``, and the model equal to a from-scratch evaluation after
    each.  ``derived_added``/``derived_removed`` were recorded on the
    per-row support recount and held through the DRed delete, so a
    change to how the counting path fires rules must leave them as they
    are.  ``overdeleted``/``rederived`` are the Backward/Forward delete's
    examined and kept facts; they depend on its search order, which
    visits instances in sorted row order on either join path, and were
    re-pinned when it replaced DRed (whose overdeleted/rederived counts
    were larger, e.g. ``(3660, 3480)`` and ``(3479, 3419)`` for the
    60-node SCC)."""

    CYCLE = TC + "\nt(x,y), e(y,x) -> c(x)"
    HEADS = (
        TC + "\nt(x,y), t(y,x) -> mutual(x,x)"
        '\nt(x,y) -> tag(x,"c"), reach(y)'
        '\ne(x,x) -> loop(x,"self")'
    )

    @staticmethod
    def edge(u, v):
        return Atom("e", (Constant(u), Constant(v)))

    def check(self, text, database, batches, expected):
        program = parse_theory(text)
        live = LiveModel(program, database)
        counts = []
        for inserts, retracts in batches:
            stats = live.apply(inserts=inserts, retracts=retracts)
            assert stats.mode == "counting"
            counts.append(
                (
                    stats.overdeleted,
                    stats.rederived,
                    stats.derived_added,
                    stats.derived_removed,
                )
            )
            reference = evaluate(program, Database(list(live.edb)))
            assert model_atoms(live.model) == model_atoms(reference)
        assert counts == expected

    def test_retraction_inside_a_60_node_scc(self):
        # The graph of the differential suite's large-SCC case.
        rng = random.Random(60)
        names = [f"v{i}" for i in range(60)]
        edges = {self.edge(names[i], names[(i + 1) % 60]) for i in range(60)}
        while len(edges) < 120:
            u, v = rng.sample(names, 2)
            edges.add(self.edge(u, v))
        self.check(
            self.CYCLE,
            Database(sorted(edges)),
            [
                ([], [self.edge("v0", "v1")]),
                ([self.edge("v0", "v1")], [self.edge("v30", "v31")]),
            ],
            [(1540, 1359, 0, 180), (1576, 1515, 179, 60)],
        )

    def test_sink_pair_two_cycle(self):
        # The served workload's update cycle: two sinks the ring reaches
        # become a 2-cycle, then lose it edge by edge.
        ring = [f"n{i}" for i in range(8)]
        graph = [(ring[i], ring[(i + 1) % 8]) for i in range(8)]
        graph += [("n0", "n4"), ("n5", "n2"), ("n1", "s1"), ("n3", "s2")]
        graph += [("n6", "s3"), ("s1", "s4")]
        self.check(
            self.CYCLE,
            Database([self.edge(u, v) for u, v in graph]),
            [
                ([self.edge("s2", "s3")], []),
                ([self.edge("s3", "s2")], []),
                ([], [self.edge("s3", "s2")]),
                ([], [self.edge("s2", "s3")]),
            ],
            [(0, 0, 1, 0), (0, 0, 5, 0), (14, 8, 0, 5), (7, 5, 0, 1)],
        )

    def test_heads_with_constants_repeated_variables_and_two_atoms(self):
        # Extensional rows of the head relations that the rules' heads do
        # not match (another constant, distinct arguments) are retracted
        # too: a rule pinned on such a row must not take it back.
        database = parse_database(
            'e(a, b). e(b, a). e(b, c). e(c, c). tag(a, "d"). '
            'mutual(a, b). loop(c, "other").'
        )
        self.check(
            self.HEADS,
            database,
            [
                ([], atoms("e(b, a)")),
                ([], atoms('tag(a, "d")', "mutual(a, b)")),
                (atoms("e(b, a)", "e(d, d)"), []),
                ([], atoms("e(c, c)")),
                ([], atoms("e(d, d)", 'loop(c, "other")')),
            ],
            [(12, 5, 0, 6), (2, 0, 0, 0), (0, 0, 11, 0), (7, 2, 0, 4), (7, 0, 0, 5)],
        )


class TestUpdateStatsShape:
    def test_delta_size_sums_all_changed_rows(self):
        stats = UpdateStats(
            inserted=2, retracted=1, derived_added=3, derived_removed=4
        )
        assert stats.delta_size == 10
        payload = stats.to_dict()
        assert payload["delta_size"] == 10
        assert payload["fallback"] is None


class TestContentHashMemo:
    """Satellite: the structural hash memo must be invalidated by every
    delta path."""

    def check_interleaved(self, db):
        baseline = db.content_hash()
        added = atoms("e(x, y)")[0]
        assert db.add(added)
        grown = db.content_hash()
        assert grown != baseline
        # Re-hash without mutation: memoized, stable.
        assert db.content_hash() == grown
        assert db.remove(added)
        assert db.content_hash() == baseline
        # Structural: equal content from a different construction order.
        mirror = parse_database(
            "\n".join(f"{atom}." for atom in sorted(db))
        )
        assert mirror.content_hash() == db.content_hash()

    def test_interleaved_add_remove(self):
        self.check_interleaved(parse_database("e(a, b). e(b, c)."))

    def test_live_model_edb_hash_tracks_every_update(self):
        program = parse_theory(TC)
        live = LiveModel(program, parse_database("e(a, b). e(b, c)."))
        seen = {live.edb.content_hash()}
        live.apply(inserts=atoms("e(c, d)"))
        key_after_insert = live.edb.content_hash()
        assert key_after_insert not in seen
        seen.add(key_after_insert)
        live.apply(retracts=atoms("e(a, b)"))
        key_after_retract = live.edb.content_hash()
        assert key_after_retract not in seen
        # The maintained EDB hashes exactly like a fresh parse of its
        # current contents — the service's re-keying contract.
        rendered = "\n".join(f"{atom}." for atom in sorted(live.edb))
        assert parse_database(rendered).content_hash() == key_after_retract


class TestRegistryStaleness:
    """Satellite: after ``update`` the LRU slot and snapshot key follow
    the new database hash; a restart warms from the *new* snapshot and
    the pre-update model is never served again."""

    THEORY = "e(x,y) -> t(x,y)\ne(x,y), t(y,z) -> t(x,z)"
    DATA = "e(a, b). e(b, c)."

    def test_update_rekeys_cache_and_snapshot(self, tmp_path):
        from repro.service.registry import TheoryRegistry

        registry = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        compiled = registry.register(self.THEORY)
        db = parse_database(self.DATA)
        old_key = db.content_hash()
        compiled.answer(db, "t", db_key=old_key)
        assert os.listdir(tmp_path) == [
            f"{compiled.content_hash[:20]}-{old_key[:20]}-datalog.snap"
        ]

        new_key, stats, live = compiled.update(
            db, atoms("e(c, d)"), [], db_key=old_key
        )
        assert new_key != old_key
        assert stats.mode == "counting"
        # The one entry moved from the old key to the new one.
        assert compiled._held == {new_key: live}
        # New snapshot persisted under the post-update hash.
        new_name = f"{compiled.content_hash[:20]}-{new_key[:20]}-datalog.snap"
        assert new_name in os.listdir(tmp_path)

    def test_restart_serves_post_update_model_from_new_key(self, tmp_path):
        from repro.service.registry import TheoryRegistry

        registry = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        compiled = registry.register(self.THEORY)
        db = parse_database(self.DATA)
        compiled.answer(db, "t", db_key=db.content_hash())
        new_key, _, live = compiled.update(
            db, atoms("e(c, d)"), atoms("e(a, b)"), db_key=db.content_hash()
        )

        restarted = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        warmed = restarted.register(self.THEORY)
        post_update_db = parse_database(
            "\n".join(f"{atom}." for atom in sorted(live.edb))
        )
        assert post_update_db.content_hash() == new_key
        outcome = warmed.answer(post_update_db, "t", db_key=new_key)
        # The post-update model, straight from the re-keyed snapshot.
        assert outcome.value == {
            (Constant("b"), Constant("c")),
            (Constant("c"), Constant("d")),
            (Constant("b"), Constant("d")),
        }
        stats = restarted.stats()
        assert stats["materializations"] == 0
        assert stats["snapshot_loads"] >= 1

    def test_stale_pre_update_snapshot_never_answers_new_key(self, tmp_path):
        from repro.service.registry import TheoryRegistry

        registry = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        compiled = registry.register(self.THEORY)
        db = parse_database(self.DATA)
        old_key = db.content_hash()
        compiled.answer(db, "t", db_key=old_key)
        new_key, _, _ = compiled.update(db, atoms("e(c, d)"), [], db_key=old_key)

        # Remove the NEW snapshot, keeping only the stale pre-update one:
        # a restart must recompute rather than serve the stale model.
        for name in os.listdir(tmp_path):
            if new_key[:20] in name:
                os.unlink(tmp_path / name)
        restarted = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        warmed = restarted.register(self.THEORY)
        post_db = parse_database(self.DATA + " e(c, d).")
        assert post_db.content_hash() == new_key
        outcome = warmed.answer(post_db, "t", db_key=new_key)
        assert (Constant("a"), Constant("d")) in outcome.value
        assert restarted.stats()["materializations"] == 1

    def test_wfg_strategy_updates_via_reported_recompute(self):
        # The WFG pipeline's partial grounding is database-dependent, so
        # its live model is the reported-recompute wrapper.  The advisor
        # routes every weakly-acyclic WG exemplar straight to the chase,
        # so force the plan onto the Theorem 2 rewriting explicitly.
        from dataclasses import replace

        from repro.service.registry import STRATEGY_WFG, compile_theory
        from repro.translate import rewrite_weakly_frontier_guarded

        text = (
            "E(x,y) -> T(x,y)\n"
            "E(x,y), T(y,z) -> T(x,z)\n"
            "T(x,y) -> exists w. M(y, w)\n"
            "M(y,w), T(x,y) -> Reach(x)"
        )
        compiled = compile_theory(text, strategy="auto")
        compiled.plan = replace(
            compiled.plan,
            strategy=STRATEGY_WFG,
            rewriting=rewrite_weakly_frontier_guarded(
                compiled.theory, max_rules=100_000
            ),
        )
        db = parse_database("E(a, b).")
        new_key, stats, live = compiled.update(
            db, atoms("E(b, c)"), [], db_key=db.content_hash()
        )
        assert stats.mode == "recompute"
        assert stats.fallback == "wfg_grounding"
        assert live.answers("Reach") == {
            (Constant("a"),),
            (Constant("b"),),
        }
        # Subsequent update on the re-keyed live entry keeps maintaining.
        newer_key, stats2, live2 = compiled.update(
            live.edb, [], atoms("E(a, b)"), db_key=new_key
        )
        assert live2 is live and stats2.fallback == "wfg_grounding"
        assert live.answers("Reach") == {(Constant("b"),)}

    def test_chase_strategy_update_extends_model(self):
        from repro.service.registry import compile_theory

        compiled = compile_theory(
            "p(x) -> exists y. e(x,y)\ne(x,y) -> seen(x)",
            strategy="chase",
        )
        db = parse_database("p(a).")
        key = db.content_hash()
        compiled.answer(db, "seen", db_key=key)
        new_key, stats, live = compiled.update(
            db, atoms("p(b)"), [], db_key=key, budget=ChaseBudget()
        )
        assert stats.mode == "chase_delta"
        assert live.answers("seen") == {(Constant("a"),), (Constant("b"),)}
