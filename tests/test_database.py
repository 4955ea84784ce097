"""Unit tests for repro.core.database."""

import pytest

from repro.core.atoms import Atom
from repro.core.database import Database
from repro.core.parser import parse_database
from repro.core.terms import Constant, Null, Variable

A, B, C = Constant("a"), Constant("b"), Constant("c")
N = Null("n0")


class TestBasics:
    def test_add_and_contains(self):
        db = Database()
        atom = Atom("R", (A, B))
        assert db.add(atom)
        assert atom in db
        assert not db.add(atom)  # duplicate

    def test_rejects_non_ground(self):
        with pytest.raises(ValueError):
            Database([Atom("R", (Variable("x"),))])

    def test_nulls_allowed(self):
        db = Database([Atom("R", (A, N))])
        assert db.nulls() == {N}

    def test_len_and_iter(self):
        db = Database([Atom("R", (A,)), Atom("R", (B,))])
        assert len(db) == 2
        assert set(db) == {Atom("R", (A,)), Atom("R", (B,))}


class TestIndexes:
    def setup_method(self):
        self.db = Database(
            [Atom("R", (A, B)), Atom("R", (A, C)), Atom("R", (B, C)), Atom("S", (A,))]
        )

    def test_atoms_for(self):
        assert len(self.db.atoms_for(("R", 2, 0))) == 3
        assert len(self.db.atoms_for(("S", 1, 0))) == 1
        assert not self.db.atoms_for(("T", 1, 0))

    def test_positional_matching(self):
        matches = self.db.atoms_matching(("R", 2, 0), {0: A})
        assert matches == {Atom("R", (A, B)), Atom("R", (A, C))}

    def test_multi_position_matching(self):
        matches = self.db.atoms_matching(("R", 2, 0), {0: A, 1: C})
        assert matches == {Atom("R", (A, C))}

    def test_no_bindings_returns_all(self):
        assert len(self.db.atoms_matching(("R", 2, 0), {})) == 3

    def test_annotation_positions_indexed(self):
        db = Database([Atom("R", (A,), (B,))])
        assert db.atoms_matching(("R", 1, 1), {1: B})


class TestACDom:
    def test_active_constants_excludes_nulls(self):
        db = Database([Atom("R", (A, N))])
        assert db.active_constants() == frozenset({A})

    def test_frozen_extension_stable(self):
        # A database tracks its constants until an engine run (or
        # freeze_acdom) fixes them; from then on additions stay out.
        db = Database([Atom("R", (A,))])
        db.add(Atom("R", (B,)))
        assert db.active_constants() == frozenset({A, B})
        db.freeze_acdom()
        db.add(Atom("R", (C,)))
        assert db.active_constants() == frozenset({A, B})

    def test_unfrozen_tracks_additions(self):
        db = Database([Atom("R", (A,))])
        db.add(Atom("R", (B,)))
        assert db.active_constants() == frozenset({A, B})

    def test_ensure_frozen_idempotent(self):
        db = Database([Atom("R", (A,))])
        db.ensure_acdom_frozen()
        db.add(Atom("R", (B,)))
        db.ensure_acdom_frozen()
        assert db.active_constants() == frozenset({A})

    def test_acdom_relation_itself_excluded(self):
        db = Database([Atom("ACDom", (C,)), Atom("R", (A,))])
        assert db.active_constants() == frozenset({A})


class TestCopiesAndViews:
    def test_copy_independent(self):
        db = Database([Atom("R", (A,))])
        clone = db.copy()
        clone.add(Atom("R", (B,)))
        assert len(db) == 1 and len(clone) == 2

    def test_copy_preserves_frozen_acdom(self):
        db = Database([Atom("R", (A,))])
        db.freeze_acdom()
        clone = db.copy()
        clone.add(Atom("R", (B,)))
        assert clone.active_constants() == frozenset({A})

    def test_restrict_to_relations(self):
        db = Database([Atom("R", (A,)), Atom("S", (B,))])
        restricted = db.restrict_to_relations({"R"})
        assert set(restricted) == {Atom("R", (A,))}

    def test_ground_atoms_excludes_null_atoms(self):
        db = Database([Atom("R", (A,)), Atom("R", (N,))])
        assert db.ground_atoms() == frozenset({Atom("R", (A,))})

    def test_equality_is_extensional(self):
        assert Database([Atom("R", (A,))]) == Database([Atom("R", (A,))])


class TestParserIntegration:
    def test_parse_database_constants(self):
        db = parse_database("R(a, b). S(c).")
        assert Atom("R", (A, B)) in db
        assert db.active_constants() == frozenset({A, B, C})

    def test_parse_database_nulls(self):
        db = parse_database("R(a, _:n0).")
        assert Atom("R", (A, N)) in db


class TestAcdomSortedCache:
    """The sorted active-domain tuple is cached and only invalidated while
    the ACDom extension can still change (PR 4 regression: `_match_acdom`
    used to re-sort the active constants on every enumeration)."""

    def test_sorted_matches_active_constants(self):
        db = parse_database("R(b, a). S(c).")
        assert db.acdom_sorted() == tuple(
            sorted(db.active_constants(), key=lambda c: c.name)
        )

    def test_cache_survives_post_freeze_add(self):
        db = parse_database("R(a, b).")
        db.freeze_acdom()
        before = db.acdom_sorted()
        # the frozen extension is fixed by the input database, so adding a
        # chase-derived atom (even with a new constant) must not drop or
        # change the cached tuple
        db.add(Atom("R", (C, Null("n9"))))
        assert db.acdom_sorted() is before
        assert db.active_constants() == frozenset({A, B})

    def test_cache_invalidated_while_unfrozen(self):
        db = Database([Atom("R", (A,))])
        assert db.acdom_sorted() == (A,)
        db.add(Atom("R", (B,)))
        assert db.acdom_sorted() == (A, B)

    def test_freeze_resets_cache(self):
        db = Database([Atom("R", (A,))])
        _ = db.acdom_sorted()
        db.add(Atom("R", (B,)))
        db.freeze_acdom()
        assert db.acdom_sorted() == (A, B)

    def test_copy_preserves_cache(self):
        db = parse_database("R(a, b).")
        original = db.acdom_sorted()
        assert db.copy().acdom_sorted() == original
