"""Unit tests for the columnar fact store (repro.core.store).

Covers the symbol table, column relations (dedup, the row map, hash
buckets kept current across swap-remove deletion, range scans),
content-hash memoization, its patched fingerprint lines and its golden
value, and the snapshot lifecycle: round-trip equality, a byte-stable
format, copy-on-write thaw of mapped columns, the cache-key contract,
and the rejection of corrupted, truncated, and wrong-version files with
the typed :class:`SnapshotError` (never a crash, never a silently-wrong
model).
"""

import hashlib
import os
import struct
import sys

import pytest

from repro.core import Atom, Constant, Database, Variable, parse_database
from repro.core.store import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    ColumnDelta,
    ColumnRelation,
    SnapshotError,
    SymbolTable,
    load_snapshot,
    save_snapshot,
)
from repro.core.terms import Null

A, B, C, D = (Constant(name) for name in "abcd")
N0, N1 = Null("n0"), Null("n1")

#: The database whose content hash and snapshot bytes are pinned below.
GOLDEN_DATABASE = "E(a,b). E(b,c). S(c)."


def fact(relation, *names):
    return Atom(relation, tuple(Constant(name) for name in names))


class TestSymbolTable:
    def test_intern_is_idempotent_and_dense(self):
        table = SymbolTable()
        assert table.intern(A) == 0
        assert table.intern(B) == 1
        assert table.intern(A) == 0
        assert len(table) == 2

    def test_decode_inverts_intern(self):
        table = SymbolTable()
        for term in (A, N0, B):
            assert table.decode(table.intern(term)) is term

    def test_plain_intern_does_not_mark_occurrence(self):
        # Forced-fact encoding and ACDom ID resolution intern terms that
        # are not (yet) in any fact; ``occurring`` must not report them,
        # or the chase's fresh-null probe would skip live null names.
        table = SymbolTable()
        table.intern(A)
        assert list(table.occurring()) == []


class TestColumnRelation:
    KEY = ("R", 2, 0)

    def test_add_row_deduplicates(self):
        relation = ColumnRelation(self.KEY)
        assert relation.add_row((0, 1)) is True
        assert relation.add_row((0, 1)) is False
        assert relation.n_rows == 1

    def test_bucket_is_maintained_across_appends(self):
        relation = ColumnRelation(self.KEY)
        relation.add_row((0, 1))
        bucket = relation.bucket(0)
        assert bucket[0] == [0]
        relation.add_row((0, 2))  # built bucket must pick up new rows
        assert relation.bucket(0)[0] == [0, 1]

    def test_built_bucket_survives_remove_rows(self):
        relation = ColumnRelation(self.KEY)
        for row in [(0, 1), (0, 2), (1, 2), (2, 0)]:
            relation.add_row(row)
        bucket = relation.bucket(0)
        assert relation.remove_rows([(0, 1), (9, 9)]) == 1
        # Kept up to date in place, not reset for a lazy rebuild.
        assert relation._buckets[0] is bucket
        # The last row moved into the dead row's ordinal.
        assert relation.row(0) == (2, 0)
        assert {v: sorted(o) for v, o in bucket.items()} == {0: [1], 1: [2], 2: [0]}
        assert relation.rowmap() == {(2, 0): 0, (0, 2): 1, (1, 2): 2}
        # A value whose last row goes leaves the bucket.
        assert relation.remove_rows([(1, 2)]) == 1
        assert 1 not in bucket
        assert relation.n_rows == 2

    def test_rows_between_is_the_delta(self):
        relation = ColumnRelation(self.KEY)
        relation.add_row((0, 1))
        mark = relation.n_rows
        relation.add_row((2, 3))
        relation.add_row((4, 5))
        assert relation.rows_between(mark, relation.n_rows) == [(2, 3), (4, 5)]

    def test_add_rows_appends_the_absent_rows_as_one_block(self):
        relation = ColumnRelation(self.KEY)
        relation.add_row((0, 1))
        mark = relation.n_rows
        block = relation.add_rows([(4, 5), (0, 1), (2, 3), (4, 5)])
        # Present and repeated rows are skipped; the rest keep their order.
        assert block == [(4, 5), (2, 3)]
        assert relation.rows_between(mark, relation.n_rows) == block
        assert relation.rowmap() == {(0, 1): 0, (4, 5): 1, (2, 3): 2}
        assert relation.add_rows([(2, 3), (0, 1)]) == []
        assert relation.n_rows == 3

    def test_add_rows_extends_built_buckets_only(self):
        relation = ColumnRelation(self.KEY)
        relation.add_rows([(0, 1), (1, 1)])
        relation.rowmap()
        bucket = relation.bucket(0)
        relation.add_rows([(0, 2), (1, 1), (2, 1)])
        assert relation._buckets[0] is bucket
        assert bucket == {0: [0, 2], 1: [1], 2: [3]}
        assert relation._buckets[1] is None
        assert relation.rowmap() == {(0, 1): 0, (1, 1): 1, (0, 2): 2, (2, 1): 3}
        assert relation.bucket(1) == {1: [0, 1, 3], 2: [2]}

    def test_add_rows_thaws_a_snapshot_relation(self, tmp_path):
        path = str(tmp_path / "model.snap")
        save_snapshot(parse_database("R(a,b). R(b,c)."), path)
        db = load_snapshot(path)
        relation = db._relations[self.KEY]
        assert relation._frozen
        a, c = db._symtab._ids[A], db._symtab._ids[C]
        assert relation.add_rows([(a, c), (a, c)]) == [(a, c)]
        assert not relation._frozen
        assert all(type(col) is list for col in relation._cols)
        assert list(relation.iter_rows())[-1] == (a, c)
        assert relation.n_rows == 3


class TestContentHash:
    def test_memoized_until_mutation(self):
        db = Database([fact("R", "a", "b")])
        first = db.content_hash()
        assert db.content_hash() is first  # memoized, not recomputed
        db.add(fact("R", "b", "c"))
        second = db.content_hash()
        assert second != first

    def test_structural_and_order_independent(self):
        one = Database([fact("R", "a", "b"), fact("S", "c")])
        other = Database([fact("S", "c"), fact("R", "a", "b")])
        assert one.content_hash() == other.content_hash()

    def test_golden_value(self):
        # Content hashes name snapshot files already on disk; a changed
        # value would silently orphan every one of them.
        assert parse_database(GOLDEN_DATABASE).content_hash() == (
            "d8805c51177c97f8933843e2c3fcd296b43fea63e8611db4b9fe3ab27ada2c15"
        )

    def test_kept_lines_track_add_and_remove(self):
        # After the first hash, add/remove patch the sorted fingerprint
        # lines instead of re-sorting; the digest must equal a fresh
        # database's at every step, and a row-space mutation drops them.
        db = parse_database(GOLDEN_DATABASE)
        db.content_hash()
        steps = [
            ("add", fact("A", "z")),
            ("add", fact("E", "a", "a")),
            ("remove", fact("E", "b", "c")),
            ("remove", fact("E", "x", "y")),  # absent: nothing changes
            ("add", fact("E", "b", "c")),
            ("remove", fact("A", "z")),
        ]
        for kind, atom in steps:
            getattr(db, kind)(atom)
            assert db._hash_lines is not None
            assert db.content_hash() == Database(list(db)).content_hash()
        db._remove_rows(("S", 1, 0), [(db._symtab._ids[C],)])
        assert db._hash_lines is None
        assert db.content_hash() == Database(list(db)).content_hash()
        db._add_rows(("S", 1, 0), [(db._symtab.intern(D),)])
        assert db._hash_lines is None
        assert db.has_term(D)
        assert db.content_hash() == Database(list(db)).content_hash()

    def test_memo_regression_same_object_when_unchanged(self):
        # The registry keys its materialization LRU by this hash on
        # every request; recomputing a SHA-256 over the whole database
        # per lookup was the bug — the memo must survive reads.
        db = Database([fact("E", "a", "b")])
        key = db.content_hash()
        len(db), list(db), db.atoms()
        assert db.content_hash() is key


class TestColumnDelta:
    def test_decode_reboxes_rows(self):
        db = Database()
        db.add(fact("R", "a", "b"))
        mark = db.relation_size(("R", 2, 0))
        db.add(fact("R", "c", "d"))
        relation = db._relations[("R", 2, 0)]
        delta = ColumnDelta(("R", 2, 0), relation.rows_between(mark, relation.n_rows))
        assert delta.decode(db) == [fact("R", "c", "d")]


class TestSnapshotRoundTrip:
    ATOMS = [
        fact("E", "a", "b"),
        fact("E", "b", "c"),
        fact("T", "a", "c"),
        Atom("HasKey", (A, N0)),
        Atom("HasKey", (B, N1)),
    ]

    def save(self, tmp_path, db, **meta):
        path = str(tmp_path / "model.snap")
        save_snapshot(db, path, **meta)
        return path

    def test_round_trip_equality(self, tmp_path):
        db = Database(self.ATOMS)
        path = self.save(tmp_path, db, theory="t" * 40, db_key="d" * 40,
                         strategy="chase")
        loaded = load_snapshot(path, expect_theory="t" * 40,
                               expect_db_key="d" * 40, expect_strategy="chase")
        assert loaded == db
        assert set(loaded) == set(self.ATOMS)
        assert loaded.content_hash() == db.content_hash()
        assert loaded._snapshot_meta["db_key"] == "d" * 40

    def test_round_trip_preserves_acdom_and_nulls(self, tmp_path):
        db = Database(self.ATOMS)
        path = self.save(tmp_path, db)
        loaded = load_snapshot(path)
        assert loaded.constants() == db.constants()
        assert loaded.nulls() == {N0, N1}
        assert loaded._acdom_id_set() == db._acdom_id_set()

    def test_loaded_columns_thaw_on_append(self, tmp_path):
        db = Database(self.ATOMS)
        loaded = load_snapshot(self.save(tmp_path, db))
        assert loaded.add(fact("E", "c", "d")) is True
        assert fact("E", "c", "d") in loaded
        assert len(loaded) == len(db) + 1
        # The original rows survived the copy-on-write thaw.
        assert set(db) < set(loaded)

    @pytest.mark.skipif(
        sys.byteorder != "little", reason="columns are native int64"
    )
    def test_format_is_byte_stable(self, tmp_path):
        # SNAPSHOT_VERSION 1 files written by earlier builds must keep
        # loading, so the writer must keep producing the same bytes.
        path = self.save(tmp_path, parse_database(GOLDEN_DATABASE))
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert digest == (
            "cf6d77115c836169964a61890e2a31deff318abccfebb353e22017bafbb114aa"
        )

    def test_missing_file_raises_file_not_found(self, tmp_path):
        # An expected cache miss, distinct from the typed error.
        with pytest.raises(FileNotFoundError):
            load_snapshot(str(tmp_path / "absent.snap"))


class TestSnapshotRejection:
    def snapshot(self, tmp_path):
        db = Database([fact("E", "a", "b"), fact("E", "b", "c")])
        path = str(tmp_path / "model.snap")
        save_snapshot(db, path, theory="t" * 40, db_key="d" * 40,
                      strategy="datalog")
        return path

    def test_truncated_rejected(self, tmp_path):
        path = self.snapshot(tmp_path)
        payload = open(path, "rb").read()
        for cut in (0, 7, len(payload) // 2, len(payload) - 1):
            with open(path, "wb") as handle:
                handle.write(payload[:cut])
            with pytest.raises(SnapshotError):
                load_snapshot(path)

    def test_corrupted_byte_rejected(self, tmp_path):
        path = self.snapshot(tmp_path)
        payload = bytearray(open(path, "rb").read())
        payload[len(payload) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(payload)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = self.snapshot(tmp_path)
        payload = bytearray(open(path, "rb").read())
        payload[8:12] = struct.pack("<I", SNAPSHOT_VERSION + 1)
        with open(path, "wb") as handle:
            handle.write(payload)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = self.snapshot(tmp_path)
        payload = bytearray(open(path, "rb").read())
        payload[: len(SNAPSHOT_MAGIC)] = b"NOTASNAP"
        with open(path, "wb") as handle:
            handle.write(payload)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_cache_key_contract_enforced(self, tmp_path):
        path = self.snapshot(tmp_path)
        load_snapshot(path, expect_theory="t" * 40, expect_db_key="d" * 40,
                      expect_strategy="datalog")  # matching: fine
        with pytest.raises(SnapshotError):
            load_snapshot(path, expect_theory="x" * 40)
        with pytest.raises(SnapshotError):
            load_snapshot(path, expect_db_key="x" * 40)
        with pytest.raises(SnapshotError):
            load_snapshot(path, expect_strategy="chase")


class TestRegistryFallback:
    THEORY = "E(x,y) -> T(x,y)\nE(x,y), T(y,z) -> T(x,z)"
    DATA = "E(a,b). E(b,c)."

    def answer(self, registry):
        from repro.core import parse_database

        entry = registry.register(self.THEORY)
        db = parse_database(self.DATA)
        return entry.answer(db, "T", db_key=db.content_hash())

    def test_corrupt_snapshot_falls_back_to_recompute(self, tmp_path):
        from repro.service.registry import TheoryRegistry

        warm = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        first = self.answer(warm)
        (snapshot,) = os.listdir(tmp_path)
        payload = bytearray(open(tmp_path / snapshot, "rb").read())
        payload[-4] ^= 0xFF
        with open(tmp_path / snapshot, "wb") as handle:
            handle.write(payload)

        cold = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        second = self.answer(cold)
        assert second.value == first.value  # recomputed, not poisoned
        stats = cold.stats()
        assert stats["snapshot_errors"] >= 1
        assert stats["materializations"] == 1

    def test_warm_restart_answers_without_recompute(self, tmp_path):
        from repro.service.registry import TheoryRegistry

        warm = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        first = self.answer(warm)
        assert warm.stats()["snapshot_saves"] == 1

        restarted = TheoryRegistry(capacity=4, snapshot_dir=str(tmp_path))
        second = self.answer(restarted)
        assert second.value == first.value
        stats = restarted.stats()
        assert stats["materializations"] == 0
        assert stats["snapshot_loads"] >= 1


class TestStoreStats:
    def test_reports_bytes_and_symbols(self):
        db = Database([fact("E", "a", "b"), fact("E", "b", "c")])
        stats = db.store_stats()
        assert stats["atoms"] == 2
        assert stats["symbols"] == 3
        assert stats["bytes"] == 4 * 8  # 2 rows x 2 columns x int64


class TestFacadeSemantics:
    def test_variables_rejected(self):
        with pytest.raises(ValueError):
            Database([Atom("R", (Variable("x"),))])

    def test_has_term_tracks_occurrence_only(self):
        db = Database([fact("R", "a")])
        assert db.has_term(A)
        assert not db.has_term(B)
        # Interning without a fact (as forced-fact encoding does) must
        # not flip has_term — the chase relies on this for fresh nulls.
        db._symtab.intern(B)
        assert not db.has_term(B)

    def test_atoms_matching_uses_smallest_probe(self):
        db = Database(
            [fact("R", "a", "b"), fact("R", "a", "c"), fact("R", "b", "c")]
        )
        assert db.atoms_matching(("R", 2, 0), {0: A}) == {
            fact("R", "a", "b"),
            fact("R", "a", "c"),
        }
        assert db.atoms_matching(("R", 2, 0), {0: A, 1: C}) == {
            fact("R", "a", "c")
        }
        assert db.atoms_matching(("R", 2, 0), {0: D}) == set()
