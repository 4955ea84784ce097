"""Columnar, interned storage primitives and persistent snapshots.

:class:`repro.core.database.Database` keeps its facts in the Soufflé-style
layout this module provides:

* a per-database :class:`SymbolTable` interning every term that occurs
  in a fact to a dense integer ID (the decode direction is a plain list
  index, the encode direction one dict probe on a hash-cached term);
* per-relation :class:`ColumnRelation` objects holding one **column
  vector of int IDs per position**.  Mutable columns are id-interned
  int vectors (every occurrence of a symbol references the symbol's one
  ``int`` object, so a cell costs one pointer); snapshot-loaded columns
  are zero-copy ``memoryview('q')`` windows into an ``mmap`` and are
  copied to mutable vectors only on first append (copy-on-write);
* one **row map** per relation (``row -> ordinal``, built lazily,
  maintained afterwards) answering deduplication, the executors'
  membership checks and fully bound probes in one lookup;
* **hash buckets** per position (``dict[id] -> row ordinals``, built
  lazily, maintained afterwards) feeding the compiled join plans' O(1)
  probes and the partially bound ``Database.atoms_matching`` path;
* semi-naive **deltas as appended blocks**: rows are deduplicated and
  appended at the end, so the atoms added in one fixpoint iteration are
  exactly the row ordinals ``[mark, n_rows)``.  :meth:`ColumnRelation.add_rows`
  appends one iteration's rows of a relation as one block and returns
  it, and the Datalog engine hands those blocks to the next iteration
  as :class:`ColumnDelta` row blocks instead of re-boxed atom sets; a
  range is read back out of the columns (``rows_between``) only for a
  seed or a resumed delta.  Single facts append through
  :meth:`ColumnRelation.add_row`;
* **swap-remove deletion** in time proportional to the deleted rows:
  each dead row's ordinal is refilled with the relation's last row, and
  the row map, every built bucket and the decoded-atom cache are patched
  in the same step.  Deletion reorders rows, so an ordinal range is a
  delta only between deletions — which is all semi-naive iteration and
  the chase's marks ever ask of it.

Snapshots
---------

A complete materialization (a chase instance or Datalog fixpoint) is a
bounded artifact for the paper's terminating fragments, so it is worth
persisting: :func:`save_snapshot` writes the symbol table and the raw
column payload to a versioned, checksummed binary file, and
:func:`load_snapshot` maps it back with ``mmap`` — columns come up as
``memoryview('q')`` windows without copying the payload.  The format::

    magic     8s   b"RPROSNP1"
    version   <I   SNAPSHOT_VERSION
    hdr_len   <I   length of the JSON header
    header    ...  {"byteorder", "symbols", "relations": [[name, arity,
                    annotation-arity, rows], ...], "acdom": [ids]|null,
                    "occurring": int, "atoms": int, "theory": sha|null,
                    "db_key": sha|null, "strategy": str|null}
    symbols   ...  per symbol: kind byte (bit 0: null, bit 1: occurs)
                    + <I name length + UTF-8 name
    padding   ...  zero bytes to an 8-byte boundary
    columns   ...  per relation, per position: rows × int64 (native LE)
    checksum  32s  SHA-256 over everything above

Every load verifies magic, version, byte order, and the checksum before
trusting a single offset; any mismatch (truncation, corruption, format
drift) raises the typed :class:`SnapshotError` so callers can fall back
to recomputing the model — a stale or torn snapshot must never poison
an answer.  The header carries the theory hash, the *input* database's
content hash and the answering strategy, which together form the cache
key contract: the registry only accepts a snapshot whose header matches
all three expectations.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .atoms import Atom, RelationKey
from .terms import Constant, Null, Term
from ..obs.runtime import current as _obs_current

if TYPE_CHECKING:
    from .database import Database

__all__ = [
    "SymbolTable",
    "ColumnRelation",
    "ColumnDelta",
    "SnapshotError",
    "save_snapshot",
    "load_snapshot",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
]

SNAPSHOT_MAGIC = b"RPROSNP1"
SNAPSHOT_VERSION = 1

#: Kind bits of the per-symbol byte in the snapshot symbol section.
_KIND_NULL = 0b01
_KIND_OCCURS = 0b10


class SnapshotError(Exception):
    """A snapshot file failed validation (bad magic/version/byte order,
    truncated payload, checksum mismatch, or a header that does not match
    the expected theory/database/strategy).  Callers recover by
    recomputing the materialization; the bad file is never trusted."""


class SymbolTable:
    """Dense term ↔ int ID interning for one database.

    IDs are assigned in first-intern order and never reused.  The
    ``_occurs`` bitmap distinguishes symbols that appear in an actual
    fact from symbols interned merely to answer a probe (a query
    constant, an ACDom member, a forced-fact encoding) — ``has_term``
    must reflect fact occurrence only, or the chase's fresh-null loop
    would skip names that look taken but are not.
    """

    __slots__ = ("_ids", "_terms", "_occurs")

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._occurs = bytearray()

    def __len__(self) -> int:
        return len(self._terms)

    def intern(self, term: Term) -> int:
        """The ID for ``term``, assigning a fresh one on first sight.
        Does **not** mark the symbol as occurring in a fact."""
        i = self._ids.get(term)
        if i is None:
            i = len(self._terms)
            self._ids[term] = i
            self._terms.append(term)
            self._occurs.append(0)
        return i

    def decode(self, i: int) -> Term:
        return self._terms[i]

    def occurring(self) -> Iterator[Term]:
        """Terms that occur in at least one stored fact."""
        occurs = self._occurs
        for i, term in enumerate(self._terms):
            if occurs[i]:
                yield term

    def copy(self) -> "SymbolTable":
        clone = object.__new__(SymbolTable)
        clone._ids = dict(self._ids)
        clone._terms = list(self._terms)
        clone._occurs = bytearray(self._occurs)
        return clone


class ColumnDelta:
    """A block of encoded delta rows for one relation — the columnar
    currency of semi-naive delta pinning.  ``rows`` are the id-tuples
    appended in one fixpoint iteration (the block
    :meth:`ColumnRelation.add_rows` returned, or an ordinal range scan
    of the relation), handed to ``forced=`` in place of an atom list."""

    __slots__ = ("key", "rows")

    def __init__(self, key: RelationKey, rows: list[tuple[int, ...]]) -> None:
        self.key = key
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def decode(self, database: "Database") -> list[Atom]:
        """Atoms for the rows — the naive interpreter's fallback shape."""
        terms = database._symtab._terms
        name, arity, _ = self.key
        out = []
        for row in self.rows:
            args = tuple(terms[i] for i in row[:arity])
            annotation = tuple(terms[i] for i in row[arity:])
            out.append(Atom._make(name, args, annotation, None))
        return out


class ColumnRelation:
    """One relation's rows as per-position int-ID column vectors."""

    __slots__ = (
        "key",
        "width",
        "n_rows",
        "_cols",
        "_frozen",
        "_rowmap",
        "_buckets",
        "_atoms_cache",
        "_decoded",
    )

    def __init__(self, key: RelationKey) -> None:
        self.key = key
        self.width = key[1] + key[2]
        self.n_rows = 0
        self._cols: list = [[] for _ in range(self.width)]
        #: True while columns are immutable memoryviews over a snapshot.
        self._frozen = False
        #: Row tuple -> ordinal; ``None`` until needed (snapshot-loaded
        #: relations that are only scanned never pay for it).
        self._rowmap: Optional[dict[tuple[int, ...], int]] = None
        #: Hash tier: per position, ``id -> [row ordinals]`` (lazy).
        self._buckets: list = [None] * self.width
        #: ``(n_rows, frozenset[Atom])`` decode cache for ``atoms_for``.
        self._atoms_cache: Optional[tuple[int, frozenset[Atom]]] = None
        #: Ordinal-aligned boxed-atom cache (possibly shorter than the
        #: relation, ``None`` where not yet decoded): every probe that
        #: hits the same row returns the same object (re-boxing per probe
        #: would dominate the probe itself).  Deletion moves entries with
        #: their rows.
        self._decoded: list = []

    # -- mutation ------------------------------------------------------
    def _thaw(self) -> None:
        """Copy-on-write: materialize mutable columns from snapshot views."""
        self._cols = [list(col) for col in self._cols]
        self._frozen = False

    def rowmap(self) -> dict[tuple[int, ...], int]:
        """The ``row -> ordinal`` map (built on first use, maintained by
        :meth:`add_row`, :meth:`add_rows` and :meth:`remove_rows`
        afterwards)."""
        rowmap = self._rowmap
        if rowmap is None:
            rowmap = self._rowmap = dict(zip(self.iter_rows(), range(self.n_rows)))
        return rowmap

    def add_row(self, row: tuple[int, ...]) -> bool:
        """Append a row unless present; returns True if it was new."""
        rowmap = self._rowmap
        if rowmap is None:
            rowmap = self.rowmap()
        if row in rowmap:
            return False
        if self._frozen:
            self._thaw()
        ordinal = self.n_rows
        rowmap[row] = ordinal
        cols = self._cols
        buckets = self._buckets
        for position, value in enumerate(row):
            cols[position].append(value)
            bucket = buckets[position]
            if bucket is not None:
                existing = bucket.get(value)
                if existing is None:
                    bucket[value] = [ordinal]
                else:
                    existing.append(ordinal)
        self.n_rows = ordinal + 1
        self._atoms_cache = None
        return True

    def add_rows(self, rows: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Append the rows not yet present as one block, in the order
        ``rows`` gives them; returns that block, which is then
        ``rows_between(mark, n_rows)`` for the ``n_rows`` before the call.

        One fixpoint iteration's derivations of a relation land in one
        pass per structure: each row is filed in the row map by one
        probe, each column grows by one ``extend`` and each built bucket
        in one loop over the block.  A row repeated within ``rows``
        lands once, at its first occurrence."""
        rowmap = self._rowmap
        if rowmap is None:
            rowmap = self.rowmap()
        # The map holds one entry per row, so its size is the next
        # ordinal: ``setdefault`` files an absent row there and hands a
        # present (or repeated) row's own ordinal back.
        setdefault = rowmap.setdefault
        block = [row for row in rows if setdefault(row, (n := len(rowmap))) == n]
        if not block:
            return block
        if self._frozen:
            self._thaw()
        start = self.n_rows
        for position, col in enumerate(self._cols):
            col.extend(map(itemgetter(position), block))
            bucket = self._buckets[position]
            if bucket is not None:
                for ordinal, value in enumerate(col[start:], start):
                    existing = bucket.get(value)
                    if existing is None:
                        bucket[value] = [ordinal]
                    else:
                        existing.append(ordinal)
        self.n_rows = start + len(block)
        self._atoms_cache = None
        return block

    def remove_rows(self, dead_rows: Iterable[tuple[int, ...]]) -> int:
        """Delete the given rows by swap-remove; returns how many were
        actually present.

        Each dead ordinal is refilled with the relation's last row, and
        the row map, every hash bucket already built and the decoded-atom
        cache are patched in the same step, so the cost is proportional
        to the dead rows (times their buckets' lengths), with no pass
        over the survivors and no index rebuilt (a snapshot-loaded
        relation copies its mapped columns first, once, as on its first
        append).  Dead ordinals are
        processed from the highest down: the last row is then always a
        survivor (or the dead row itself, which is simply popped), so the
        ordinals of dead rows not yet processed never move.
        """
        rowmap = self.rowmap()
        dead = {rowmap[row]: row for row in dead_rows if row in rowmap}
        if not dead:
            return 0
        if self._frozen:
            self._thaw()
        cols = self._cols
        built = [
            (position, bucket)
            for position, bucket in enumerate(self._buckets)
            if bucket is not None
        ]
        decoded = self._decoded
        last = self.n_rows - 1
        for ordinal in sorted(dead, reverse=True):
            row = dead[ordinal]
            del rowmap[row]
            for position, bucket in built:
                ordinals = bucket[row[position]]
                ordinals.remove(ordinal)
                if not ordinals:
                    del bucket[row[position]]
            if ordinal != last:
                moved = self.row(last)
                rowmap[moved] = ordinal
                for col, value in zip(cols, moved):
                    col[ordinal] = value
                for position, bucket in built:
                    ordinals = bucket[moved[position]]
                    ordinals[ordinals.index(last)] = ordinal
            for col in cols:
                col.pop()
            n_decoded = len(decoded)
            if ordinal < n_decoded:
                if last < n_decoded:
                    decoded[ordinal] = decoded[last]
                    decoded.pop()
                else:
                    decoded[ordinal] = None
            last -= 1
        self.n_rows = last + 1
        self._atoms_cache = None
        return len(dead)

    # -- row access ----------------------------------------------------
    def row(self, ordinal: int) -> tuple[int, ...]:
        return tuple(col[ordinal] for col in self._cols)

    def iter_rows(self) -> Iterator[tuple[int, ...]]:
        if self.width == 0:
            for _ in range(self.n_rows):
                yield ()
            return
        yield from zip(*self._cols)

    def rows_between(self, start: int, stop: int) -> list[tuple[int, ...]]:
        """The rows appended in the ordinal range ``[start, stop)`` — the
        range scan behind a seeded or resumed semi-naive delta."""
        if self.width == 0:
            return [()] * (stop - start)
        cols = self._cols
        if self.width == 1:
            col0 = cols[0]
            return [(col0[o],) for o in range(start, stop)]
        return list(zip(*(col[start:stop] for col in cols)))

    # -- hash index tier (compiled-plan probes) ------------------------
    def bucket(self, position: int) -> dict:
        """The hash bucket index for ``position`` (built on first use,
        maintained by :meth:`add_row`, :meth:`add_rows` and
        :meth:`remove_rows` afterwards)."""
        bucket = self._buckets[position]
        if bucket is None:
            bucket = {}
            for ordinal, value in enumerate(self._cols[position]):
                existing = bucket.get(value)
                if existing is None:
                    bucket[value] = [ordinal]
                else:
                    existing.append(ordinal)
            self._buckets[position] = bucket
        return bucket

    def copy(self) -> "ColumnRelation":
        clone = object.__new__(ColumnRelation)
        clone.key = self.key
        clone.width = self.width
        clone.n_rows = self.n_rows
        if self._frozen:
            # Immutable snapshot views are shared; the copy thaws on its
            # own first append without disturbing this relation.
            clone._cols = list(self._cols)
            clone._frozen = True
        else:
            clone._cols = [list(col) for col in self._cols]
            clone._frozen = False
        # Derived structures rebuild lazily on the copy.
        clone._rowmap = None
        clone._buckets = [None] * self.width
        clone._atoms_cache = self._atoms_cache
        clone._decoded = list(self._decoded)  # atoms are immutable
        return clone


# ----------------------------------------------------------------------
# snapshot persistence
# ----------------------------------------------------------------------
def _term_kind_byte(term: Term) -> int:
    if isinstance(term, Constant):
        return 0
    if isinstance(term, Null):
        return _KIND_NULL
    raise SnapshotError(
        f"only constants and nulls occur in databases, got {term!r}"
    )


def save_snapshot(
    database: Database,
    path: str,
    *,
    theory: Optional[str] = None,
    db_key: Optional[str] = None,
    strategy: Optional[str] = None,
) -> int:
    """Serialize a database to ``path``; returns bytes written.

    The write lands in a temp file first and is published with
    ``os.replace`` so a concurrent loader (or a crash mid-write) never
    observes a torn snapshot under the final name.
    """
    import array as _array

    symtab = database._symtab
    relations = [
        (key, relation)
        for key, relation in sorted(database._relations.items())
        if relation.n_rows
    ]
    acdom_ids = sorted(database._acdom_id_set())
    header = {
        "byteorder": sys.byteorder,
        "symbols": len(symtab),
        "relations": [
            [key[0], key[1], key[2], relation.n_rows]
            for key, relation in relations
        ],
        "acdom": acdom_ids,
        "atoms": database._n_atoms,
        "theory": theory,
        "db_key": db_key,
        "strategy": strategy,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    hasher = hashlib.sha256()
    parts: list[bytes] = [
        SNAPSHOT_MAGIC,
        struct.pack("<II", SNAPSHOT_VERSION, len(header_bytes)),
        header_bytes,
    ]
    symbol_chunks: list[bytes] = []
    occurs = symtab._occurs
    for i, term in enumerate(symtab._terms):
        name = term.name.encode("utf-8")
        kind = _term_kind_byte(term) | (_KIND_OCCURS if occurs[i] else 0)
        symbol_chunks.append(struct.pack("<BI", kind, len(name)) + name)
    parts.append(b"".join(symbol_chunks))
    prefix_len = sum(len(part) for part in parts)
    parts.append(b"\x00" * (-prefix_len % 8))
    for _, relation in relations:
        for col in relation._cols:
            if isinstance(col, memoryview):
                parts.append(col.tobytes())
            else:
                parts.append(_array.array("q", col).tobytes())
    for part in parts:
        hasher.update(part)
    digest = hasher.digest()

    tmp_path = f"{path}.tmp.{os.getpid()}"
    total = 0
    with open(tmp_path, "wb") as handle:
        for part in parts:
            handle.write(part)
            total += len(part)
        handle.write(digest)
        total += len(digest)
    os.replace(tmp_path, path)
    obs = _obs_current()
    if obs is not None:
        obs.inc("store.snapshot_saves")
        obs.inc("store.snapshot_bytes", total)
    return total


def load_snapshot(
    path: str,
    *,
    expect_theory: Optional[str] = None,
    expect_db_key: Optional[str] = None,
    expect_strategy: Optional[str] = None,
) -> Database:
    """Load a snapshot written by :func:`save_snapshot` via ``mmap``.

    Columns come up as zero-copy ``memoryview('q')`` windows into the
    mapped file (copy-on-write on first append); the symbol table is the
    only part materialized eagerly.  Raises :class:`SnapshotError` on
    any validation failure and ``FileNotFoundError`` when the file does
    not exist (an expected cache miss, not an error).
    """
    handle = open(path, "rb")
    try:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file
            raise _load_error(f"empty snapshot file: {path}") from exc
    finally:
        handle.close()
    view = memoryview(mapped)
    try:
        database = _parse_snapshot(
            view,
            mapped,
            path,
            expect_theory=expect_theory,
            expect_db_key=expect_db_key,
            expect_strategy=expect_strategy,
        )
    except SnapshotError:
        view.release()
        mapped.close()
        raise
    except Exception as exc:
        view.release()
        mapped.close()
        raise _load_error(f"malformed snapshot {path}: {exc}") from exc
    obs = _obs_current()
    if obs is not None:
        obs.inc("store.snapshot_loads")
        obs.inc("store.snapshot_bytes", len(mapped))
    return database


def _load_error(message: str) -> SnapshotError:
    obs = _obs_current()
    if obs is not None:
        obs.inc("store.snapshot_load_errors")
    return SnapshotError(message)


def _parse_snapshot(
    view: memoryview,
    mapped: mmap.mmap,
    path: str,
    *,
    expect_theory: Optional[str],
    expect_db_key: Optional[str],
    expect_strategy: Optional[str],
) -> Database:
    if len(view) < len(SNAPSHOT_MAGIC) + 8 + 32:
        raise _load_error(f"truncated snapshot (too short): {path}")
    if bytes(view[: len(SNAPSHOT_MAGIC)]) != SNAPSHOT_MAGIC:
        raise _load_error(f"not a repro snapshot (bad magic): {path}")
    version, header_len = struct.unpack_from("<II", view, len(SNAPSHOT_MAGIC))
    if version != SNAPSHOT_VERSION:
        raise _load_error(
            f"unsupported snapshot version {version} "
            f"(this build reads {SNAPSHOT_VERSION}): {path}"
        )
    digest = hashlib.sha256(view[:-32]).digest()
    if digest != bytes(view[-32:]):
        raise _load_error(f"snapshot checksum mismatch: {path}")

    offset = len(SNAPSHOT_MAGIC) + 8
    header = json.loads(bytes(view[offset : offset + header_len]))
    offset += header_len
    if header.get("byteorder") != sys.byteorder:
        raise _load_error(
            f"snapshot byte order {header.get('byteorder')!r} does not "
            f"match this host ({sys.byteorder}): {path}"
        )
    for expected, actual, label in (
        (expect_theory, header.get("theory"), "theory"),
        (expect_db_key, header.get("db_key"), "db_key"),
        (expect_strategy, header.get("strategy"), "strategy"),
    ):
        if expected is not None and actual != expected:
            raise _load_error(
                f"snapshot {label} mismatch (cache-key contract): "
                f"expected {expected!r}, file carries {actual!r}: {path}"
            )

    symtab = SymbolTable()
    ids = symtab._ids
    terms = symtab._terms
    occurs = symtab._occurs
    n_symbols = header["symbols"]
    for _ in range(n_symbols):
        kind, name_len = struct.unpack_from("<BI", view, offset)
        offset += 5
        name = bytes(view[offset : offset + name_len]).decode("utf-8")
        offset += name_len
        term = Null(name) if kind & _KIND_NULL else Constant(name)
        ids[term] = len(terms)
        terms.append(term)
        occurs.append(1 if kind & _KIND_OCCURS else 0)
    offset += -offset % 8  # padding to the 8-aligned column payload

    # Imported here: ``repro.core.database`` builds on this module.
    from .database import Database

    database = Database()
    database._symtab = symtab
    database._n_atoms = header["atoms"]
    database._buffers.append(mapped)
    for name, arity, annotation_arity, n_rows in header["relations"]:
        key = (name, arity, annotation_arity)
        relation = ColumnRelation(key)
        relation.n_rows = n_rows
        cols = []
        for _ in range(relation.width):
            end = offset + n_rows * 8
            if end > len(view) - 32:
                raise _load_error(f"truncated snapshot column payload: {path}")
            cols.append(view[offset:end].cast("q"))
            offset += n_rows * 8
        relation._cols = cols
        relation._frozen = True
        database._relations[key] = relation
        database._cells += n_rows * relation.width
    acdom_ids = header.get("acdom")
    if acdom_ids is not None:
        acdom_terms = frozenset(terms[i] for i in acdom_ids)
        if not all(isinstance(term, Constant) for term in acdom_terms):
            raise _load_error(f"snapshot ACDom contains a non-constant: {path}")
        database._acdom = acdom_terms
    database._snapshot_meta = {
        "theory": header.get("theory"),
        "db_key": header.get("db_key"),
        "strategy": header.get("strategy"),
        "bytes": len(mapped),
    }
    return database
