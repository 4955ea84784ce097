"""Databases — indexed sets of ground atoms.

A database (Section 2) is a set of atoms over constants and labeled nulls.
:class:`Database` is the one fact store used by the chase, the Datalog
engine, saturation and the WFG pipeline.  It is columnar and interned
(the primitives live in :mod:`repro.core.store`):

* a per-database :class:`~repro.core.store.SymbolTable` maps every term
  that occurs in a fact to a dense int ID, and an occurrence bitmap backs
  ``has_term`` so the chase can mint fresh nulls without a scan;
* each relation is a :class:`~repro.core.store.ColumnRelation` holding
  one int column vector per position, a lazily built ``row -> ordinal``
  map (membership and fully bound probes) and lazily built hash buckets
  (the compiled join plans and partially bound probes);
* rows are deduplicated and appended at the end — one fact at a time
  by :meth:`Database.add`, one fixpoint iteration's block per relation
  by ``_add_rows`` — so between deletions the facts added since a mark
  are an ordinal range: the Datalog engine's semi-naive deltas, which
  it hands on as the appended blocks themselves; deletion swap-removes
  in time proportional to the deleted rows;
* decoded :class:`~repro.core.atoms.Atom` objects are cached per row
  ordinal, so iteration and probes hand back the same objects.

Per the paper, ``ACDom(c)`` holds exactly for the constants occurring in a
non-ACDom atom of the *input* database.  The input is whatever database an
engine run (the chase, the stratified chase, Datalog evaluation) is given:
the run fixes ``ACDom`` on its working copy with :meth:`ensure_acdom_frozen`,
so constants that rules introduce later never enter it.  Until then a
database tracks its constants, however it was built and grown.  A fixed
extension and the views derived from it (the sorted active domain and its
ID forms) are cached, :meth:`copy` carries them and snapshots store the
extension, so ``ACDom`` enumeration in the join engines is an O(1) tuple
fetch.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from typing import Iterable, Iterator, Mapping, Optional

from .atoms import Atom, RelationKey
from .store import ColumnRelation, SymbolTable
from .terms import Constant, Null, Term
from .theory import ACDOM

__all__ = ["Database"]


def _atom_fingerprint(atom: Atom) -> str:
    """A process-stable text form of one atom for content hashing.

    ``str(atom)`` would almost work, but the fingerprint must also be
    injective across term kinds (the constant ``a`` and a null labeled
    ``a`` are different databases), so kinds are spelled out explicitly.
    """
    parts = [atom.relation]
    for term in atom.args:
        parts.append(term.kind)
        parts.append(term.name)
    parts.append("|")
    for term in atom.annotation:
        parts.append(term.kind)
        parts.append(term.name)
    return "\x1f".join(parts)


class Database:
    """A mutable, indexed set of ground atoms."""

    #: Set by :func:`repro.core.store.load_snapshot` to the provenance
    #: header fields (theory / db_key / strategy / bytes); ``None`` on
    #: built databases.
    _snapshot_meta: Optional[dict] = None

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._symtab = SymbolTable()
        self._relations: dict[RelationKey, ColumnRelation] = {}
        self._n_atoms = 0
        self._cells = 0
        self._acdom: Optional[frozenset[Constant]] = None
        self._reset_acdom_caches()
        self._content_hash: Optional[str] = None
        #: The sorted fingerprint lines behind :meth:`content_hash`, kept
        #: once computed and patched by :meth:`add`/:meth:`remove`, so a
        #: one-fact update rehashes without re-sorting the database.
        self._hash_lines: Optional[list[str]] = None
        #: Buffers (mmap objects) kept alive for snapshot-backed columns.
        self._buffers: list = []
        for atom in atoms:
            self.add(atom)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, atom: Atom) -> bool:
        """Insert an atom; returns True if it was new."""
        if not isinstance(atom, Atom):
            raise TypeError(f"databases contain atoms, got {atom!r}")
        if not atom.is_ground():
            raise ValueError(f"databases contain only ground atoms, got {atom}")
        key = atom.relation_key
        relation = self._relations.get(key)
        if relation is None:
            relation = ColumnRelation(key)
            self._relations[key] = relation
        symtab = self._symtab
        ids = symtab._ids
        terms = symtab._terms
        occurs = symtab._occurs
        row = []
        append = row.append
        for term in atom.all_terms:
            i = ids.get(term)
            if i is None:
                i = len(terms)
                ids[term] = i
                terms.append(term)
                occurs.append(1)
            else:
                occurs[i] = 1
            append(i)
        if not relation.add_row(tuple(row)):
            return False
        self._n_atoms += 1
        self._cells += relation.width
        self._content_hash = None
        lines = self._hash_lines
        if lines is not None:
            insort(lines, _atom_fingerprint(atom))
        return True

    def _existing_rows(self, key: RelationKey) -> "dict[tuple[int, ...], int] | frozenset":
        """The relation's row map (built if needed); empty if absent.
        Backs the compiled rule executors' fire-time membership checks."""
        relation = self._relations.get(key)
        if relation is None:
            return frozenset()
        return relation.rowmap()

    def _add_rows(
        self, key: RelationKey, rows: Iterable[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        """Append already-encoded rows as one block — the ID-space twin
        of :meth:`add` for one fixpoint iteration's derivations of
        ``key`` (see :meth:`ColumnRelation.add_rows`).  Returns the rows
        actually appended.  Marks every ID in them as occurring, exactly
        as ``add`` would: the rule executors intern head constants
        without marking them."""
        relation = self._relations.get(key)
        if relation is None:
            relation = ColumnRelation(key)
            self._relations[key] = relation
        start = relation.n_rows
        block = relation.add_rows(rows)
        if block:
            ids: set[int] = set()
            for col in relation._cols:
                ids.update(col[start:])
            occurs = self._symtab._occurs
            for i in ids:
                occurs[i] = 1
            self._n_atoms += len(block)
            self._cells += len(block) * relation.width
            self._content_hash = None
            self._hash_lines = None
        return block

    def remove(self, atom: Atom) -> bool:
        """Delete an atom; returns True if it was present.

        The symbol table's occurrence bits stay conservative: terms of
        removed atoms still read as occurring (``has_term``).  Freshness
        probes (the chase's null loop) only require "never free when
        taken", so a stale-taken name costs at most a skipped candidate.
        A fixed ACDom extension likewise keeps the *input* database's
        constants — per the paper it is fixed when the run starts, not
        tracked through deletions.
        """
        relation = self._relations.get(atom.relation_key)
        if relation is None or relation.n_rows == 0:
            return False
        ids = self._symtab._ids
        row = []
        for term in atom.all_terms:
            i = ids.get(term)
            if i is None:
                return False
            row.append(i)
        lines = self._hash_lines
        if not self._remove_rows(atom.relation_key, (tuple(row),)):
            return False
        if lines is not None:
            # ``_remove_rows`` drops the lines; this one fact's line is
            # known, so patch and keep them.
            del lines[bisect_left(lines, _atom_fingerprint(atom))]
            self._hash_lines = lines
        return True

    def _remove_rows(
        self, key: RelationKey, rows: Iterable[tuple[int, ...]]
    ) -> int:
        """Delete already-encoded rows — the ID-space twin of
        :meth:`remove`, used by the incremental engine's deletions.
        Returns how many rows were actually present and removed."""
        relation = self._relations.get(key)
        if relation is None:
            return 0
        removed = relation.remove_rows(rows)
        if removed:
            self._n_atoms -= removed
            self._cells -= removed * relation.width
            self._content_hash = None
            self._hash_lines = None
        return removed

    def freeze_acdom(self) -> None:
        """Fix the ACDom extension to the constants currently present."""
        self._acdom = frozenset(self._constants_now())
        self._reset_acdom_caches()

    def ensure_acdom_frozen(self) -> None:
        """Freeze the ACDom extension unless already frozen.

        Each engine run calls this once on its working copy at start-up,
        so that atoms it adds later (and constants introduced by rules)
        never enlarge ``ACDom`` — per the paper the extension is fixed by
        the *input* database.
        """
        if self._acdom is None:
            self.freeze_acdom()

    def _reset_acdom_caches(self) -> None:
        """Drop the views derived from the ACDom extension.  They are
        cached only while the extension is frozen, so freezing is the one
        point that invalidates them."""
        self._acdom_sorted: Optional[tuple[Constant, ...]] = None
        self._acdom_ids: Optional[frozenset[int]] = None
        self._acdom_ids_sorted: Optional[tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, atom: Atom) -> bool:
        relation = self._relations.get(atom.relation_key)
        if relation is None or relation.n_rows == 0:
            return False
        ids = self._symtab._ids
        row = []
        for term in atom.all_terms:
            i = ids.get(term)
            if i is None:
                return False
            row.append(i)
        return tuple(row) in relation.rowmap()

    def __iter__(self) -> Iterator[Atom]:
        for key, relation in self._relations.items():
            if relation.n_rows:
                yield from self.atoms_for(key)

    def __len__(self) -> int:
        return self._n_atoms

    def _decode_row(self, key: RelationKey, row: tuple[int, ...]) -> Atom:
        terms = self._symtab._terms
        arity = key[1]
        args = tuple(terms[i] for i in row[:arity])
        annotation = tuple(terms[i] for i in row[arity:])
        return Atom._make(key[0], args, annotation, None)

    def _decode_ordinal(self, relation: ColumnRelation, ordinal: int) -> Atom:
        """Decode one row through the relation's ordinal-aligned atom
        cache — repeated probes of the same row return the same object."""
        decoded = relation._decoded
        if ordinal < len(decoded):
            atom = decoded[ordinal]
            if atom is not None:
                return atom
        else:
            decoded.extend([None] * (relation.n_rows - len(decoded)))
        atom = self._decode_row(relation.key, relation.row(ordinal))
        decoded[ordinal] = atom
        return atom

    def atoms(self) -> frozenset[Atom]:
        out: frozenset[Atom] = frozenset()
        for key, relation in self._relations.items():
            if relation.n_rows:
                out |= self.atoms_for(key)
        return out

    def atoms_for(self, key: RelationKey) -> frozenset[Atom]:
        """All atoms of the given relation identity."""
        relation = self._relations.get(key)
        if relation is None or relation.n_rows == 0:
            return frozenset()
        cached = relation._atoms_cache
        if cached is not None and cached[0] == relation.n_rows:
            return cached[1]
        decoded = frozenset(
            self._decode_ordinal(relation, ordinal)
            for ordinal in range(relation.n_rows)
        )
        relation._atoms_cache = (relation.n_rows, decoded)
        return decoded

    def atoms_matching(
        self, key: RelationKey, bindings: Mapping[int, Term]
    ) -> set[Atom]:
        """Atoms of ``key`` whose position ``i`` holds ``bindings[i]``.

        An empty ``bindings`` returns all atoms of the relation.  With
        every position bound the answer is one row-map lookup; otherwise
        the smallest hash bucket among the bound positions is scanned
        and verified against the columns.
        """
        relation = self._relations.get(key)
        if relation is None or relation.n_rows == 0:
            return set()
        if not bindings:
            return set(self.atoms_for(key))
        ids = self._symtab._ids
        encoded: list[tuple[int, int]] = []
        for position, term in bindings.items():
            i = ids.get(term)
            if i is None:
                return set()
            encoded.append((position, i))
        if len(encoded) == relation.width:
            encoded.sort()
            ordinal = relation.rowmap().get(tuple(value for _, value in encoded))
            if ordinal is None:
                return set()
            return {self._decode_ordinal(relation, ordinal)}
        smallest = None
        for position, value in encoded:
            ordinals = relation.bucket(position).get(value)
            if not ordinals:
                return set()
            if smallest is None or len(ordinals) < len(smallest):
                smallest = ordinals
        decode = self._decode_ordinal
        if len(encoded) == 1:
            return {decode(relation, ordinal) for ordinal in smallest}
        cols = relation._cols
        return {
            decode(relation, ordinal)
            for ordinal in smallest
            if all(cols[position][ordinal] == value for position, value in encoded)
        }

    def relation_size(self, key: RelationKey) -> int:
        """Number of atoms of the given relation identity (O(1))."""
        relation = self._relations.get(key)
        return relation.n_rows if relation is not None else 0

    def store_stats(self) -> dict[str, int]:
        """O(1) size summary for the ``store.*`` observability gauges."""
        return {
            "atoms": self._n_atoms,
            "symbols": len(self._symtab),
            "bytes": self._cells * 8,
        }

    def content_hash(self) -> str:
        """A SHA-256 over the atom set, memoized until the next mutation.

        The hash is *structural* — order-independent and stable across
        processes and input formatting — so it can key both the
        registry's table of held models and the on-disk snapshot cache:
        the digest of every atom's fingerprint line, sorted, each ended
        by a newline.  Mutation invalidates the memo; lookups between
        mutations are O(1).  The sorted lines are kept, and :meth:`add`
        and :meth:`remove` insert or delete one line, so rehashing after
        a one-fact update skips the sort; the row-space mutators drop
        them.
        """
        cached = self._content_hash
        if cached is not None:
            return cached
        lines = self._hash_lines
        if lines is None:
            lines = sorted(_atom_fingerprint(atom) for atom in self)
            self._hash_lines = lines
        text = "\n".join(lines) + "\n" if lines else ""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self._content_hash = digest
        return digest

    def relations(self) -> set[RelationKey]:
        return {
            key
            for key, relation in self._relations.items()
            if relation.n_rows
        }

    def _constants_now(self) -> set[Constant]:
        seen: set[int] = set()
        for key, relation in self._relations.items():
            if key[0] == ACDOM:
                continue
            for col in relation._cols:
                seen.update(col)
        terms = self._symtab._terms
        return {
            term
            for i in seen
            if isinstance((term := terms[i]), Constant)
        }

    def active_constants(self) -> frozenset[Constant]:
        """The extension of ``ACDom``: as frozen, else the constants now
        present."""
        if self._acdom is not None:
            return self._acdom
        return frozenset(self._constants_now())

    def acdom_sorted(self) -> tuple[Constant, ...]:
        """The active domain as a sorted tuple, cached while frozen."""
        cached = self._acdom_sorted
        if cached is not None:
            return cached
        result = tuple(sorted(self.active_constants()))
        if self._acdom is not None:
            self._acdom_sorted = result
        return result

    # -- ACDom in ID space (for the compiled plan executors) -----------
    def _acdom_id_set(self) -> frozenset[int]:
        """IDs of the active-domain constants.  Membership implies the
        symbol is a Constant, so the executors skip the type check."""
        cached = self._acdom_ids
        if cached is not None:
            return cached
        intern = self._symtab.intern
        ids = frozenset(intern(constant) for constant in self.active_constants())
        if self._acdom is not None:
            self._acdom_ids = ids
        return ids

    def _acdom_enum_ids(self) -> tuple[int, ...]:
        """IDs of the active domain in term sort order (enumeration)."""
        cached = self._acdom_ids_sorted
        if cached is not None:
            return cached
        intern = self._symtab.intern
        ids = tuple(intern(constant) for constant in self.acdom_sorted())
        if self._acdom is not None:
            self._acdom_ids_sorted = ids
        return ids

    def has_term(self, term: Term) -> bool:
        """Does the term occur in any atom?  O(1) membership check."""
        i = self._symtab._ids.get(term)
        return i is not None and self._symtab._occurs[i] == 1

    def terms(self) -> set[Term]:
        return set(self._symtab.occurring())

    def nulls(self) -> set[Null]:
        return {t for t in self._symtab.occurring() if isinstance(t, Null)}

    def constants(self) -> set[Constant]:
        return {t for t in self._symtab.occurring() if isinstance(t, Constant)}

    # ------------------------------------------------------------------
    # comparisons and copies
    # ------------------------------------------------------------------
    def copy(self) -> "Database":
        # Clone the columns structurally instead of re-adding (and thus
        # re-validating and re-interning) every atom.
        clone = object.__new__(Database)
        clone._symtab = self._symtab.copy()
        clone._relations = {
            key: relation.copy() for key, relation in self._relations.items()
        }
        clone._n_atoms = self._n_atoms
        clone._cells = self._cells
        clone._acdom = self._acdom
        clone._acdom_sorted = self._acdom_sorted
        clone._acdom_ids = self._acdom_ids
        clone._acdom_ids_sorted = self._acdom_ids_sorted
        clone._content_hash = self._content_hash
        lines = self._hash_lines
        clone._hash_lines = list(lines) if lines is not None else None
        clone._buffers = list(self._buffers)
        return clone

    def restrict_to_relations(self, names: set[str]) -> "Database":
        """A new database keeping only atoms whose relation name is in ``names``."""
        restricted = Database(atom for atom in self if atom.relation in names)
        restricted._acdom = self._acdom
        return restricted

    def ground_atoms(self) -> frozenset[Atom]:
        """Atoms whose terms are all constants (no nulls)."""
        return frozenset(atom for atom in self if not atom.nulls())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Database):
            return NotImplemented
        if len(self) != len(other):
            return False
        return self.atoms() == other.atoms()

    def __str__(self) -> str:
        return "{" + ", ".join(str(atom) for atom in sorted(self)) + "}"

    def __repr__(self) -> str:
        return f"Database({self._n_atoms} atoms)"
