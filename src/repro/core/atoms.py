"""Atoms, annotated relation names, and literals.

An atom is ``R(t1, …, tn)`` for a relation name ``R`` and terms ``ti``
(Section 2 of the paper).  The paper additionally uses *annotated* relation
names of the form ``R[~t](~v)`` (Section 2, "Relation name annotations"),
where the annotation ``~t`` is a tuple of terms carried inside the relation
name.  Annotations are the vehicle of the weakly-frontier-guarded →
weakly-guarded translation (Definitions 17/18): terms in non-affected
positions are tucked away into the annotation, processed as opaque payload
by the frontier-guarded machinery, and finally restored.

We therefore model an atom as ``(relation, args, annotation)`` where the
effective relation identity is the pair ``(relation, len(annotation))``;
two atoms with the same name but different annotation arity denote
different relations.

``NegatedAtom`` wraps an atom for use in rule bodies of stratified theories
(Definition 22).  Negation never occurs in heads or databases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .spans import SourceSpan
from .terms import Constant, Null, Term, Variable

__all__ = ["Atom", "NegatedAtom", "Literal", "RelationKey", "substitute_terms"]

#: Identity of a relation: name, argument arity, annotation arity.
RelationKey = tuple[str, int, int]


def substitute_terms(
    terms: tuple[Term, ...], mapping: Mapping[Term, Term]
) -> tuple[Term, ...]:
    """Apply ``mapping`` to each term, leaving unmapped terms untouched."""
    return tuple(mapping.get(term, term) for term in terms)


class Atom:
    """A (possibly annotated) atom ``R[annotation](args)``.

    ``span`` is parser-attached source metadata; it is excluded from
    equality and hashing (see :mod:`repro.core.spans`).

    Atoms are immutable and hash-cached: they populate every database
    index, every saturation closure key and every homomorphism candidate
    set, so the hash is computed once at construction (cheap, because the
    interned terms carry cached hashes themselves) and ``all_terms`` is
    materialized once instead of concatenated per access.
    """

    __slots__ = (
        "relation",
        "args",
        "annotation",
        "span",
        "all_terms",
        "relation_key",
        "_hash",
        "_vars",
        "_skey",
    )

    relation: str
    args: tuple[Term, ...]
    annotation: tuple[Term, ...]
    span: SourceSpan | None
    #: Argument terms followed by annotation terms (precomputed).
    all_terms: tuple[Term, ...]
    #: The effective relation identity (name, arity, annotation arity),
    #: precomputed because it keys every database index and plan lookup.
    relation_key: RelationKey

    def __init__(
        self,
        relation: str,
        args: Iterable[Term],
        annotation: Iterable[Term] = (),
        span: SourceSpan | None = None,
    ) -> None:
        if not isinstance(relation, str) or not relation:
            raise ValueError(f"relation name must be non-empty, got {relation!r}")
        args = tuple(args)
        annotation = tuple(annotation)
        all_terms = args + annotation
        for term in all_terms:
            if not isinstance(term, (Constant, Variable, Null)):
                raise TypeError(f"atom argument is not a term: {term!r}")
        _set = object.__setattr__
        _set(self, "relation", relation)
        _set(self, "args", args)
        _set(self, "annotation", annotation)
        _set(self, "span", span)
        _set(self, "all_terms", all_terms)
        _set(self, "relation_key", (relation, len(args), len(annotation)))
        _set(self, "_hash", hash((relation, args, annotation)))
        _set(self, "_vars", None)
        _set(self, "_skey", None)

    @classmethod
    def _make(
        cls,
        relation: str,
        args: tuple[Term, ...],
        annotation: tuple[Term, ...],
        span: SourceSpan | None,
    ) -> "Atom":
        """Unvalidated fast constructor for terms already known to be valid
        (substitutions and relation renamings of an existing atom)."""
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "relation", relation)
        _set(self, "args", args)
        _set(self, "annotation", annotation)
        _set(self, "span", span)
        _set(self, "all_terms", args + annotation)
        _set(self, "relation_key", (relation, len(args), len(annotation)))
        _set(self, "_hash", hash((relation, args, annotation)))
        _set(self, "_vars", None)
        _set(self, "_skey", None)
        return self

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError("Atom is immutable")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError("Atom is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Atom:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.relation == other.relation
            and self.args == other.args
            and self.annotation == other.annotation
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __reduce__(self):
        return (_rebuild_atom, (self.relation, self.args, self.annotation, self.span))

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.args)

    def terms(self) -> set[Term]:
        """``terms(α)`` — the set of terms occurring in the atom."""
        return set(self.all_terms)

    def variables(self) -> frozenset[Variable]:
        """``vars(α) = terms(α) ∩ Δv`` (computed once, cached)."""
        cached = self._vars
        if cached is None:
            cached = frozenset(
                term for term in self.all_terms if isinstance(term, Variable)
            )
            object.__setattr__(self, "_vars", cached)
        return cached

    def argument_variables(self) -> set[Variable]:
        """Variables occurring in argument positions (not the annotation)."""
        return {term for term in self.args if isinstance(term, Variable)}

    def annotation_variables(self) -> set[Variable]:
        """Variables occurring in the annotation only."""
        return {term for term in self.annotation if isinstance(term, Variable)}

    def constants(self) -> set[Constant]:
        return {term for term in self.all_terms if isinstance(term, Constant)}

    def nulls(self) -> set[Null]:
        return {term for term in self.all_terms if isinstance(term, Null)}

    def is_ground(self) -> bool:
        """Ground atoms carry no variables (constants and nulls allowed)."""
        for term in self.all_terms:
            if isinstance(term, Variable):
                return False
        return True

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[Term, Term]) -> "Atom":
        """Apply a term substitution to arguments and annotation."""
        return Atom._make(
            self.relation,
            substitute_terms(self.args, mapping),
            substitute_terms(self.annotation, mapping),
            self.span,
        )

    def rename_relation(self, relation: str) -> "Atom":
        return Atom(relation, self.args, self.annotation, self.span)

    def without_annotation(self) -> "Atom":
        """Drop the annotation, keeping only argument positions."""
        return Atom._make(self.relation, self.args, (), self.span)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        args = ", ".join(str(term) for term in self.args)
        if self.annotation:
            note = ", ".join(str(term) for term in self.annotation)
            return f"{self.relation}[{note}]({args})"
        return f"{self.relation}({args})"

    def __repr__(self) -> str:
        return f"Atom({self})"

    def __lt__(self, other: "Atom") -> bool:
        return self._sort_key() < other._sort_key()

    def _sort_key(self):
        cached = self._skey
        if cached is None:
            cached = (
                self.relation,
                len(self.args),
                tuple(str(term) for term in self.args),
                tuple(str(term) for term in self.annotation),
            )
            object.__setattr__(self, "_skey", cached)
        return cached


def _rebuild_atom(relation, args, annotation, span):
    """Pickle/copy helper (module-level so it is importable)."""
    return Atom(relation, args, annotation, span)


@dataclass(frozen=True, slots=True)
class NegatedAtom:
    """A negated body literal ``¬R(~t)`` (Definition 22)."""

    atom: Atom

    @property
    def relation(self) -> str:
        return self.atom.relation

    @property
    def relation_key(self) -> RelationKey:
        return self.atom.relation_key

    def variables(self) -> set[Variable]:
        return self.atom.variables()

    def terms(self) -> set[Term]:
        return self.atom.terms()

    def substitute(self, mapping: Mapping[Term, Term]) -> "NegatedAtom":
        return NegatedAtom(self.atom.substitute(mapping))

    def __str__(self) -> str:
        return f"not {self.atom}"

    def __repr__(self) -> str:
        return f"NegatedAtom({self.atom})"


Literal = Union[Atom, NegatedAtom]
