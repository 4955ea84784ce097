"""Compiled join plans for the homomorphism search.

The interpretive search in :mod:`repro.core.homomorphism` re-plans every
pattern on every call: each backtracking step re-scores every remaining
atom, and every candidate fact copies the whole assignment dict.  This
module compiles a pattern **once** into a :class:`JoinPlan`:

* a *static atom ordering* derived by bound-variable propagation — the
  same greedy most-constrained-first heuristic the interpreter applies
  dynamically, seeded by the *adornment* (which variables arrive
  pre-bound via ``partial=``) and by the delta-pinned atom (``forced=``).
  The dynamic heuristic's score at any step depends only on the *set* of
  already-matched atoms, never on the matched values, so the static order
  reproduces the interpreter's order exactly;
* per-atom precomputed templates: constant positions, positions bound by
  earlier atoms, *first-binding* positions and *check* positions (repeat
  occurrences within one atom);
* *slot-numbered assignments*: variables map to integer slots; in the
  generated code each slot is a local variable of its loop level, so
  backtracking (the enclosing ``for`` advancing) undoes bindings for free
  — no dict copies, no explicit trail;
* a *generated executor*: the ordered steps are emitted as a specialized
  Python generator function — one nested ``for`` per pattern atom, with
  smallest-bucket candidate selection, int comparisons on the store's
  interned term IDs and a single ``yield`` of the decoded result dict
  at the innermost level — compiled with :func:`compile` once and
  reused for every execution of the plan.

Constants are executor *arguments*, not part of the generated code.  A
pattern's *constant-lifted shape* replaces each distinct constant by its
index in the pattern's constant tuple; everything the static order, the
templates and the generated source depend on is a function of that shape
(relation keys, variables, which positions share a distinct constant),
the adornment and the forced index.  Patterns that differ only in their
constants — the rules ``pg`` grounds over a fresh database, say — share
one :class:`_Shape` and its executors, and each call passes the
pattern's constant tuple.

Two tables cache this, both LRU-bounded by one capacity: the
*exact-pattern* table maps ``(pattern, adornment-keyset, forced-index)``
to its :class:`JoinPlan` (the hit path: one dict lookup, no lifting), and
the *shape* table maps lifted keys to shared shapes.  Plans are reused
across chase rounds, Datalog iterations, saturation and containment
checks.  Cache traffic is visible in ``--stats`` output as
``plan.cache_hits`` / ``plan.compile_calls`` (exact-pattern misses) /
``plan.codegen`` (generated executors).

Candidate selection probes the relation's hash bucket at every bound
position of an atom and scans the *smallest* bucket, verifying the
other bound positions against the columns — cheaper than materializing
set intersections.  When an atom constrains exactly one position, the
bucket is exact and verification is skipped entirely.  A *fully bound*
atom — every position a constant or a slot bound by an earlier step —
opens no loop at all: it holds iff its encoded row is in the relation's
row map, one probe (``{}`` stands in for an absent relation).

The built-in ``ACDom`` relation compiles to dedicated step kinds: a
*check* when its term is already fixed, an *enumeration* of the cached
sorted active domain (:meth:`repro.core.database.Database.acdom_sorted`)
when it is still free.  A malformed ``ACDom`` atom compiles to a step
that raises when (and only when) the search reaches it, matching the
interpreter's laziness; such an atom also enters the shape key
verbatim, since the error message names it.

One assignment executor is generated per shape, and it is the same
whether or not instrumentation is active.  The Datalog engine fires
every rule through *rule executors* that stage encoded head rows instead
of yielding assignments and skip a match whose negated atoms' rows are
present (:func:`derive_rule_rows`); head and negated-atom constants are
lifted into the same constant tuple.  Patterns longer than
:data:`MAX_COMPILED_ATOMS`, and every pattern while ``REPRO_NAIVE_JOIN=1``
is set, run on the reference interpreter instead.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .atoms import Atom
from .database import Database
from .store import ColumnDelta
from .terms import Term, Variable
from .theory import ACDOM
from ..obs.runtime import current as _obs_current

__all__ = [
    "MAX_COMPILED_ATOMS",
    "JoinPlan",
    "compile_plan",
    "cached_plan",
    "execute_plan",
    "plan_cache_stats",
    "set_plan_cache_capacity",
    "clear_plan_cache",
]

Assignment = dict[Variable, Term]

#: The longest pattern a generated executor can take: it nests one
#: ``for`` per atom, and Python allows at most 20 statically nested
#: blocks.  :func:`execute_plan` and the rule executors run longer
#: patterns on the reference interpreter instead.
MAX_COMPILED_ATOMS = 20

try:
    # os.environ.get raises-and-catches KeyError internally on every miss,
    # which is measurable on the per-rule-executor hot path; CPython keeps
    # the live mapping in ``_data`` (bytes-keyed on POSIX), and
    # monkeypatched/env mutations go through it, so probing it directly is
    # both fast and current.
    _ENV_DATA = os.environ._data
    _NAIVE_KEY = os.environ.encodekey("REPRO_NAIVE_JOIN")
except AttributeError:  # pragma: no cover - non-CPython fallback
    _ENV_DATA = None
    _NAIVE_KEY = None


def _naive_requested() -> bool:
    """Is ``REPRO_NAIVE_JOIN`` set (and not ``0``)?  Then every join runs
    on the reference interpreter — the differential-testing switch."""
    if _ENV_DATA is not None:
        raw = _ENV_DATA.get(_NAIVE_KEY)
        return raw is not None and raw not in (b"", b"0", "", "0")
    return os.environ.get("REPRO_NAIVE_JOIN", "") not in ("", "0")

# step kinds
_ATOM = 0         # match against the database's positional indexes
_FORCED = 1       # match against the caller-provided delta facts
_ACDOM_ENUM = 2   # enumerate the active domain, binding a slot
_ACDOM_CHECK = 3  # check a fixed term / bound slot against the active domain
_ACDOM_BAD = 4    # malformed ACDom atom: raise when (and only when) reached


class _Step:
    """One compiled pattern atom."""

    __slots__ = (
        "kind",
        "atom",
        "relation_key",
        "const_items",   # ((position, constant index), ...) — constants and nulls
        "bound_items",   # ((position, slot), ...) — bound by earlier steps
        "bind_items",    # ((position, slot), ...) — first occurrence: bind
        "check_items",   # ((position, slot), ...) — repeat within this atom
        "acdom_slot",    # slot of the ACDom variable (enum/check), or None
        "acdom_const",   # constant index of a fixed ACDom term (check), or None
    )

    def __init__(self, kind: int, atom: Atom) -> None:
        self.kind = kind
        # Only the relation key and, for a malformed ACDom step, the
        # rendering are read; both are fixed by the shape.
        self.atom = atom
        self.relation_key = atom.relation_key
        self.const_items: tuple[tuple[int, int], ...] = ()
        self.bound_items: tuple[tuple[int, int], ...] = ()
        self.bind_items: tuple[tuple[int, int], ...] = ()
        self.check_items: tuple[tuple[int, int], ...] = ()
        self.acdom_slot: Optional[int] = None
        self.acdom_const: Optional[int] = None


class _Shape:
    """Everything patterns with one constant-lifted shape share: the
    static order, the slot layout, the per-atom templates (constants as
    indices into the caller's constant tuple) and the generated
    executors."""

    __slots__ = (
        "order",
        "steps",
        "n_slots",
        "out_items",
        "adorned_slots",
        "pattern_vars",
        "adornment",
        "has_extras",
        "forced_index",
        "assign_fn",
        #: (lifted heads, lifted negated atoms, all_rows) -> compiled
        #: row-emitting rule executor.
        "row_fns",
        "source",
    )

    def __init__(
        self,
        order: tuple[int, ...],
        steps: tuple[_Step, ...],
        n_slots: int,
        out_items: tuple[tuple[Variable, int], ...],
        adorned_slots: tuple[tuple[Variable, int], ...],
        pattern_vars: frozenset[Variable],
        adornment: frozenset[Variable],
        has_extras: bool,
        forced_index: Optional[int],
    ) -> None:
        self.order = order
        self.steps = steps
        self.n_slots = n_slots
        self.out_items = out_items
        self.adorned_slots = adorned_slots
        self.pattern_vars = pattern_vars
        self.adornment = adornment
        self.has_extras = has_extras
        self.forced_index = forced_index
        self.assign_fn = None
        self.row_fns: dict[tuple, object] = {}
        self.source: Optional[str] = None


class JoinPlan:
    """A compiled pattern: its constants bound to a shared :class:`_Shape`."""

    __slots__ = ("atoms", "consts", "shape", "_rows")

    def __init__(
        self, atoms: tuple[Atom, ...], consts: tuple[Term, ...], shape: _Shape
    ) -> None:
        self.atoms = atoms
        #: The pattern's distinct constants, in first-occurrence order.
        self.consts = consts
        self.shape = shape
        #: (heads, negated, all_rows) -> (row executor, constant tuple
        #: with the heads' and negated atoms' constants).
        self._rows: Optional[dict[tuple, tuple]] = None

    @property
    def order(self) -> tuple[int, ...]:
        return self.shape.order

    @property
    def pattern_vars(self) -> frozenset[Variable]:
        return self.shape.pattern_vars

    @property
    def adornment(self) -> frozenset[Variable]:
        return self.shape.adornment

    @property
    def has_extras(self) -> bool:
        return self.shape.has_extras

    def source(self) -> str:
        """The source of the assignment executor that :func:`execute_plan`
        runs — debugging aid."""
        if self.shape.source is None:
            _generate(self.shape)
        return self.shape.source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = self.shape
        return (
            f"JoinPlan(atoms={len(self.atoms)}, order={shape.order}, "
            f"slots={shape.n_slots}, consts={len(self.consts)}, "
            f"adorned={sorted(v.name for v in shape.adornment)}, "
            f"forced={shape.forced_index})"
        )


def _is_acdom(atom: Atom) -> bool:
    return atom.relation == ACDOM


def static_order(
    atoms: Sequence[Atom],
    adornment: frozenset[Variable],
    forced_index: Optional[int] = None,
) -> tuple[int, ...]:
    """The interpreter's greedy most-constrained-first order, computed
    statically by bound-variable propagation.

    Mirrors ``_select_next``: highest bound-position ratio first, fewer
    total positions breaking ties, unbound ``ACDom`` atoms deferred; the
    first strict improvement wins, scanning remaining atoms in original
    index order.
    """
    bound_vars: set[Variable] = set(adornment)
    order: list[int] = []
    remaining = list(range(len(atoms)))
    if forced_index is not None:
        order.append(forced_index)
        remaining.remove(forced_index)
        bound_vars |= atoms[forced_index].variables()
    while remaining:
        best_index = None
        best_score = None
        for idx in remaining:
            atom = atoms[idx]
            terms = atom.all_terms
            bound = sum(
                1
                for term in terms
                if not isinstance(term, Variable) or term in bound_vars
            )
            total = len(terms)
            acdom_penalty = 1 if (_is_acdom(atom) and bound == 0) else 0
            score = (acdom_penalty, -(bound + 1) / (total + 1), total)
            if best_score is None or score < best_score:
                best_score = score
                best_index = idx
        assert best_index is not None
        order.append(best_index)
        remaining.remove(best_index)
        bound_vars |= atoms[best_index].variables()
    return tuple(order)


def _lift_atoms(
    atoms: Iterable[Atom], const_index: dict[Term, int], consts: list[Term]
) -> tuple:
    """The constant-lifted key of ``atoms``: each non-variable term becomes
    its index in ``consts``, extending ``const_index``/``consts`` with
    constants not seen yet."""
    lifted = []
    for atom in atoms:
        parts: list = []
        for term in atom.all_terms:
            if isinstance(term, Variable):
                parts.append(term)
                continue
            index = const_index.get(term)
            if index is None:
                index = const_index[term] = len(consts)
                consts.append(term)
            parts.append(index)
        lifted.append((atom.relation_key, tuple(parts)))
    return tuple(lifted)


def _lift(
    atoms: tuple[Atom, ...], forced_index: Optional[int]
) -> tuple[tuple, tuple[Term, ...]]:
    """A pattern's constant-lifted key and its constant tuple.

    The step of an unforced malformed ``ACDom`` atom raises an error that
    names the atom, so such atoms also enter the key verbatim."""
    consts: list[Term] = []
    lifted = _lift_atoms(atoms, {}, consts)
    malformed = tuple(
        atom
        for idx, atom in enumerate(atoms)
        if idx != forced_index and _is_malformed_acdom(atom)
    )
    return (lifted, malformed), tuple(consts)


def compile_plan(
    pattern: Sequence[Atom],
    adornment: Iterable[Variable] = (),
    forced_index: Optional[int] = None,
) -> JoinPlan:
    """Compile ``pattern`` into a :class:`JoinPlan` with a fresh shape.

    ``adornment`` names the variables that arrive pre-bound (the keys of a
    ``partial=`` seed); variables not occurring in the pattern are
    ignored.  ``forced_index`` pins that pattern atom to the front of the
    order (delta pinning)."""
    atoms = tuple(pattern)
    _, consts = _lift(atoms, forced_index)
    return JoinPlan(atoms, consts, _compile_shape(atoms, consts, adornment, forced_index))


def _compile_shape(
    atoms: tuple[Atom, ...],
    consts: tuple[Term, ...],
    adornment: Iterable[Variable],
    forced_index: Optional[int],
) -> _Shape:
    """The shared part of :func:`compile_plan`; ``consts`` is the
    pattern's constant tuple from :func:`_lift`."""
    const_index = {term: index for index, term in enumerate(consts)}
    pattern_vars: set[Variable] = set()
    for atom in atoms:
        pattern_vars |= atom.variables()
    adorned = frozenset(v for v in adornment if v in pattern_vars)

    order = static_order(atoms, adorned, forced_index)

    slot_of: dict[Variable, int] = {}
    for variable in sorted(adorned, key=lambda v: v.name):
        slot_of[variable] = len(slot_of)

    steps: list[_Step] = []
    for position_in_order, idx in enumerate(order):
        atom = atoms[idx]
        is_forced = forced_index is not None and position_in_order == 0
        if _is_acdom(atom) and not is_forced:
            # A *forced* ACDom atom unifies literally against the supplied
            # facts (as the interpreter does); only unforced occurrences
            # compile to virtual active-domain steps.
            steps.append(_compile_acdom_step(atom, slot_of, const_index))
            continue
        step = _Step(_FORCED if is_forced else _ATOM, atom)
        const_items: list[tuple[int, int]] = []
        bound_items: list[tuple[int, int]] = []
        bind_items: list[tuple[int, int]] = []
        check_items: list[tuple[int, int]] = []
        bound_here: set[Variable] = set()
        for position, term in enumerate(atom.all_terms):
            if not isinstance(term, Variable):
                const_items.append((position, const_index[term]))
            elif term in bound_here:
                check_items.append((position, slot_of[term]))
            elif term in slot_of:
                bound_items.append((position, slot_of[term]))
            else:
                slot = len(slot_of)
                slot_of[term] = slot
                bind_items.append((position, slot))
                bound_here.add(term)
        step.const_items = tuple(const_items)
        step.bound_items = tuple(bound_items)
        step.bind_items = tuple(bind_items)
        step.check_items = tuple(check_items)
        steps.append(step)

    out_items = tuple(sorted(slot_of.items(), key=lambda item: item[1]))
    adorned_slots = tuple(
        (variable, slot_of[variable])
        for variable in sorted(adorned, key=lambda v: v.name)
    )
    # Bindings in `partial` for variables outside the pattern are passed
    # through into every result; whether any can exist is known from the
    # adornment key set, so the generated code only merges when needed.
    has_extras = any(v not in pattern_vars for v in adornment)
    return _Shape(
        order=order,
        steps=tuple(steps),
        n_slots=len(slot_of),
        out_items=out_items,
        adorned_slots=adorned_slots,
        pattern_vars=frozenset(pattern_vars),
        adornment=adorned,
        has_extras=has_extras,
        forced_index=forced_index,
    )


def _is_malformed_acdom(atom: Atom) -> bool:
    return _is_acdom(atom) and (len(atom.args) != 1 or bool(atom.annotation))


def _compile_acdom_step(
    atom: Atom, slot_of: dict[Variable, int], const_index: Mapping[Term, int]
) -> _Step:
    if _is_malformed_acdom(atom):
        # The interpreter only rejects a malformed ACDom atom when the
        # search actually reaches it; reproduce that laziness so patterns
        # that die earlier behave identically.
        return _Step(_ACDOM_BAD, atom)
    term = atom.args[0]
    if isinstance(term, Variable):
        slot = slot_of.get(term)
        if slot is None:
            step = _Step(_ACDOM_ENUM, atom)
            slot_of[term] = step.acdom_slot = len(slot_of)
            return step
        step = _Step(_ACDOM_CHECK, atom)
        step.acdom_slot = slot
        return step
    step = _Step(_ACDOM_CHECK, atom)
    step.acdom_const = const_index[term]
    return step


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------
# Both tables are true LRUs: dicts preserve insertion order, so recency
# is maintained by re-inserting on every hit and evicting from the
# front.  A long-lived server process (repro.service) leans on this —
# a clear-everything overflow policy would periodically discard every
# warm plan at once and re-pay full compilation for the working set.
_PLAN_CACHE: dict[tuple, JoinPlan] = {}
_SHAPE_CACHE: dict[tuple, _Shape] = {}
_PLAN_CACHE_CAP = 4096
_stats = {"hits": 0, "misses": 0, "evictions": 0, "codegen": 0}


def cached_plan(
    atoms: tuple[Atom, ...],
    adornment_key: frozenset[Variable],
    forced_index: Optional[int] = None,
) -> JoinPlan:
    """The memoized :func:`compile_plan`.

    The cache key uses the caller's ``partial`` key set verbatim (its
    intersection with the pattern variables is computed at compile time),
    so repeated call sites hit without recomputing pattern variables.  A
    miss lifts the pattern's constants and binds them to the shape of
    every pattern that differs from it only in its constants, compiling
    the shape only when none has been seen."""
    key = (atoms, adornment_key, forced_index)
    plan = _PLAN_CACHE.get(key)
    obs = _obs_current()
    if plan is not None:
        _stats["hits"] += 1
        if obs is not None:
            obs.inc("plan.cache_hits")
        del _PLAN_CACHE[key]
        _PLAN_CACHE[key] = plan
        return plan
    _stats["misses"] += 1
    if obs is not None:
        obs.inc("plan.compile_calls")
    lifted, consts = _lift(atoms, forced_index)
    shape_key = (lifted, adornment_key, forced_index)
    shape = _SHAPE_CACHE.pop(shape_key, None)
    if shape is None:
        shape = _compile_shape(atoms, consts, adornment_key, forced_index)
        while len(_SHAPE_CACHE) >= _PLAN_CACHE_CAP:
            _SHAPE_CACHE.pop(next(iter(_SHAPE_CACHE)))
    _SHAPE_CACHE[shape_key] = shape
    plan = JoinPlan(atoms, consts, shape)
    _evict_plans(_PLAN_CACHE_CAP - 1, obs)
    _PLAN_CACHE[key] = plan
    return plan


def _evict_plans(keep: int, obs) -> None:
    """Drop least recently used exact-pattern plans down to ``keep``."""
    while len(_PLAN_CACHE) > keep:
        _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        _stats["evictions"] += 1
        if obs is not None:
            obs.inc("plan.cache_evictions")


def plan_cache_stats() -> dict[str, int]:
    """Lifetime cache counters (process-global).

    ``hits``/``misses``/``evictions`` count exact-pattern lookups and
    ``size`` is that table's; ``codegen`` counts generated executors."""
    return {"size": len(_PLAN_CACHE), "capacity": _PLAN_CACHE_CAP, **_stats}


def set_plan_cache_capacity(capacity: int) -> int:
    """Change the LRU capacity of both plan tables (evicting immediately
    if shrinking); returns the previous capacity."""
    global _PLAN_CACHE_CAP
    if capacity < 1:
        raise ValueError("plan cache capacity must be >= 1")
    previous = _PLAN_CACHE_CAP
    _PLAN_CACHE_CAP = capacity
    _evict_plans(capacity, _obs_current())
    while len(_SHAPE_CACHE) > capacity:
        _SHAPE_CACHE.pop(next(iter(_SHAPE_CACHE)))
    return previous


def clear_plan_cache() -> None:
    _PLAN_CACHE.clear()
    _SHAPE_CACHE.clear()


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------
class _Emitter:
    """Source-line accumulator with indent tracking and an interned
    environment of the shape-level objects the generated code closes
    over (relation keys, output variables, error messages)."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0
        self.env: dict[str, object] = {}
        self._names: dict[int, str] = {}
        self._counter = 0

    def ref(self, obj: object, prefix: str) -> str:
        """A stable global name for ``obj`` in the generated module."""
        name = self._names.get(id(obj))
        if name is None:
            name = f"{prefix}{self._counter}"
            self._counter += 1
            self._names[id(obj)] = name
            self.env[name] = obj
        return name

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _compile_fn(shape: _Shape, e: _Emitter, store: bool = True):
    source = e.source()
    namespace = dict(e.env)
    code = compile(source, f"<joinplan:{len(shape.steps)} atoms>", "exec")
    exec(code, namespace)  # noqa: S102 - source is generated, not user input
    _stats["codegen"] += 1
    obs = _obs_current()
    if obs is not None:
        obs.inc("plan.codegen")
    fn = namespace["_plan_fn"]
    if store:
        shape.assign_fn = fn
        shape.source = source
    return fn


def _generate(
    shape: _Shape,
    heads: Optional[tuple] = None,
    negated: tuple = (),
    all_rows: bool = False,
):
    """Emit, compile and return the executor for ``shape``.

    The generated function is a Python generator: one nested ``for`` per
    ordered pattern atom, slot bindings as loop-local variables, a single
    ``yield`` at the innermost level.  Its last parameter ``K`` is the
    caller's constant tuple; the source only ever names constants by
    their index in it.  Unification runs entirely in ID space: constants
    and adorned bindings resolve to int IDs once in the prelude (an
    absent term resolves to the sentinel ``-1``, which no fact cell ever
    holds, so the search fails at exactly the step where no fact could
    match), candidate selection probes the relations' lazily built hash
    buckets, joins compare ints read straight out of the column vectors,
    and IDs decode back to terms only at the final ``yield``.  Forced
    facts arrive as pre-encoded ID rows (see :func:`_encode_forced`).

    With ``heads`` — lifted head atoms, ``(relation key, terms)`` pairs
    whose terms are variables or constant indices — the generator
    becomes a *rule executor*: instead of decoding assignments, each
    match appends the encoded head rows (skipping rows already in the
    database) into a per-relation staging set — nothing is boxed at all.
    ``negated`` holds the rule's negated atoms, lifted the same way: a
    match whose encoded negated row is in the database stages nothing.
    The negated relations must stay fixed while the rule fires — in a
    stratified program they belong to lower strata — so their row maps
    are read once in the prelude.  Used by the Datalog engine's fixpoint
    loop (see :func:`derive_rule_rows`); requires an unadorned plan.
    ``all_rows`` drops the existing-row skip so *every* derived head row
    is staged, present or not — the incremental engine's retraction
    needs head rows that are already (or still) in the model (see
    :func:`derive_rule_rows_all`).
    """
    e = _Emitter()
    steps = shape.steps
    if heads is not None:
        assert not shape.adorned_slots
        e.emit("def _plan_fn(database, forced_rows, out, K):")
    else:
        e.emit("def _plan_fn(database, forced_rows, base, partial, K):")
    e.indent += 1

    # Generation truncates at a malformed-ACDom step (it raises when and
    # only when the search reaches it); only earlier steps need prelude
    # support.
    active: list[tuple[int, _Step]] = []
    for i, step in enumerate(steps):
        if step.kind == _ACDOM_BAD:
            break
        active.append((i, step))
    kinds = {step.kind for _, step in active}

    e.emit("S = database._symtab._ids")
    if heads is None and shape.out_items:
        e.emit("TT = database._symtab._terms")
    if _ATOM in kinds:
        e.emit("RELS = database._relations")
    # ACDom resolution first: computing the ID set interns active-domain
    # constants that occur in no fact, so later S.get probes find them.
    if _ACDOM_ENUM in kinds:
        e.emit("AC = database._acdom_enum_ids()")
    if _ACDOM_CHECK in kinds:
        e.emit("ACS = database._acdom_id_set()")

    resolved: set[int] = set()

    def resolve(index: int) -> str:
        if index not in resolved:
            resolved.add(index)
            e.emit(f"c{index} = S.get(K[{index}], -1)")
        return f"c{index}"

    for _, step in active:
        for _, index in step.const_items:
            resolve(index)
        if step.kind == _ACDOM_CHECK and step.acdom_const is not None:
            resolve(step.acdom_const)
    for variable, slot in shape.adorned_slots:
        e.emit(f"s{slot} = S.get(partial[{e.ref(variable, 'V')}], -1)")

    # Per-step index/column prelude.  Every name is assigned on both
    # branches so the step bodies stay branch-free.
    step_items: dict[int, list[tuple[int, str]]] = {}
    for i, step in active:
        if step.kind != _ATOM:
            continue
        items = [
            (position, f"c{index}") for position, index in step.const_items
        ] + [(position, f"s{slot}") for position, slot in step.bound_items]
        step_items[i] = items
        key = e.ref(step.relation_key, "K")
        e.emit(f"rl{i} = RELS.get({key})")
        if not step.bind_items and not step.check_items:
            # Fully bound: one probe of the row map, no bucket.
            e.emit(f"RM{i} = {{}} if rl{i} is None else rl{i}.rowmap()")
            continue
        bucket_positions = sorted({position for position, _ in items})
        column_positions = set()
        if len(items) > 1:
            column_positions.update(position for position, _ in items)
        column_positions.update(position for position, _ in step.bind_items)
        column_positions.update(position for position, _ in step.check_items)
        column_positions = sorted(column_positions)
        e.emit(f"if rl{i} is None:")
        e.indent += 1
        assigned = False
        for position in bucket_positions:
            e.emit(f"B{i}_{position} = {{}}")
            assigned = True
        for position in column_positions:
            e.emit(f"C{i}_{position} = ()")
            assigned = True
        if not items:
            e.emit(f"N{i} = 0")
            assigned = True
        if not assigned:
            e.emit("pass")
        e.indent -= 1
        e.emit("else:")
        e.indent += 1
        for position in bucket_positions:
            e.emit(f"B{i}_{position} = rl{i}.bucket({position})")
        for position in column_positions:
            e.emit(f"C{i}_{position} = rl{i}._cols[{position}]")
        if not items:
            e.emit(f"N{i} = rl{i}.n_rows")
        e.indent -= 1

    slot_of = dict(shape.out_items)

    def row_of(terms, constant) -> str:
        """The tuple expression of one encoded row: slots for variables,
        ``constant(index)`` for constants."""
        parts = [
            f"s{slot_of[term]}" if isinstance(term, Variable) else constant(term)
            for term in terms
        ]
        return f"({', '.join(parts)},)" if parts else "()"

    # Negated rows: an absent constant resolves to -1 like a body
    # constant, so the row is in no row map and the match survives.
    negated_rows: list[tuple[str, str]] = []
    for j, (relation_key, terms) in enumerate(negated):
        e.emit(f"NS{j} = database._existing_rows({e.ref(relation_key, 'NK')})")
        negated_rows.append((f"NS{j}", row_of(terms, resolve)))

    head_rows: list[tuple[str, str]] = []
    if heads is not None:
        e.emit("SI = database._symtab.intern")
        interned: set[int] = set()

        def intern(index: int) -> str:
            if index not in interned:
                interned.add(index)
                e.emit(f"h{index} = SI(K[{index}])")
            return f"h{index}"

        for j, (relation_key, terms) in enumerate(heads):
            key = e.ref(relation_key, "HK")
            if not all_rows:
                e.emit(f"RS{j} = database._existing_rows({key})")
            e.emit(f"O{j} = out.get({key})")
            e.emit(f"if O{j} is None:")
            e.indent += 1
            e.emit(f"O{j} = out[{key}] = set()")
            e.indent -= 1
            e.emit(f"A{j} = O{j}.add")
            head_rows.append((f"RS{j}", row_of(terms, intern)))

    loop_indents: list[int] = []
    truncated = False
    for i, step in enumerate(steps):
        fail = "continue" if loop_indents else "return"
        if step.kind == _ACDOM_BAD:
            message = f"ACDom is unary, got {step.atom}"
            e.emit(f"raise ValueError({e.ref(message, 'A')})")
            truncated = True
            break
        if step.kind == _ACDOM_ENUM:
            e.emit(f"for s{step.acdom_slot} in AC:")
            loop_indents.append(e.indent)
            e.indent += 1
            continue
        if step.kind == _ACDOM_CHECK:
            value = (
                f"c{step.acdom_const}"
                if step.acdom_const is not None
                else f"s{step.acdom_slot}"
            )
            e.emit(f"if {value} not in ACS: {fail}")
            continue

        if step.kind == _FORCED:
            # Rows are pre-filtered to this relation key by
            # ``_encode_forced``; no per-row key check needed.
            e.emit(f"for r{i} in forced_rows:")
            loop_indents.append(e.indent)
            e.indent += 1
            for position, index in step.const_items:
                e.emit(f"if r{i}[{position}] != c{index}: continue")
            for position, slot in step.bound_items:
                e.emit(f"if r{i}[{position}] != s{slot}: continue")
            for position, slot in step.bind_items:
                e.emit(f"s{slot} = r{i}[{position}]")
            for position, slot in step.check_items:
                e.emit(f"if r{i}[{position}] != s{slot}: continue")
            continue

        # _ATOM
        items = step_items[i]
        if not step.bind_items and not step.check_items:
            # Every position is a constant or an earlier binding: the
            # atom holds iff its encoded row is in the row map.
            values = [value for _, value in sorted(items)]
            row = f"({', '.join(values)},)" if values else "()"
            e.emit(f"if {row} not in RM{i}: {fail}")
            continue
        if not items:
            e.emit(f"for o{i} in range(N{i}):")
        elif len(items) == 1:
            position, value = items[0]
            e.emit(f"best = B{i}_{position}.get({value})")
            e.emit(f"if best is None: {fail}")
            e.emit(f"for o{i} in best:")
        else:
            position, value = items[0]
            e.emit(f"b = B{i}_{position}.get({value})")
            e.emit(f"if b is None: {fail}")
            e.emit("best = b")
            for position, value in items[1:]:
                e.emit(f"b = B{i}_{position}.get({value})")
                e.emit(f"if b is None: {fail}")
                e.emit("if len(b) < len(best): best = b")
            e.emit(f"for o{i} in best:")
        loop_indents.append(e.indent)
        e.indent += 1
        if len(items) > 1:
            # The winning bucket is only known at run time, so verify
            # every constrained position.
            for position, value in items:
                e.emit(f"if C{i}_{position}[o{i}] != {value}: continue")
        for position, slot in step.bind_items:
            e.emit(f"s{slot} = C{i}_{position}[o{i}]")
        for position, slot in step.check_items:
            e.emit(f"if C{i}_{position}[o{i}] != s{slot}: continue")

    if not truncated:
        fail = "continue" if loop_indents else "return"
        for row_set, row in negated_rows:
            e.emit(f"if {row} in {row_set}: {fail}")
        if heads is not None:
            for j, (row_set, row) in enumerate(head_rows):
                if all_rows:
                    e.emit(f"A{j}({row})")
                else:
                    e.emit(f"hr{j} = {row}")
                    e.emit(f"if hr{j} not in {row_set}: A{j}(hr{j})")
        else:
            entries = ", ".join(
                f"{e.ref(variable, 'V')}: TT[s{slot}]"
                for variable, slot in shape.out_items
            )
            if shape.has_extras:
                e.emit(f"yield {{**base, {entries}}}")
            else:
                e.emit(f"yield {{{entries}}}")
    return _compile_fn(shape, e, store=heads is None)


def _encode_forced(shape: _Shape, database: Database, forced_facts) -> list:
    """Normalize a forced-facts payload into encoded ID rows.

    Accepts :class:`~repro.core.store.ColumnDelta` blocks (the Datalog
    engine's range-scan deltas) and plain atoms (the chase runner), in
    any mix; only entries matching the plan's forced relation key
    survive.  Atom terms are interned *without* occurrence marking —
    forced facts are matched literally and need not be in the database.
    """
    if forced_facts is None:
        return []
    key = shape.steps[0].relation_key
    intern = database._symtab.intern
    rows: list[tuple[int, ...]] = []
    for item in forced_facts:
        if type(item) is ColumnDelta:
            if item.key == key:
                rows.extend(item.rows)
        elif item.relation_key == key:
            rows.append(tuple(intern(term) for term in item.all_terms))
    return rows


def derive_rule_rows(
    body: Sequence[Atom],
    heads: Sequence[Atom],
    database: Database,
    forced,
    out: dict,
    negated: Sequence[Atom] = (),
) -> None:
    """Fire a Datalog rule entirely in ID space.

    Joins ``body`` against ``database`` with the compiled executor and
    stages every head row not already present into ``out`` (a mapping
    from relation key to a set of encoded rows) — no assignment dicts,
    no :class:`Atom` boxing.  A match whose instance of some ``negated``
    atom is in ``database`` stages nothing; the negated relations must
    not change while the rule fires (lower strata are final).
    ``forced`` is ``None`` for the initial round or ``(body_index,
    delta_blocks)`` for semi-naive iteration.  The executor is generated
    once per lifted ``(body, heads, negated)`` shape and bound to this
    rule's constants on the plan, keyed by the head and negated tuples.
    Each call counts one ``homomorphism_calls`` when instrumentation is
    active.
    """
    _derive_rows(body, heads, negated, database, forced, out, all_rows=False)


def derive_rule_rows_all(
    body: Sequence[Atom],
    heads: Sequence[Atom],
    database: Database,
    forced,
    out: dict,
) -> None:
    """Like :func:`derive_rule_rows`, but stage *every* derived head row
    — including rows already present in the database.

    The incremental engine (``repro.incremental``) fires its
    Backward/Forward retraction through this: the consequences of a wave
    of deleted facts, and the instances deriving a checked fact (the
    head pinned on it, an instance atom as the head), are model rows
    that are by definition still present, so the existing-row skip of
    the normal executor would hide exactly the rows being sought.
    Executors are cached per ``(heads, mode)``.
    """
    _derive_rows(body, heads, (), database, forced, out, all_rows=True)


_NO_KEYS: frozenset = frozenset()


def _derive_rows(body, heads, negated, database, forced, out, all_rows: bool) -> None:
    obs = _obs_current()
    if obs is not None:
        obs.inc("homomorphism_calls")
    atoms = tuple(body)
    if len(atoms) > MAX_COMPILED_ATOMS or _naive_requested():
        _interpret_rows(atoms, heads, negated, database, forced, out, all_rows)
        return
    if forced is not None:
        index, candidates = forced
        plan = cached_plan(atoms, _NO_KEYS, index)
        rows = _encode_forced(plan.shape, database, candidates)
        if not rows:
            return
    else:
        plan = cached_plan(atoms, _NO_KEYS, None)
        rows = ()
    bound = plan._rows
    if bound is None:
        bound = plan._rows = {}
    cache_key = (tuple(heads), tuple(negated), all_rows)
    entry = bound.get(cache_key)
    if entry is None:
        entry = bound[cache_key] = _bind_rows(plan, *cache_key)
    fn, consts = entry
    fn(database, rows, out, consts)


def _interpret_rows(
    atoms, heads, negated, database, forced, out, all_rows: bool
) -> None:
    """:func:`_derive_rows` on the reference interpreter: each
    assignment's head rows, encoded and staged the same way, unless a
    negated atom's instance is in the database."""
    intern = database._symtab.intern
    targets = []
    for head in heads:
        key = head.relation_key
        existing = frozenset() if all_rows else database._existing_rows(key)
        targets.append((head, out.setdefault(key, set()), existing))
    for assignment in _interpret(atoms, database, None, forced):
        if any(atom.substitute(assignment) in database for atom in negated):
            continue
        for head, staged, existing in targets:
            row = tuple(intern(term) for term in head.substitute(assignment).all_terms)
            if row not in existing:
                staged.add(row)


def _interpret(atoms, database, partial, forced):
    """Assignments from the reference interpreter, for patterns longer
    than :data:`MAX_COMPILED_ATOMS` and ``REPRO_NAIVE_JOIN=1`` runs."""
    from .homomorphism import naive_homomorphisms  # imports this module

    return naive_homomorphisms(atoms, database, partial=partial, forced=forced)


def _bind_rows(
    plan: JoinPlan,
    heads: tuple[Atom, ...],
    negated: tuple[Atom, ...],
    all_rows: bool,
) -> tuple:
    """The row executor for ``plan`` firing into ``heads`` unless a
    ``negated`` atom holds, with the constant tuple it runs on: the
    body's constants, then the heads', then the negated atoms'."""
    consts = list(plan.consts)
    const_index = {term: index for index, term in enumerate(consts)}
    lifted_heads = _lift_atoms(heads, const_index, consts)
    lifted_negated = _lift_atoms(negated, const_index, consts)
    shape = plan.shape
    key = (lifted_heads, lifted_negated, all_rows)
    fn = shape.row_fns.get(key)
    if fn is None:
        fn = shape.row_fns[key] = _generate(
            shape, heads=lifted_heads, negated=lifted_negated, all_rows=all_rows
        )
    return fn, tuple(consts)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute_plan(
    plan: JoinPlan,
    database: Database,
    partial: Optional[Mapping[Variable, Term]] = None,
    forced_facts: Optional[Iterable[Atom]] = None,
) -> Iterator[Assignment]:
    """Enumerate the homomorphisms of ``plan.atoms`` into ``database``.

    ``partial`` must bind at least the adornment the plan was compiled
    for; bindings on variables outside the pattern are passed through to
    every produced assignment, as in the interpreter.  ``forced_facts``
    supplies the candidate facts for a delta-pinned plan.  Patterns
    longer than :data:`MAX_COMPILED_ATOMS` run on the interpreter.
    """
    shape = plan.shape
    if len(plan.atoms) > MAX_COMPILED_ATOMS:
        forced = None
        if shape.forced_index is not None:
            forced = (shape.forced_index, forced_facts or ())
        return _interpret(plan.atoms, database, partial, forced)
    base: Assignment = {}
    if partial and (shape.has_extras or not shape.steps):
        pattern_vars = shape.pattern_vars
        for variable, value in partial.items():
            if variable not in pattern_vars:
                base[variable] = value
    if shape.forced_index is not None:
        forced_facts = _encode_forced(shape, database, forced_facts)
    fn = shape.assign_fn
    if fn is None:
        fn = _generate(shape)
    return fn(database, forced_facts, base, partial, plan.consts)
