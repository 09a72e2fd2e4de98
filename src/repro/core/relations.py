"""A small relational algebra over event ids, on integer-bitmask kernels.

Memory models in the Cat language (Alglave et al. [2]) are predicates over
relations between events: unions, intersections, sequential composition,
transitive closures, inverses and identity restrictions, finished off with
``acyclic`` / ``irreflexive`` / ``empty`` checks.  This module provides an
immutable :class:`Relation` value type implementing exactly that vocabulary,
used both by the Cat interpreter and directly by Python-coded models.

Representation
--------------

A relation is stored as *per-event integer bitmask adjacency rows*: a
mapping ``{a: row}`` where bit ``b`` of ``row`` is set iff the pair
``(a, b)`` is in the relation.  Rows are arbitrary-precision Python ints,
so every operation over the successor set of an event is a single
word-parallel bitwise operation:

* union / intersection / difference  — row-wise ``|`` / ``&`` / ``& ~``;
* composition ``r ; s``              — for each set bit ``b`` of a row of
  ``r``, OR in the row of ``b`` in ``s``;
* ``r^+``                            — one bitset-Warshall pass: for
  each row key ``k`` in turn, every row with bit ``k`` set ORs in the
  row of ``k`` (``n`` pivots of one word-parallel sweep each, no
  composition);
* acyclicity                         — bitset Kahn elimination: repeatedly
  strip the vertices no live vertex points to;
* restriction / domain / codomain    — row masking and bit collection
  (``[S] ; r`` and ``r ; [S]`` compile to :meth:`Relation.mask_domain`
  / :meth:`Relation.mask_range`, not to a composition).

Identity invariants the kernels rely on (checked by the differential
property tests in ``tests/test_relations.py``):

* event ids are **non-negative integers**; bit position *is* event id, so
  relations over the same execution need no re-alignment before a binary
  kernel op (the solver's :class:`EventUniverse` interns each execution's
  events densely as ``0..n-1``, making every row an ``n``-bit integer);
* stored rows are never zero — the row mapping is canonical, so equality
  and hashing compare mappings directly;
* every kernel op is extensionally equal to the reference
  frozenset-of-pairs semantics it replaced; ``pairs`` materialises that
  view lazily for callers that still want tuples.

:class:`EventUniverse` interns an event-id set and caches the identity
and full (cartesian) relations over it, so ``r^*`` / ``r?`` / ``~r`` do
not rebuild them per call.  :class:`RelationBuilder` is the mutable
accumulator the enumerator uses to build coherence orders incrementally
(with cheap bitmask reachability queries for cycle pruning) before
freezing them.  All operations return new relations; nothing mutates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple)

Pair = Tuple[int, int]

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - older interpreters
    def _popcount(x: int) -> int:
        return bin(x).count("1")


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(ids: Iterable[int]) -> int:
    mask = 0
    for e in ids:
        mask |= 1 << e
    return mask


def _rows_from_pairs(pairs: Iterable[Pair]) -> Dict[int, int]:
    rows: Dict[int, int] = {}
    get = rows.get
    for a, b in pairs:
        if a < 0 or b < 0:
            raise ValueError(
                f"relation pair ({a}, {b}): event ids must be non-negative"
            )
        rows[a] = get(a, 0) | (1 << b)
    return rows


def _compose_rows(left: Mapping[int, int], right: Mapping[int, int]) -> Dict[int, int]:
    """Row-level kernel for ``left ; right``."""
    out: Dict[int, int] = {}
    rget = right.get
    for a, mask in left.items():
        acc = 0
        while mask:
            low = mask & -mask
            acc |= rget(low.bit_length() - 1, 0)
            mask ^= low
        if acc:
            out[a] = acc
    return out


@lru_cache(maxsize=512)
def identity_over(ids: FrozenSet[int]) -> "Relation":
    """``[S]`` over a frozen id set, cached so the per-execution universe
    builds its identity relation once, not once per ``^*``/``?`` call."""
    return Relation._from_rows({e: 1 << e for e in sorted(ids)})


@lru_cache(maxsize=512)
def full_over(ids: FrozenSet[int]) -> "Relation":
    """``S * S`` over a frozen id set, cached (used by ``~`` complement)."""
    mask = _mask_of(ids)
    return Relation._from_rows({e: mask for e in sorted(ids)})


class Relation:
    """An immutable binary relation over event ids (bitmask rows)."""

    __slots__ = ("_rows", "_pairs", "_len", "_hash")

    def __init__(self, pairs: Iterable[Pair] = ()) -> None:
        self._rows: Dict[int, int] = _rows_from_pairs(pairs)
        self._pairs: Optional[FrozenSet[Pair]] = None
        self._len: Optional[int] = None
        self._hash: Optional[int] = None

    @classmethod
    def _from_rows(cls, rows: Dict[int, int]) -> "Relation":
        """Wrap an owned, canonical (no zero rows) row mapping — no copy."""
        out = cls.__new__(cls)
        out._rows = rows
        out._pairs = None
        out._len = None
        out._hash = None
        return out

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "Relation":
        return _EMPTY

    @staticmethod
    def from_rows(rows: Mapping[int, int]) -> "Relation":
        """Build from ``{event: successor-bitmask}`` adjacency rows."""
        clean: Dict[int, int] = {}
        for a, mask in rows.items():
            if a < 0 or mask < 0:
                raise ValueError("event ids and row masks must be non-negative")
            if mask:
                clean[a] = mask
        return Relation._from_rows(clean)

    @staticmethod
    def identity(elements: Iterable[int]) -> "Relation":
        """``[S]`` — the identity relation restricted to ``elements``."""
        ids = elements if isinstance(elements, frozenset) else frozenset(elements)
        return identity_over(ids)

    @staticmethod
    def cartesian(domain: Iterable[int], codomain: Iterable[int]) -> "Relation":
        """``A * B`` — all pairs from ``domain`` to ``codomain``."""
        mask = _mask_of(codomain)
        if not mask:
            return _EMPTY
        return Relation._from_rows({a: mask for a in domain})

    @staticmethod
    def from_order(chain: Iterable[int]) -> "Relation":
        """The strict total order induced by a sequence (transitive)."""
        rows: Dict[int, int] = {}
        after = 0
        for e in reversed(list(chain)):
            if after:
                rows[e] = rows.get(e, 0) | after
            after |= 1 << e
        return Relation._from_rows(rows)

    @staticmethod
    def from_successive(chain: Iterable[int]) -> "Relation":
        """Adjacent pairs of a sequence (the immediate-successor relation)."""
        items = list(chain)
        return Relation(zip(items, items[1:]))

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def pairs(self) -> FrozenSet[Pair]:
        """The set-of-pairs view, materialised lazily from the rows."""
        if self._pairs is None:
            self._pairs = frozenset(
                (a, b) for a, mask in self._rows.items() for b in _iter_bits(mask)
            )
        return self._pairs

    def successor_mask(self, a: int) -> int:
        """The adjacency row of ``a``: bit ``b`` set iff ``(a, b)`` holds."""
        return self._rows.get(a, 0)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        if self._len is None:
            self._len = sum(_popcount(mask) for mask in self._rows.values())
        return self._len

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __contains__(self, pair: Pair) -> bool:
        try:
            a, b = pair
            return b >= 0 and (self._rows.get(a, 0) >> b) & 1 == 1
        except (TypeError, ValueError):
            return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._rows.items()))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{a}->{b}" for a, b in sorted(self.pairs))
        return f"Relation({{{inner}}})"

    # ------------------------------------------------------------------ #
    # the cat operator suite
    # ------------------------------------------------------------------ #
    def union(self, *others: "Relation") -> "Relation":
        # relations are immutable: while at most one operand is
        # non-empty, that operand is the union and nothing is copied
        result = self
        rows: Optional[Dict[int, int]] = None
        for other in others:
            if not other._rows:
                continue
            if rows is None:
                if not result._rows:
                    result = other
                    continue
                rows = dict(result._rows)
            get = rows.get
            for a, mask in other._rows.items():
                rows[a] = get(a, 0) | mask
        return result if rows is None else Relation._from_rows(rows)

    def intersection(self, other: "Relation") -> "Relation":
        small, big = self._rows, other._rows
        if len(big) < len(small):
            small, big = big, small
        get = big.get
        rows: Dict[int, int] = {}
        for a, mask in small.items():
            both = mask & get(a, 0)
            if both:
                rows[a] = both
        return Relation._from_rows(rows)

    def difference(self, other: "Relation") -> "Relation":
        get = other._rows.get
        rows: Dict[int, int] = {}
        for a, mask in self._rows.items():
            rest = mask & ~get(a, 0)
            if rest:
                rows[a] = rest
        return Relation._from_rows(rows)

    def __or__(self, other: "Relation") -> "Relation":
        return self.union(other)

    def __and__(self, other: "Relation") -> "Relation":
        return self.intersection(other)

    def __sub__(self, other: "Relation") -> "Relation":
        return self.difference(other)

    def inverse(self) -> "Relation":
        """``r^-1`` — the transpose of the adjacency rows."""
        rows: Dict[int, int] = {}
        get = rows.get
        for a, mask in self._rows.items():
            bit = 1 << a
            for b in _iter_bits(mask):
                rows[b] = get(b, 0) | bit
        return Relation._from_rows(rows)

    def successors(self) -> Mapping[int, Tuple[int, ...]]:
        """The adjacency index ``{a: (b, ...)}`` as explicit tuples.

        Kept for callers that want to walk successors as ints; the
        bitmask rows themselves are exposed via :meth:`successor_mask`.
        """
        return {a: tuple(_iter_bits(mask)) for a, mask in self._rows.items()}

    def extend(self, pairs: Iterable[Pair]) -> "Relation":
        """A new relation with ``pairs`` added (``self`` if all present)."""
        rows: Optional[Dict[int, int]] = None
        for a, b in pairs:
            bit = 1 << b
            current = (rows or self._rows).get(a, 0)
            if current & bit:
                continue
            if rows is None:
                rows = dict(self._rows)
            rows[a] = current | bit
        if rows is None:
            return self
        return Relation._from_rows(rows)

    def compose(self, other: "Relation") -> "Relation":
        """``self ; other`` — sequential composition."""
        return Relation._from_rows(_compose_rows(self._rows, other._rows))

    def seq(self, *others: "Relation") -> "Relation":
        rel = self
        for other in others:
            rel = rel.compose(other)
        return rel

    def transitive_closure(self) -> "Relation":
        """``r^+`` by one bitset-Warshall pass over the row keys.

        Pivot ``k`` lets every path through ``k`` skip it: each row with
        bit ``k`` set ORs in the row of ``k``.  Only ids that are both a
        row key and some row's target can be interior vertices of a path,
        so they are the only pivots (ORing rows together never adds a
        target).  Pass ``k`` never changes the row of ``k`` itself, so
        updating rows in place during the pass is sound.
        """
        rows = dict(self._rows)
        targets = 0
        for mask in rows.values():
            targets |= mask
        for k in self._rows:
            bit = 1 << k
            if not targets & bit:
                continue
            via = rows[k]
            for a, mask in rows.items():
                if mask & bit:
                    rows[a] = mask | via
        return Relation._from_rows(rows)

    def reflexive_transitive_closure(self, universe: Iterable[int]) -> "Relation":
        """``r^*`` — needs the event universe to add the identity."""
        return self.transitive_closure() | Relation.identity(universe)

    def optional(self, universe: Iterable[int]) -> "Relation":
        """``r?`` — reflexive closure over the universe."""
        return self | Relation.identity(universe)

    # ------------------------------------------------------------------ #
    # restrictions
    # ------------------------------------------------------------------ #
    def restrict_domain(self, elements: Iterable[int]) -> "Relation":
        return self.mask_domain(_mask_of(e for e in elements if e >= 0))

    def restrict_range(self, elements: Iterable[int]) -> "Relation":
        return self.mask_range(_mask_of(e for e in elements if e >= 0))

    def mask_domain(self, mask: int) -> "Relation":
        """``[S] ; r`` for ``S`` given as a bitmask: keep the rows of ``S``."""
        return Relation._from_rows(
            {a: row for a, row in self._rows.items() if (mask >> a) & 1}
        )

    def mask_range(self, mask: int) -> "Relation":
        """``r ; [S]`` for ``S`` given as a bitmask: mask every row."""
        rows: Dict[int, int] = {}
        for a, row in self._rows.items():
            kept = row & mask
            if kept:
                rows[a] = kept
        return Relation._from_rows(rows)

    def restrict(self, elements: Iterable[int]) -> "Relation":
        allowed = set(elements)
        mask = _mask_of(e for e in allowed if e >= 0)
        rows: Dict[int, int] = {}
        for a, row in self._rows.items():
            if a not in allowed:
                continue
            kept = row & mask
            if kept:
                rows[a] = kept
        return Relation._from_rows(rows)

    def filter(self, predicate: Callable[[int, int], bool]) -> "Relation":
        return Relation(p for p in self.pairs if predicate(*p))

    def domain(self) -> FrozenSet[int]:
        return frozenset(self._rows)

    def codomain(self) -> FrozenSet[int]:
        targets = 0
        for mask in self._rows.values():
            targets |= mask
        return frozenset(_iter_bits(targets))

    def field(self) -> FrozenSet[int]:
        return self.domain() | self.codomain()

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #
    def is_irreflexive(self) -> bool:
        return all(not (mask >> a) & 1 for a, mask in self._rows.items())

    def is_acyclic(self) -> bool:
        """True iff the relation (viewed as a digraph) has no cycle.

        Bitset Kahn elimination: repeatedly strip the live vertices that
        no live vertex points to.  Only vertices with outgoing edges can
        lie on a cycle, so the live set starts as the row keys; the
        relation is cyclic iff elimination stalls.  Self-loops count as
        cycles (a self-looping vertex always points to itself).
        """
        rows = self._rows
        alive = _mask_of(rows)
        while alive:
            incoming = 0
            probe = alive
            while probe:
                low = probe & -probe
                incoming |= rows[low.bit_length() - 1]
                probe ^= low
            roots = alive & ~incoming
            if not roots:
                return False
            alive ^= roots
        return True

    def is_empty(self) -> bool:
        return not self._rows

    def is_total_over(self, elements: Iterable[int]) -> bool:
        """True iff for every distinct a,b in elements, a->b or b->a holds."""
        items = list(elements)
        get = self._rows.get
        for i, a in enumerate(items):
            row_a = get(a, 0)
            for b in items[i + 1 :]:
                if not ((row_a >> b) & 1 or (get(b, 0) >> a) & 1):
                    return False
        return True

    def topological_order(self) -> List[int]:
        """A topological order of the field; raises ValueError on cycles."""
        rows = self._rows
        indeg: Dict[int, int] = {n: 0 for n in self.field()}
        for mask in rows.values():
            for b in _iter_bits(mask):
                indeg[b] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        out: List[int] = []
        while ready:
            node = ready.pop()
            out.append(node)
            for child in _iter_bits(rows.get(node, 0)):
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        if len(out) != len(indeg):
            raise ValueError("relation is cyclic; no topological order exists")
        return out


_EMPTY = Relation()


class EventUniverse:
    """A dense interning of one execution's event ids.

    The solver assigns global event ids ``0..n-1`` per path combination;
    this class pins that invariant down as *the* encoding contract of the
    relation kernels: bit position equals event id, so every relation
    over the universe is a tuple-of-``n``-rows of ``n``-bit integers and
    binary kernel ops between them need no re-alignment.  Sparse id sets
    (tests, hand-built relations) still work — unused bit positions are
    simply never set.

    The universe caches its identity and full (cartesian) relations, so
    ``r^*`` / ``r?`` / ``~r`` over one execution reuse them instead of
    rebuilding per call.
    """

    __slots__ = ("eids", "index", "mask", "_ids_frozen")

    def __init__(self, eids: Iterable[int]) -> None:
        ordered = sorted(set(eids))
        if ordered and ordered[0] < 0:
            raise ValueError("event ids must be non-negative")
        #: the interned ids, ascending; position in this tuple is the
        #: dense index of the id
        self.eids: Tuple[int, ...] = tuple(ordered)
        #: id -> dense index (the identity mapping when ids are 0..n-1)
        self.index: Dict[int, int] = {e: i for i, e in enumerate(ordered)}
        #: bitmask with one bit per interned id
        self.mask: int = _mask_of(ordered)
        self._ids_frozen: FrozenSet[int] = frozenset(ordered)

    def __len__(self) -> int:
        return len(self.eids)

    def __contains__(self, eid: int) -> bool:
        return eid in self.index

    def __iter__(self) -> Iterator[int]:
        return iter(self.eids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventUniverse(n={len(self.eids)}, dense={self.is_dense()})"

    def is_dense(self) -> bool:
        """True iff the ids are exactly ``0..n-1`` (the solver case)."""
        return self.mask == (1 << len(self.eids)) - 1

    def ids(self) -> FrozenSet[int]:
        return self._ids_frozen

    def mask_of(self, ids: Iterable[int]) -> int:
        """Encode a subset of the universe as a bitmask."""
        return _mask_of(ids)

    def events_of(self, mask: int) -> FrozenSet[int]:
        """Decode a bitmask back to the event-id set."""
        return frozenset(_iter_bits(mask))

    def identity(self) -> Relation:
        """``[U]`` — cached across the universe's lifetime."""
        return identity_over(self._ids_frozen)

    def full(self) -> Relation:
        """``U * U`` — cached across the universe's lifetime."""
        return full_over(self._ids_frozen)

    def relation(self, pairs: Iterable[Pair] = ()) -> Relation:
        return Relation(pairs)

    def relation_from_rows(self, rows: Mapping[int, int]) -> Relation:
        return Relation.from_rows(rows)


class RelationBuilder:
    """A mutable accumulator for building a :class:`Relation` incrementally.

    The enumerator grows coherence orders write-by-write; this builder
    keeps bitmask adjacency rows as pairs arrive so that reachability
    (and hence would-this-close-a-cycle) queries are word-parallel mask
    walks, and :meth:`freeze` hands the finished rows straight to the
    resulting immutable relation instead of rebuilding them.
    """

    __slots__ = ("_rows", "_count")

    def __init__(self, pairs: Iterable[Pair] = ()) -> None:
        self._rows: Dict[int, int] = {}
        self._count = 0
        for a, b in pairs:
            self.add(a, b)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        return b >= 0 and (self._rows.get(a, 0) >> b) & 1 == 1

    def add(self, a: int, b: int) -> bool:
        """Add one pair; returns False if it was already present."""
        if a < 0 or b < 0:
            raise ValueError(
                f"relation pair ({a}, {b}): event ids must be non-negative"
            )
        bit = 1 << b
        current = self._rows.get(a, 0)
        if current & bit:
            return False
        self._rows[a] = current | bit
        self._count += 1
        return True

    def add_chain(self, chain: Iterable[int], transitive: bool = True) -> None:
        """Add a sequence as a (transitive or successive) order."""
        items = list(chain)
        if transitive:
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    self.add(items[i], items[j])
        else:
            for a, b in zip(items, items[1:]):
                self.add(a, b)

    def has_path(self, src: int, dst: int) -> bool:
        """True iff ``dst`` is reachable from ``src`` along added pairs."""
        if src == dst:
            return True
        rows = self._rows
        target = 1 << dst
        seen = 1 << src
        frontier = rows.get(src, 0)
        while frontier:
            if frontier & target:
                return True
            seen |= frontier
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= rows.get(low.bit_length() - 1, 0)
                frontier ^= low
            frontier = step & ~seen
        return False

    def would_close_cycle(self, a: int, b: int) -> bool:
        """True iff adding ``(a, b)`` would create a cycle (or self-loop)."""
        return a == b or self.has_path(b, a)

    def freeze(self) -> Relation:
        """The immutable relation, donating a copy of the rows."""
        return Relation._from_rows(dict(self._rows))
