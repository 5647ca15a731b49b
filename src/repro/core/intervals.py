"""Half-open intervals and interval unions over dyadic endpoints.

Section 4 of the paper (Definition 4.1) builds its commodity out of the
*interval set* ``I[0,1) = {[a,b) ⊆ [0,1)}`` and the *interval-union set*
``U[0,1)`` of finite unions of disjoint intervals.  This module implements
both, exactly:

* :class:`Interval` — a half-open interval ``[a, b)`` with :class:`Dyadic`
  endpoints.  ``[a, a)`` is the unique empty interval (the paper's
  convention), a subset of every interval.
* :class:`IntervalUnion` — a canonical (sorted, disjoint, non-adjacent)
  finite union of non-empty intervals with exact set algebra: union,
  intersection, difference, inclusion, and Lebesgue measure.

Two partition schemes from the paper are implemented here:

* :func:`split_interval` — the Δ-scheme of Theorem 4.3: to split ``[a, b)``
  into ``k`` parts, let ``N`` be the smallest power of two with ``N >= k`` and
  ``Δ = (b - a)/N``; produce ``k - 1`` intervals of width ``Δ`` and one final
  interval of width ``(b - a) - (k - 1)Δ``.  Because ``N`` is a power of two,
  each new endpoint costs only ``O(log k)`` additional bits relative to the
  endpoints of ``[a, b)`` — this is what caps endpoint representations at
  ``O(|V| log d_out)`` bits overall.
* :func:`canonical_partition` — the canonical partition of Section 4: given an
  interval-union ``α' = I₁ ∪ … ∪ I_r`` and ``d`` parts, the first ``d - 1``
  parts are a Δ-split of ``I₁`` and the ``d``-th part is ``I₂ ∪ … ∪ I_r``.

All operations preserve exactness; measures are :class:`Dyadic` and the
terminal's ``α ∪ β == [0, 1)`` test is an exact structural equality.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from .dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic
from .encoding import BitReader, BitWriter, decode_dyadic, dyadic_cost, encode_dyadic, encode_unsigned, decode_unsigned, unsigned_cost

__all__ = [
    "Interval",
    "IntervalUnion",
    "EMPTY_UNION",
    "UNIT_INTERVAL",
    "UNIT_UNION",
    "split_interval",
    "canonical_partition",
    "canonical_partition_literal",
    "encode_interval",
    "decode_interval",
    "encode_union",
    "decode_union",
    "interval_cost",
    "union_cost",
]


class Interval:
    """A half-open interval ``[lo, hi)`` with dyadic endpoints.

    ``lo <= hi`` always holds; ``lo == hi`` is the empty interval.  Instances
    are immutable and hashable.
    """

    __slots__ = ("lo", "hi")

    lo: Dyadic
    hi: Dyadic

    def __init__(self, lo: Dyadic, hi: Dyadic) -> None:
        if not isinstance(lo, Dyadic) or not isinstance(hi, Dyadic):
            raise TypeError("Interval endpoints must be Dyadic")
        if lo > hi:
            raise ValueError(f"Interval requires lo <= hi, got [{lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def unit(cls) -> "Interval":
        """The unit interval ``[0, 1)``."""
        return cls(DYADIC_ZERO, DYADIC_ONE)

    def is_empty(self) -> bool:
        """True iff this is the empty interval ``[a, a)``."""
        return self.lo == self.hi

    def measure(self) -> Dyadic:
        """The width ``hi - lo``."""
        return self.hi - self.lo

    def contains(self, point: Dyadic) -> bool:
        """True iff ``lo <= point < hi``."""
        return self.lo <= point < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True iff ``other ⊆ self`` (the empty interval is in everything)."""
        if other.is_empty():
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        """True iff the two intervals share at least one point."""
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def intersection(self, other: "Interval") -> "Interval":
        """The intersection interval (possibly empty)."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return Interval(lo, lo)
        return Interval(lo, hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        if self.is_empty():
            return hash("empty-interval")
        return hash((self.lo, self.hi))

    def __copy__(self) -> "Interval":
        # Immutable: copying is identity.
        return self

    def __deepcopy__(self, memo) -> "Interval":
        return self

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"

    def endpoint_bit_cost(self) -> int:
        """Total encoded size of the two endpoints in bits."""
        return dyadic_cost(self.lo) + dyadic_cost(self.hi)


#: The unit interval ``[0, 1)``.
UNIT_INTERVAL = Interval(DYADIC_ZERO, DYADIC_ONE)


class IntervalUnion:
    """A canonical finite union of disjoint, non-adjacent, non-empty intervals.

    The canonical form is a tuple of intervals sorted by left endpoint where
    consecutive intervals are separated by a gap (touching intervals are
    merged).  This makes structural equality coincide with set equality, which
    the protocols rely on for their termination tests.

    Only the constructor sorts, for arbitrary input.  The set algebra works
    on operands that are already canonical: ``union`` and ``union_interval``
    are one linear merge of two sorted tuples, and ``intersection`` and
    ``difference`` are sweeps whose output is canonical as it is built, so
    none of them sorts or re-canonicalises.
    """

    __slots__ = ("_ivals",)

    _ivals: Tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        object.__setattr__(self, "_ivals", _canonicalize(intervals))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalUnion":
        """The empty union (the paper's ``[0, 0)``)."""
        return _EMPTY

    @classmethod
    def unit(cls) -> "IntervalUnion":
        """The union consisting of the single interval ``[0, 1)``."""
        return _UNIT

    @classmethod
    def single(cls, interval: Interval) -> "IntervalUnion":
        """The union of one interval (empty union if the interval is empty)."""
        if interval.is_empty():
            return _EMPTY
        return _from_canonical((interval,))

    @classmethod
    def of(cls, *intervals: Interval) -> "IntervalUnion":
        """The union of the given intervals (overlaps allowed)."""
        return cls(intervals)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The canonical component intervals, left to right."""
        return self._ivals

    def interval_count(self) -> int:
        """Number of canonical component intervals."""
        return len(self._ivals)

    def is_empty(self) -> bool:
        """True iff the union is the empty set."""
        return not self._ivals

    def is_unit(self) -> bool:
        """True iff the union equals ``[0, 1)`` exactly."""
        return len(self._ivals) == 1 and self._ivals[0] == UNIT_INTERVAL

    def measure(self) -> Dyadic:
        """Total length of the union (exact)."""
        total = DYADIC_ZERO
        for ival in self._ivals:
            total = total + ival.measure()
        return total

    def contains(self, point: Dyadic) -> bool:
        """True iff the point lies in the union (binary search)."""
        lo, hi = 0, len(self._ivals)
        while lo < hi:
            mid = (lo + hi) // 2
            ival = self._ivals[mid]
            if point < ival.lo:
                hi = mid
            elif point >= ival.hi:
                lo = mid + 1
            else:
                return True
        return False

    def contains_union(self, other: "IntervalUnion") -> bool:
        """True iff ``other ⊆ self``."""
        return other.difference(self).is_empty()

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivals)

    def __len__(self) -> int:
        return len(self._ivals)

    def __bool__(self) -> bool:
        return bool(self._ivals)

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set union (one merge sweep over the two canonical forms)."""
        if not self._ivals:
            return other
        if not other._ivals:
            return self
        return _from_canonical(_merge(self._ivals, other._ivals))

    def union_interval(self, interval: Interval) -> "IntervalUnion":
        """Set union with a single interval."""
        return self.union(IntervalUnion.single(interval))

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set intersection (two-pointer sweep over canonical forms)."""
        out: List[Interval] = []
        i = j = 0
        a, b = self._ivals, other._ivals
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            if lo < hi:
                out.append(Interval(lo, hi))
            # Advance whichever interval ends first.
            if a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return _from_canonical(tuple(out))

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set difference ``self \\ other``."""
        if not self._ivals or not other._ivals:
            return self
        out: List[Interval] = []
        j = 0
        b = other._ivals
        for ival in self._ivals:
            cursor = ival.lo
            # Skip subtrahend intervals entirely to the left of this one.
            while j < len(b) and b[j].hi <= ival.lo:
                j += 1
            k = j
            while k < len(b) and b[k].lo < ival.hi:
                if b[k].lo > cursor:
                    out.append(Interval(cursor, b[k].lo))
                cursor = max(cursor, b[k].hi)
                if cursor >= ival.hi:
                    break
                k += 1
            if cursor < ival.hi:
                out.append(Interval(cursor, ival.hi))
        return _from_canonical(tuple(out))

    def symmetric_difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Points in exactly one of the two unions."""
        return self.difference(other).union(other.difference(self))

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self._ivals == other._ivals

    def __hash__(self) -> int:
        return hash(self._ivals)

    def __copy__(self) -> "IntervalUnion":
        # Immutable: copying is identity.
        return self

    def __deepcopy__(self, memo) -> "IntervalUnion":
        return self

    def __repr__(self) -> str:
        return f"IntervalUnion({list(self._ivals)!r})"

    def __str__(self) -> str:
        if not self._ivals:
            return "∅"
        return " ∪ ".join(str(ival) for ival in self._ivals)

    # ------------------------------------------------------------------
    # Encoding cost
    # ------------------------------------------------------------------

    def bit_cost(self) -> int:
        """Encoded size in bits (length prefix plus per-interval endpoints)."""
        return union_cost(self)


def _canonicalize(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort, drop empties, and merge overlapping/adjacent intervals.

    Only arbitrary input comes through here.  The sort key is exact and
    int-only: with ``E`` the largest endpoint exponent in the list, the
    endpoint ``num / 2**exp`` orders as the integer ``num << (E - exp)``.
    """
    nonempty = [iv for iv in intervals if not iv.is_empty()]
    if not nonempty:
        return ()
    top = max(max(iv.lo.exp, iv.hi.exp) for iv in nonempty)
    nonempty.sort(
        key=lambda iv: (iv.lo.num << (top - iv.lo.exp), iv.hi.num << (top - iv.hi.exp))
    )
    merged: List[Interval] = [nonempty[0]]
    for ival in nonempty[1:]:
        last = merged[-1]
        if ival.lo <= last.hi:
            if ival.hi > last.hi:
                merged[-1] = Interval(last.lo, ival.hi)
        else:
            merged.append(ival)
    return tuple(merged)


def _merge(a: Tuple[Interval, ...], b: Tuple[Interval, ...]) -> Tuple[Interval, ...]:
    """Union of two non-empty canonical tuples by one merge sweep.

    Intervals are taken in left-endpoint order and folded into a running
    component; an input interval that survives unextended is reused as it
    is, so only grown components allocate.
    """
    out: List[Interval] = []
    la, lb = len(a), len(b)
    if a[0].lo <= b[0].lo:
        cur, i, j = a[0], 1, 0
    else:
        cur, i, j = b[0], 0, 1
    hi = cur.hi
    grown = False
    while i < la or j < lb:
        if j == lb or (i < la and a[i].lo <= b[j].lo):
            nxt = a[i]
            i += 1
        else:
            nxt = b[j]
            j += 1
        if nxt.lo <= hi:
            # Overlapping or touching: extend the running component.
            if nxt.hi > hi:
                hi = nxt.hi
                grown = True
        else:
            out.append(Interval(cur.lo, hi) if grown else cur)
            cur, hi, grown = nxt, nxt.hi, False
    out.append(Interval(cur.lo, hi) if grown else cur)
    return tuple(out)


def _from_canonical(ivals: Tuple[Interval, ...]) -> IntervalUnion:
    """Wrap an already-canonical tuple as a union, without sorting."""
    if not ivals:
        return _EMPTY
    union = object.__new__(IntervalUnion)
    object.__setattr__(union, "_ivals", ivals)
    return union


_EMPTY = object.__new__(IntervalUnion)
object.__setattr__(_EMPTY, "_ivals", ())

_UNIT = _from_canonical((UNIT_INTERVAL,))

#: The empty interval-union.
EMPTY_UNION: IntervalUnion = _EMPTY

#: The full unit interval-union ``[0, 1)``.
UNIT_UNION: IntervalUnion = _UNIT


# ----------------------------------------------------------------------
# Partition schemes
# ----------------------------------------------------------------------


def split_interval(interval: Interval, parts: int) -> List[Interval]:
    """Split ``[a, b)`` into ``parts`` disjoint intervals by the Δ-scheme.

    Theorem 4.3's construction: let ``N`` be the smallest power of two with
    ``N >= parts`` and ``Δ = (b - a) / N``.  The result is ``parts - 1``
    intervals of width ``Δ`` followed by ``[a + (parts - 1)Δ, b)``.  The
    concatenation of the parts is exactly ``[a, b)`` and every new endpoint is
    dyadic.

    Splitting the empty interval yields ``parts`` empty intervals; splitting
    into one part returns the interval unchanged.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if parts == 1:
        return [interval]
    if interval.is_empty():
        return [interval] * parts
    shift = (parts - 1).bit_length()  # N = 2**shift is the least power of two >= parts
    delta = interval.measure().divide_pow2_parts(1 << shift)
    cuts: List[Interval] = []
    cursor = interval.lo
    for _ in range(parts - 1):
        nxt = cursor + delta
        cuts.append(Interval(cursor, nxt))
        cursor = nxt
    cuts.append(Interval(cursor, interval.hi))
    return cuts


def canonical_partition(alpha: IntervalUnion, parts: int) -> List[IntervalUnion]:
    """The canonical partition of Section 4 (with a necessary repair).

    Given ``α' = I₁ ∪ … ∪ I_r`` (canonical components, left to right) and a
    number of parts ``d``, the paper defines::

        α*_j = I₁ʲ            for j = 1 … d-1   (Δ-split of I₁ into d-1 parts)
        α*_d = I₂ ∪ … ∪ I_r

    **Erratum repair.**  Read literally, with ``r = 1`` (a single component —
    in particular the very first message ``[0,1)``) the last part is *empty*,
    and an out-neighbour reachable only through the last port then receives
    no commodity at all.  That breaks the paper's own guarantees: on the DAG
    ``s→p``, ``p→{x,u}``, ``x→t``, ``u→t`` the terminal covers ``[0,1)`` via
    ``x`` and declares termination while ``u`` has never received the
    broadcast (contradicting Theorem 4.2's delivery claim), and dead-end
    regions hanging off last ports stop blocking termination (contradicting
    the "iff").  The evidently intended invariant is that a non-empty ``α'``
    gives **every** part non-empty commodity, so when ``r = 1`` we Δ-split
    ``I₁`` into ``d`` parts instead.  This preserves the Theorem 4.3
    accounting (still one partition per vertex into at most ``d_out`` + 1
    pieces, each endpoint refined by ``O(log d_out)`` bits).  The literal
    rule is kept as :func:`canonical_partition_literal`; the erratum test
    suite demonstrates the failure it causes.

    For ``d == 1`` the partition is ``[α']`` itself.  Partitioning the empty
    union yields ``d`` empty unions.  The parts are pairwise disjoint, their
    union is exactly ``α'``, and all are non-empty whenever ``α'`` is.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if parts == 1:
        return [alpha]
    if alpha.is_empty():
        return [EMPTY_UNION] * parts
    components = alpha.intervals
    first, rest = components[0], components[1:]
    if rest:
        pieces = split_interval(first, parts - 1)
        result = [IntervalUnion.single(piece) for piece in pieces]
        result.append(_from_canonical(rest))
    else:
        pieces = split_interval(first, parts)
        result = [IntervalUnion.single(piece) for piece in pieces]
    return result


def canonical_partition_literal(alpha: IntervalUnion, parts: int) -> List[IntervalUnion]:
    """The canonical partition exactly as written in Section 4.

    Kept for the erratum experiments: with a single-component ``α'`` the last
    part is empty, which demonstrably breaks broadcast delivery and the
    termination "iff" (see :func:`canonical_partition`).  Not used by the
    repaired protocols.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if parts == 1:
        return [alpha]
    if alpha.is_empty():
        return [EMPTY_UNION] * parts
    components = alpha.intervals
    first, rest = components[0], components[1:]
    pieces = split_interval(first, parts - 1)
    result = [IntervalUnion.single(piece) for piece in pieces]
    result.append(_from_canonical(rest))
    return result


# ----------------------------------------------------------------------
# Encodings
# ----------------------------------------------------------------------


def encode_interval(writer: BitWriter, interval: Interval) -> None:
    """Encode an interval as its two endpoints."""
    encode_dyadic(writer, interval.lo)
    encode_dyadic(writer, interval.hi)


def decode_interval(reader: BitReader) -> Interval:
    """Inverse of :func:`encode_interval`."""
    lo = decode_dyadic(reader)
    hi = decode_dyadic(reader)
    return Interval(lo, hi)


def encode_union(writer: BitWriter, union: IntervalUnion) -> None:
    """Encode a union as a count followed by its canonical intervals."""
    encode_unsigned(writer, union.interval_count())
    for ival in union:
        encode_interval(writer, ival)


def decode_union(reader: BitReader) -> IntervalUnion:
    """Inverse of :func:`encode_union`."""
    count = decode_unsigned(reader)
    return IntervalUnion([decode_interval(reader) for _ in range(count)])


def interval_cost(interval: Interval) -> int:
    """Encoded size of an interval in bits."""
    return interval.endpoint_bit_cost()


def union_cost(union: IntervalUnion) -> int:
    """Encoded size of a union in bits."""
    total = unsigned_cost(union.interval_count())
    for ival in union:
        total += interval_cost(ival)
    return total
