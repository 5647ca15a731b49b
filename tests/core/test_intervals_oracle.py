"""Interval-union algebra against a brute-force point-set oracle.

``IntervalUnion`` computes ``union`` and ``union_interval`` as one linear
merge of two canonical tuples, and ``intersection`` and ``difference`` as
sweeps whose output is never re-sorted.  The fast-path kernel does the
same algebra on one sorted tuple of fixed-point int boundaries, with
``bisect`` and slicing.  The oracle here shares none of that code.  It
cuts ``[0, 1]`` at every endpoint of the raw input intervals into
elementary segments, decides membership of each segment by testing its
midpoint against the raw intervals with exact ``Fraction`` arithmetic,
and joins the member segments into maximal runs.
Every algebra result must equal those runs interval for interval, which
also pins the canonical form (sorted, disjoint, non-adjacent, no empties).
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.core.dyadic import Dyadic
from repro.core.interval_kernel import _difference, _intersection, _union
from repro.core.intervals import Interval, IntervalUnion, _canonicalize

from ..conftest import dyadics, flat_union

#: Deep enough that endpoints far below 2**-53 must still order exactly.
DEEP_EXP = 64


def deep_unit_dyadics(max_exp: int = DEEP_EXP) -> st.SearchStrategy[Dyadic]:
    """Dyadics in ``[0, 1]`` with denominators up to ``2**max_exp``."""
    return st.integers(min_value=0, max_value=max_exp).flatmap(
        lambda exp: st.integers(min_value=0, max_value=1 << exp).map(
            lambda k: Dyadic(k, exp)
        )
    )


def random_intervals() -> st.SearchStrategy[list]:
    """Independent intervals (may overlap, nest or be empty)."""
    return st.lists(
        st.tuples(deep_unit_dyadics(), deep_unit_dyadics()).map(
            lambda pair: Interval(min(pair), max(pair))
        ),
        max_size=6,
    )


def touching_intervals(max_cuts: int = 8) -> st.SearchStrategy[list]:
    """A subset of the cells between sorted cut points, so that chosen
    neighbours touch end to start."""
    cuts = st.lists(deep_unit_dyadics(), min_size=2, max_size=max_cuts).map(sorted)
    return cuts.flatmap(
        lambda points: st.lists(
            st.booleans(), min_size=len(points) - 1, max_size=len(points) - 1
        ).map(
            lambda keep: [
                Interval(lo, hi)
                for lo, hi, chosen in zip(points, points[1:], keep)
                if chosen
            ]
        )
    )


raw_intervals = st.one_of(random_intervals(), touching_intervals())

#: Long unions next to short ones: the kernel's windowed sweeps.
mixed_lengths = st.one_of(raw_intervals, touching_intervals(max_cuts=32))


def shared_cut_pairs(max_cuts: int = 32) -> st.SearchStrategy[tuple]:
    """Two operands cut from the same points: each cell goes to neither,
    either or both, so intervals of one operand touch, abut or coincide
    with intervals of the other."""
    cuts = st.lists(deep_unit_dyadics(), min_size=2, max_size=max_cuts).map(sorted)

    def split(points, owners):
        cells = list(zip(points, points[1:], owners))
        return (
            [Interval(lo, hi) for lo, hi, owner in cells if owner & 1],
            [Interval(lo, hi) for lo, hi, owner in cells if owner & 2],
        )

    return cuts.flatmap(
        lambda points: st.lists(
            st.integers(0, 3), min_size=len(points) - 1, max_size=len(points) - 1
        ).map(lambda owners: split(points, owners))
    )


operand_pairs = st.one_of(st.tuples(mixed_lengths, mixed_lengths), shared_cut_pairs())


def _frac(interval: Interval):
    return interval.lo.as_fraction(), interval.hi.as_fraction()


def _member(raw, point: Fraction) -> bool:
    return any(lo <= point < hi for lo, hi in map(_frac, raw))


def oracle(raws, keep):
    """The set ``keep(member_0, member_1, ...)`` as maximal runs.

    ``raws`` are lists of raw intervals; ``keep`` maps the per-operand
    membership of a point to membership of the result.
    """
    endpoints = {p for raw in raws for iv in raw for p in _frac(iv)}
    cuts = sorted(endpoints | {Fraction(0), Fraction(1)})
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        if not keep(*(_member(raw, mid) for raw in raws)):
            continue
        if runs and runs[-1][1] == lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return [tuple(run) for run in runs]


def as_runs(union: IntervalUnion):
    return [_frac(iv) for iv in union.intervals]


@given(operand_pairs)
def test_union_matches_oracle(pair):
    a, b = pair
    result = IntervalUnion(a).union(IntervalUnion(b))
    assert as_runs(result) == oracle([a, b], lambda x, y: x or y)


@given(operand_pairs)
def test_intersection_matches_oracle(pair):
    a, b = pair
    result = IntervalUnion(a).intersection(IntervalUnion(b))
    assert as_runs(result) == oracle([a, b], lambda x, y: x and y)


@given(operand_pairs)
def test_difference_matches_oracle(pair):
    a, b = pair
    result = IntervalUnion(a).difference(IntervalUnion(b))
    assert as_runs(result) == oracle([a, b], lambda x, y: x and not y)


@given(raw_intervals, st.tuples(deep_unit_dyadics(), deep_unit_dyadics()))
def test_union_interval_matches_oracle(a, pair):
    interval = Interval(min(pair), max(pair))
    result = IntervalUnion(a).union_interval(interval)
    assert as_runs(result) == oracle([a, [interval]], lambda x, y: x or y)


@given(raw_intervals)
def test_constructor_matches_oracle(a):
    assert as_runs(IntervalUnion(a)) == oracle([a], lambda x: x)


def _flat(raw):
    """Raw intervals in boundary form, at the deepest exponent drawn."""
    return flat_union(IntervalUnion(raw), DEEP_EXP)


def _flat_runs(flat):
    unit = 1 << DEEP_EXP
    return [(Fraction(lo, unit), Fraction(hi, unit)) for lo, hi in zip(flat[::2], flat[1::2])]


@given(operand_pairs)
def test_kernel_algebra_matches_oracle(pair):
    a, b = pair
    fa, fb = _flat(a), _flat(b)
    assert _flat_runs(_union(fa, fb)) == oracle([a, b], lambda x, y: x or y)
    assert _flat_runs(_intersection(fa, fb)) == oracle([a, b], lambda x, y: x and y)
    assert _flat_runs(_difference(fa, fb)) == oracle([a, b], lambda x, y: x and not y)
    assert _flat_runs(_difference(fb, fa)) == oracle([a, b], lambda x, y: y and not x)


def _fraction_canonicalize(intervals):
    """The canonicalisation as it was before the int sort key."""
    nonempty = [iv for iv in intervals if not iv.is_empty()]
    if not nonempty:
        return ()
    nonempty.sort(key=lambda iv: (iv.lo.as_fraction(), iv.hi.as_fraction()))
    merged = [nonempty[0]]
    for ival in nonempty[1:]:
        last = merged[-1]
        if ival.lo <= last.hi:
            if ival.hi > last.hi:
                merged[-1] = Interval(last.lo, ival.hi)
        else:
            merged.append(ival)
    return tuple(merged)


@given(raw_intervals.flatmap(st.permutations))
def test_canonicalize_matches_fraction_sort(shuffled):
    assert _canonicalize(shuffled) == _fraction_canonicalize(shuffled)


@given(dyadics(max_exp=DEEP_EXP), dyadics(max_exp=DEEP_EXP))
def test_dyadic_order_matches_fractions(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a > b) == (fa > fb)
    assert (a >= b) == (fa >= fb)
    assert (a == b) == (fa == fb)


@given(dyadics(max_exp=8), st.integers(min_value=-(1 << 17), max_value=1 << 17))
def test_dyadic_order_against_ints_matches_fractions(a, n):
    fa = a.as_fraction()
    assert (a < n) == (fa < n)
    assert (a <= n) == (fa <= n)
    assert (a == n) == (fa == n)
    assert (n < a) == (n < fa)
    assert (n <= a) == (n <= fa)
