"""Compiled fast-path kernel for the Section 4/5 interval protocols.

The general-broadcast and label-assignment protocols spend nearly all of
their time in :class:`~repro.core.intervals.IntervalUnion` algebra: every
transition allocates ``Interval``/``Dyadic``/``IntervalUnion`` objects and
compares endpoints through ``Dyadic`` method calls, and the terminal
re-computes ``α ∪ β`` from scratch for every stopping-predicate
evaluation.  This module re-implements exactly the same protocol
semantics on flat data:

* an endpoint is a normalised dyadic ``(num, exp)`` pair of plain ints
  (``num`` odd or ``exp == 0`` — the same canonical form as
  :class:`~repro.core.dyadic.Dyadic`, so encoded bit costs agree exactly);
* an interval is a 4-tuple ``(lo_num, lo_exp, hi_num, hi_exp)``;
* an interval union is a tuple of such tuples in canonical form
  (sorted, disjoint, non-adjacent) — all set algebra is done by linear
  merges/sweeps over already-canonical operands, never by sorting, and
  sweeps only the stretch of a long operand that a short one spans;
  being tuples all the way down, unions (and the kernel snapshots that
  share them) hash as they are;
* messages between kernel vertices are ``(alpha, beta)`` pairs of such
  tuples (the broadcast payload is a run-constant, carried implicitly);
* the terminal maintains its covered set ``α ∪ β`` *incrementally*, so
  the stopping predicate is an ``O(1)`` structural check instead of a
  fresh union per delivery.

Bit accounting replicates :mod:`repro.core.encoding` arithmetic
(Elias-delta lengths) on the int pairs, so ``total_bits`` and friends are
identical to the reference engine — the differential test suite asserts
this for every graph family and scheduler.  Real
:class:`~repro.core.general_broadcast.GeneralState` objects (and
:class:`~repro.core.intervals.IntervalUnion` labels) are materialised only
once, at the end of the run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .dyadic import Dyadic
from .flat_kernel import _add, _dcost, _le, _lt, _norm, _sub, _ucost
from .intervals import Interval, IntervalUnion, _from_canonical

__all__ = ["IntervalKernel"]

#: A canonical interval: (lo_num, lo_exp, hi_num, hi_exp), endpoints normalised.
_FlatInterval = Tuple[int, int, int, int]
#: A canonical union: tuple of flat intervals, sorted/disjoint/non-adjacent.
_FlatUnion = Tuple[_FlatInterval, ...]

#: The empty union.
_EMPTY: _FlatUnion = ()

#: The unit interval [0, 1) in flat form.
_UNIT: _FlatUnion = ((0, 0, 1, 0),)

#: Encoded size of an empty union (length prefix only).
_EMPTY_COST = 1  # _ucost(0)

# The dyadic-pair arithmetic (_norm/_add/_sub/_lt/_le) and scalar bit costs
# (_ucost/_dcost) are shared with the scalar-protocol kernels; they live in
# :mod:`repro.core.flat_kernel` and are re-exported here for the union
# algebra below (and for existing imports of this module).


def _cost(union: _FlatUnion) -> int:
    """``union_cost``: length prefix plus two dyadics per interval."""
    total = _ucost(len(union))
    for ln, le, hn, he in union:
        total += _dcost(ln, le) + _dcost(hn, he)
    return total


# ----------------------------------------------------------------------
# Canonical-union set algebra (linear merges over canonical operands)
# ----------------------------------------------------------------------
#
# The protocols mostly combine a long union (a vertex's β or coverage)
# with a short one (one message's increment).  Only the stretch of the
# long operand that the short one spans can change; it is found by binary
# search, swept linearly, and spliced back between the untouched prefix
# and suffix, which are tuple slices.


def _bisect(
    u: _FlatUnion, pos: int, n: int, e: int, strict: bool, lo: int = 0
) -> int:
    """First index from ``lo`` whose endpoint ``pos`` (0: lo, 2: hi) is
    ``>= n/2**e``, or ``> n/2**e`` when ``strict``.  Canonical unions are
    sorted on both endpoints, so the predicate is monotone."""
    before = _le if strict else _lt
    hi = len(u)
    while lo < hi:
        mid = (lo + hi) >> 1
        iv = u[mid]
        if before(iv[pos], iv[pos + 1], n, e):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _union(a: _FlatUnion, b: _FlatUnion) -> _FlatUnion:
    """Set union: ``b``'s span of ``a`` merged with ``b`` in one sweep."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    # Intervals of a ending before b starts, or starting after b ends,
    # touch nothing in b (touching intervals merge, hence the strictness).
    i = _bisect(a, 2, b[0][0], b[0][1], False)
    j = _bisect(a, 0, b[-1][2], b[-1][3], True, i)
    return a[:i] + _merge(a[i:j], b) + a[j:]


def _merge(a: _FlatUnion, b: _FlatUnion) -> _FlatUnion:
    """Set union of two canonical unions by a single merge sweep."""
    if not a:
        return b
    out: List[_FlatInterval] = []
    i = j = 0
    la, lb = len(a), len(b)
    # Seed the accumulator with the leftmost interval.
    if _le(a[0][0], a[0][1], b[0][0], b[0][1]):
        clo_n, clo_e, chi_n, chi_e = a[0]
        i = 1
    else:
        clo_n, clo_e, chi_n, chi_e = b[0]
        j = 1
    while i < la or j < lb:
        if j >= lb:
            nxt = a[i]
            i += 1
        elif i >= la:
            nxt = b[j]
            j += 1
        elif _le(a[i][0], a[i][1], b[j][0], b[j][1]):
            nxt = a[i]
            i += 1
        else:
            nxt = b[j]
            j += 1
        nlo_n, nlo_e, nhi_n, nhi_e = nxt
        if _le(nlo_n, nlo_e, chi_n, chi_e):
            # Overlapping or adjacent: extend the accumulator if needed.
            if _lt(chi_n, chi_e, nhi_n, nhi_e):
                chi_n, chi_e = nhi_n, nhi_e
        else:
            out.append((clo_n, clo_e, chi_n, chi_e))
            clo_n, clo_e, chi_n, chi_e = nxt
    out.append((clo_n, clo_e, chi_n, chi_e))
    return tuple(out)


def _intersection(a: _FlatUnion, b: _FlatUnion) -> _FlatUnion:
    """Set intersection (two-pointer sweep over ``b``'s span of ``a``)."""
    if not a or not b:
        return _EMPTY
    if len(a) < len(b):
        a, b = b, a
    out: List[_FlatInterval] = []
    i = _bisect(a, 2, b[0][0], b[0][1], True)
    la = _bisect(a, 0, b[-1][2], b[-1][3], False, i)
    j, lb = 0, len(b)
    while i < la and j < lb:
        alo_n, alo_e, ahi_n, ahi_e = a[i]
        blo_n, blo_e, bhi_n, bhi_e = b[j]
        if _lt(alo_n, alo_e, blo_n, blo_e):
            lo_n, lo_e = blo_n, blo_e
        else:
            lo_n, lo_e = alo_n, alo_e
        if _lt(ahi_n, ahi_e, bhi_n, bhi_e):
            hi_n, hi_e = ahi_n, ahi_e
        else:
            hi_n, hi_e = bhi_n, bhi_e
        if _lt(lo_n, lo_e, hi_n, hi_e):
            out.append((lo_n, lo_e, hi_n, hi_e))
        if _le(ahi_n, ahi_e, bhi_n, bhi_e):
            i += 1
        else:
            j += 1
    return tuple(out)


def _difference(a: _FlatUnion, b: _FlatUnion) -> _FlatUnion:
    """Set difference ``a \\ b`` over ``b``'s span of ``a``."""
    if not a or not b:
        return a
    # Intervals of a that end by b's start or begin at b's end survive.
    first = _bisect(a, 2, b[0][0], b[0][1], True)
    last = _bisect(a, 0, b[-1][2], b[-1][3], False, first)
    out: List[_FlatInterval] = []
    lb = len(b)
    j = _bisect(b, 2, a[first][0], a[first][1], True) if first < last else lb
    for ilo_n, ilo_e, ihi_n, ihi_e in a[first:last]:
        cur_n, cur_e = ilo_n, ilo_e
        # Skip subtrahend intervals that end by this one's start.
        while j < lb and _le(b[j][2], b[j][3], ilo_n, ilo_e):
            j += 1
        k = j
        while k < lb and _lt(b[k][0], b[k][1], ihi_n, ihi_e):
            blo_n, blo_e, bhi_n, bhi_e = b[k]
            if _lt(cur_n, cur_e, blo_n, blo_e):
                out.append((cur_n, cur_e, blo_n, blo_e))
            if _lt(cur_n, cur_e, bhi_n, bhi_e):
                cur_n, cur_e = bhi_n, bhi_e
            if _le(ihi_n, ihi_e, cur_n, cur_e):
                break
            k += 1
        if _lt(cur_n, cur_e, ihi_n, ihi_e):
            out.append((cur_n, cur_e, ihi_n, ihi_e))
    return a[:first] + tuple(out) + a[last:]


# ----------------------------------------------------------------------
# Partition schemes (Δ-split of Theorem 4.3, canonical partition of §4)
# ----------------------------------------------------------------------


def _split(interval: _FlatInterval, parts: int) -> List[_FlatInterval]:
    """Δ-split a non-empty interval into ``parts`` pieces (Thm 4.3)."""
    if parts == 1:
        return [interval]
    lo_n, lo_e, hi_n, hi_e = interval
    shift = (parts - 1).bit_length()  # N = 2**shift >= parts
    mn, me = _sub(hi_n, hi_e, lo_n, lo_e)
    dn, de = _norm(mn, me + shift)  # measure / N
    cuts: List[_FlatInterval] = []
    cur_n, cur_e = lo_n, lo_e
    for _ in range(parts - 1):
        nxt_n, nxt_e = _add(cur_n, cur_e, dn, de)
        cuts.append((cur_n, cur_e, nxt_n, nxt_e))
        cur_n, cur_e = nxt_n, nxt_e
    cuts.append((cur_n, cur_e, hi_n, hi_e))
    return cuts


def _partition(alpha: _FlatUnion, parts: int, literal: bool) -> List[_FlatUnion]:
    """The §4 canonical partition (repaired by default, literal optional)."""
    if parts == 1:
        return [alpha]
    if not alpha:
        return [_EMPTY] * parts
    first, rest = alpha[0], alpha[1:]
    if literal or rest:
        result: List[_FlatUnion] = [(piece,) for piece in _split(first, parts - 1)]
        result.append(rest)
    else:
        result = [(piece,) for piece in _split(first, parts)]
    return result


# ----------------------------------------------------------------------
# Materialisation back to the object world
# ----------------------------------------------------------------------


def _to_union(flat: _FlatUnion) -> IntervalUnion:
    """Lift a flat canonical union back into an :class:`IntervalUnion`."""
    return _from_canonical(
        tuple(Interval(Dyadic(ln, le), Dyadic(hn, he)) for ln, le, hn, he in flat)
    )


class IntervalKernel:
    """Fast-path machine for :class:`GeneralBroadcastProtocol` semantics.

    Parameters
    ----------
    protocol:
        The protocol instance (source of ``payload_bits``,
        ``broadcast_payload`` and the partition rule).
    compiled:
        The :class:`~repro.network.fastpath.CompiledNetwork`.
    reserve_label:
        §5 variation: partition into ``d + 1`` parts and retain slot 0.
    root_plain / d0_plain:
        The :class:`~repro.core.labeling.LabelAssignmentProtocol` overrides
        for the paper setting (``label_endpoints=False``): the root injects
        like the plain broadcast protocol, and out-degree-0 vertices take
        no label and leave the virgin flag cleared on every delivery.
    """

    __slots__ = (
        "protocol",
        "terminal",
        "payload_bits",
        "literal",
        "reserve_label",
        "root_plain",
        "d0_plain",
        "out_degree",
        "virgin",
        "received",
        "alphas",
        "beta",
        "alpha_acc",
        "label",
        "frozen",
        "coverage",
        "covered",
        "terminal_done",
    )

    def __init__(
        self,
        protocol: Any,
        compiled: Any,
        *,
        reserve_label: bool,
        root_plain: bool,
        d0_plain: bool,
    ) -> None:
        self.protocol = protocol
        self.terminal = compiled.terminal
        self.payload_bits: int = protocol.payload_bits
        self.literal = protocol.partition_rule == "literal"
        self.reserve_label = reserve_label
        self.root_plain = root_plain
        self.d0_plain = d0_plain
        n = compiled.num_vertices
        self.out_degree: List[int] = compiled.out_degree
        self.virgin = [True] * n
        self.received = [False] * n
        self.alphas: List[List[_FlatUnion]] = [[_EMPTY] * d for d in self.out_degree]
        self.beta: List[_FlatUnion] = [_EMPTY] * n
        self.alpha_acc: List[_FlatUnion] = [_EMPTY] * n
        self.label: List[Optional[_FlatUnion]] = [None] * n
        self.frozen: List[_FlatUnion] = [_EMPTY] * n
        self.coverage: List[_FlatUnion] = [_EMPTY] * n
        self.covered: _FlatUnion = _EMPTY
        self.terminal_done = False

    # ------------------------------------------------------------------
    # machine interface
    # ------------------------------------------------------------------

    def initial_emissions(self, root: int) -> List[Tuple[int, Any, int]]:
        d = self.out_degree[root]
        if self.reserve_label and not self.root_plain:
            parts = _partition(_UNIT, d + 1, self.literal)
            beta0, port_parts = parts[0], parts[1:]
        else:
            beta0, port_parts = _EMPTY, _partition(_UNIT, d, self.literal)
        beta0_cost = _cost(beta0)
        pb = self.payload_bits
        return [
            (port, (part, beta0), _cost(part) + beta0_cost + pb)
            for port, part in enumerate(port_parts)
            if part or beta0
        ]

    def deliver(
        self, vertex: int, in_port: int, token: Tuple[_FlatUnion, _FlatUnion]
    ) -> List[Tuple[int, Any, int]]:
        alpha_in, beta_in = token
        self.received[vertex] = True
        d = self.out_degree[vertex]
        pb = self.payload_bits

        if d == 0:
            # Terminal or dead end: accumulate for the stopping test.
            if alpha_in:
                self.alpha_acc[vertex] = _union(self.alpha_acc[vertex], alpha_in)
            if beta_in:
                self.beta[vertex] = _union(self.beta[vertex], beta_in)
            if self.d0_plain:
                self.virgin[vertex] = False
            elif self.virgin[vertex] and alpha_in:
                self.virgin[vertex] = False
                if self.reserve_label and self.label[vertex] is None:
                    self.label[vertex] = alpha_in
            if vertex == self.terminal and not self.terminal_done:
                covered = self.covered
                if alpha_in:
                    covered = _union(covered, alpha_in)
                if beta_in:
                    covered = _union(covered, beta_in)
                self.covered = covered
                self.terminal_done = (
                    len(covered) == 1 and covered[0] == (0, 0, 1, 0)
                )
            return []

        if self.virgin[vertex]:
            if not alpha_in:
                # β-only message before any commodity: flood the increment,
                # stay virgin (second erratum repair).
                old_beta = self.beta[vertex]
                delta_beta = _difference(beta_in, old_beta)
                self.beta[vertex] = _union(old_beta, beta_in)
                if not delta_beta:
                    return []
                token_out = (_EMPTY, delta_beta)
                bits = _EMPTY_COST + _cost(delta_beta) + pb
                return [(port, token_out, bits) for port in range(d)]
            return self._first_receipt(vertex, d, alpha_in, beta_in)
        return self._subsequent_receipt(vertex, d, alpha_in, beta_in)

    def _first_receipt(
        self, vertex: int, d: int, alpha_in: _FlatUnion, beta_in: _FlatUnion
    ) -> List[Tuple[int, Any, int]]:
        self.virgin[vertex] = False
        old_beta = self.beta[vertex]
        if self.reserve_label:
            parts = _partition(alpha_in, d + 1, self.literal)
            label = parts[0]
            self.label[vertex] = label
            alphas = parts[1:]
            incoming = _union(beta_in, label)
            frozen = label
        else:
            alphas = _partition(alpha_in, d, self.literal)
            incoming = beta_in
            frozen = _EMPTY
        self.alphas[vertex] = alphas
        # The β increment (old ∪ X) \ old is X \ old: computed from the
        # short incoming side, not by sweeping the whole new β.
        delta_beta = _difference(incoming, old_beta)
        new_beta = _union(old_beta, incoming)
        for part in alphas[:-1]:
            frozen = _union(frozen, part)
        self.frozen[vertex] = frozen
        self.coverage[vertex] = _union(frozen, alphas[-1])
        self.beta[vertex] = new_beta
        delta_beta_cost = _cost(delta_beta)
        pb = self.payload_bits
        return [
            (port, (part, delta_beta), _cost(part) + delta_beta_cost + pb)
            for port, part in enumerate(alphas)
            if part or delta_beta
        ]

    def _subsequent_receipt(
        self, vertex: int, d: int, alpha_in: _FlatUnion, beta_in: _FlatUnion
    ) -> List[Tuple[int, Any, int]]:
        coverage = self.coverage[vertex]
        overlap = _intersection(alpha_in, coverage)
        delta_alpha_last = _difference(alpha_in, coverage)
        old_beta = self.beta[vertex]
        incoming = _union(beta_in, overlap)
        delta_beta = _difference(incoming, old_beta)
        new_beta = _union(old_beta, incoming)

        if delta_alpha_last:
            alphas = self.alphas[vertex]
            alphas[-1] = _union(alphas[-1], delta_alpha_last)
            self.coverage[vertex] = _union(coverage, delta_alpha_last)
        self.beta[vertex] = new_beta

        emissions: List[Tuple[int, Any, int]] = []
        pb = self.payload_bits
        if delta_beta:
            delta_beta_cost = _cost(delta_beta)
            token_out = (_EMPTY, delta_beta)
            bits = _EMPTY_COST + delta_beta_cost + pb
            for port in range(d - 1):
                emissions.append((port, token_out, bits))
            emissions.append(
                (
                    d - 1,
                    (delta_alpha_last, delta_beta),
                    _cost(delta_alpha_last) + delta_beta_cost + pb,
                )
            )
        elif delta_alpha_last:
            emissions.append(
                (
                    d - 1,
                    (delta_alpha_last, delta_beta),
                    _cost(delta_alpha_last) + _EMPTY_COST + pb,
                )
            )
        return emissions

    def check_terminal(self, terminal: int) -> bool:
        return self.terminal_done

    # ------------------------------------------------------------------
    # snapshot/restore (schedule-explorer branching)
    # ------------------------------------------------------------------

    def snapshot(self) -> Tuple:
        """The full mutable state as nested tuples.

        Flat unions are tuples of int tuples, so the snapshot shares them
        by reference, copies only the per-vertex lists, and is hashable
        as it stands: it keys the schedule explorer's transposition table
        directly.  ``restore`` is the exact inverse.
        """
        return (
            tuple(self.virgin),
            tuple(self.received),
            tuple(tuple(per_port) for per_port in self.alphas),
            tuple(self.beta),
            tuple(self.alpha_acc),
            tuple(self.label),
            tuple(self.frozen),
            tuple(self.coverage),
            self.covered,
            self.terminal_done,
        )

    def restore(self, snap: Tuple) -> None:
        """Reset the kernel to a previously captured :meth:`snapshot`."""
        self.virgin = list(snap[0])
        self.received = list(snap[1])
        self.alphas = [list(per_port) for per_port in snap[2]]
        self.beta = list(snap[3])
        self.alpha_acc = list(snap[4])
        self.label = list(snap[5])
        self.frozen = list(snap[6])
        self.coverage = list(snap[7])
        self.covered = snap[8]
        self.terminal_done = snap[9]

    # ------------------------------------------------------------------
    # end-of-run materialisation
    # ------------------------------------------------------------------

    def finalize_states(self) -> Dict[int, Any]:
        from .general_broadcast import GeneralState

        payload = self.protocol.broadcast_payload
        states: Dict[int, Any] = {}
        for vertex, d in enumerate(self.out_degree):
            state = GeneralState(d)
            state.virgin = self.virgin[vertex]
            state.got_broadcast = self.received[vertex]
            state.payload = payload if self.received[vertex] else None
            state.beta = _to_union(self.beta[vertex])
            label = self.label[vertex]
            if label is not None:
                state.label = _to_union(label)
            if d == 0:
                state.alpha_acc = _to_union(self.alpha_acc[vertex])
            else:
                state.alphas = [_to_union(part) for part in self.alphas[vertex]]
                state.frozen_union = _to_union(self.frozen[vertex])
                state.coverage = _to_union(self.coverage[vertex])
            states[vertex] = state
        return states

    def output(self, terminal: int) -> Any:
        # Only consulted on termination, which requires a received message;
        # the protocol's output is the delivered broadcast payload.
        return self.protocol.broadcast_payload
