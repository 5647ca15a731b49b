"""Compiled fast-path kernel for the Section 4/5 interval protocols.

The general-broadcast and label-assignment protocols spend nearly all of
their time in :class:`~repro.core.intervals.IntervalUnion` algebra: every
transition allocates ``Interval``/``Dyadic``/``IntervalUnion`` objects and
compares endpoints through ``Dyadic`` method calls, and the terminal
re-computes ``α ∪ β`` from scratch for every stopping-predicate
evaluation.  This module re-implements exactly the same protocol
semantics on flat data:

* every endpoint is an int, the point times ``2**prec``.  Endpoints come
  only from Δ-splits (Thm 4.3), and a vertex splits once, on its first
  receipt (the root at most twice: :meth:`IntervalKernel.initial_emissions`
  leaves it virgin), into at most ``d + 1`` parts.  So the precision
  ``prec = Σ_v d_v.bit_length() + d_root.bit_length()`` is fixed per
  kernel before the run, every split is exact at it, and messages and
  snapshots never mix scales;
* an interval union is one strictly increasing tuple of boundaries
  ``(b0, b1, b2, b3, …)`` for ``[b0, b1) ∪ [b2, b3) ∪ …``.  Strict
  increase is the whole canonical form (sorted, disjoint, non-adjacent,
  no empty interval), a point ``x`` lies in the union exactly when
  ``bisect_right(u, x)`` is odd, and set algebra with one interval is two
  ``bisect`` calls, a parity test and a splice of slices;
* messages between kernel vertices are ``(alpha, beta)`` pairs of such
  tuples (the broadcast payload is a run-constant, carried implicitly);
  being flat int tuples, unions (and the kernel snapshots that share
  them) hash as they are;
* the terminal maintains its covered set ``α ∪ β`` *incrementally*, so
  the stopping predicate is one tuple comparison instead of a fresh union
  per delivery.

Bit accounting replicates :mod:`repro.core.encoding` arithmetic
(Elias-delta lengths): a boundary costs what the normalised dyadic
``(num, exp)`` read off its trailing zeros costs, memoised per kernel, so
``total_bits`` and friends are identical to the reference engine — the
differential test suite asserts this for every graph family and
scheduler.  Real :class:`~repro.core.general_broadcast.GeneralState`
objects (and :class:`~repro.core.intervals.IntervalUnion` labels) are
materialised only once, at the end of the run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Tuple

from .dyadic import Dyadic
from .flat_kernel import _dcost, _ucost
from .intervals import Interval, IntervalUnion, _from_canonical

__all__ = ["IntervalKernel"]

#: A canonical union: strictly increasing boundaries ``lo0, hi0, lo1, …``.
_FlatUnion = Tuple[int, ...]

#: The empty union.
_EMPTY: _FlatUnion = ()

#: Encoded size of an empty union (length prefix only).
_EMPTY_COST = 1  # _ucost(0)


class _BoundaryCosts(dict):
    """Memo from a boundary to the ``dyadic_cost`` of ``boundary / 2**prec``."""

    __slots__ = ("prec",)

    def __init__(self, prec: int) -> None:
        super().__init__()
        self.prec = prec

    def __missing__(self, x: int) -> int:
        # The normalised pair drops the trailing zeros, down to exp 0.
        shift = min((x & -x).bit_length() - 1, self.prec) if x else self.prec
        cost = self[x] = _dcost(x >> shift, self.prec - shift)
        return cost


def _cost(union: _FlatUnion, costs: _BoundaryCosts) -> int:
    """``union_cost``: length prefix plus one dyadic per boundary."""
    return _ucost(len(union) >> 1) + sum(map(costs.__getitem__, union))


# ----------------------------------------------------------------------
# Canonical-union set algebra (bisect + slicing)
# ----------------------------------------------------------------------
#
# Each operation with one interval [lo, hi) finds where lo and hi fall
# among the boundaries; the parity of those indices says whether each
# lands inside the union (odd) or outside it (even), and hence whether it
# becomes a boundary of the result, spliced in between two slices.  A
# multi-interval operand is folded in one interval at a time.


def _union(a: _FlatUnion, b: _FlatUnion) -> _FlatUnion:
    """Set union, folding the shorter operand into the longer."""
    if len(a) < len(b):
        a, b = b, a
    ends = iter(b)
    for lo, hi in zip(ends, ends):
        # lo (hi) is kept when it falls outside a; boundaries equal to lo
        # or hi drop out, so touching intervals merge.
        i = bisect_left(a, lo)
        j = bisect_right(a, hi, i)
        a = a[:i] + (lo, hi)[i & 1 : 2 - (j & 1)] + a[j:]
    return a


def _intersection(a: _FlatUnion, b: _FlatUnion) -> _FlatUnion:
    """Set intersection: the longer operand clipped to each interval of
    the shorter, in order (the clipped pieces are already disjoint)."""
    if len(a) < len(b):
        a, b = b, a
    out: List[int] = []
    ends = iter(b)
    for lo, hi in zip(ends, ends):
        i = bisect_right(a, lo)
        j = bisect_left(a, hi, i)
        if i & 1:
            out.append(lo)
        out += a[i:j]
        if j & 1:
            out.append(hi)
    return tuple(out)


def _difference(a: _FlatUnion, b: _FlatUnion) -> _FlatUnion:
    """Set difference ``a \\ b``, folding in only the intervals of ``b``
    that meet ``[a[0], a[-1])``."""
    if not a or not b:
        return a
    start = bisect_right(b, a[0]) & ~1
    stop = (bisect_left(b, a[-1]) + 1) & ~1
    ends = iter(b[start:stop])
    for lo, hi in zip(ends, ends):
        # lo (hi) is kept when it falls inside a, cutting an interval.
        i = bisect_left(a, lo)
        j = bisect_right(a, hi, i)
        a = a[:i] + (lo, hi)[1 - (i & 1) : 1 + (j & 1)] + a[j:]
    return a


# ----------------------------------------------------------------------
# Partition schemes (Δ-split of Theorem 4.3, canonical partition of §4)
# ----------------------------------------------------------------------


def _split(lo: int, hi: int, parts: int) -> List[_FlatUnion]:
    """Δ-split ``[lo, hi)`` into ``parts`` one-interval unions (Thm 4.3).

    Raises :class:`ArithmeticError` when ``(hi - lo) / 2**⌈log2 parts⌉``
    is not a whole number of boundary units: the kernel's precision was
    too low, and the kernel never rounds.
    """
    shift = (parts - 1).bit_length()  # N = 2**shift >= parts
    measure = hi - lo
    delta = measure >> shift
    if delta << shift != measure:
        raise ArithmeticError(
            f"Δ-split of [{lo}, {hi}) into {parts} parts is inexact "
            "at the kernel's precision"
        )
    cuts = list(range(lo, lo + parts * delta, delta))
    cuts.append(hi)
    return list(zip(cuts, cuts[1:]))


def _partition(alpha: _FlatUnion, parts: int, literal: bool) -> List[_FlatUnion]:
    """The §4 canonical partition (repaired by default, literal optional)."""
    if parts == 1:
        return [alpha]
    if not alpha:
        return [_EMPTY] * parts
    rest = alpha[2:]
    if literal or rest:
        result = _split(alpha[0], alpha[1], parts - 1)
        result.append(rest)
        return result
    return _split(alpha[0], alpha[1], parts)


# ----------------------------------------------------------------------
# Materialisation back to the object world
# ----------------------------------------------------------------------


def _to_union(flat: _FlatUnion, prec: int) -> IntervalUnion:
    """Lift a flat canonical union back into an :class:`IntervalUnion`."""
    ends = iter(flat)
    return _from_canonical(
        tuple(Interval(Dyadic(lo, prec), Dyadic(hi, prec)) for lo, hi in zip(ends, ends))
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

    Boundaries are points times ``2**prec``; ``unit`` is ``[0, 1)`` and
    ``costs`` the per-kernel boundary bit-cost memo.
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
        "prec",
        "unit",
        "costs",
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
        self.prec = sum(d.bit_length() for d in self.out_degree)
        self.prec += self.out_degree[compiled.root].bit_length()  # root splits twice
        self.unit: _FlatUnion = (0, 1 << self.prec)
        self.costs = _BoundaryCosts(self.prec)
        self.virgin = [True] * n
        self.received = [False] * n
        self.alphas: List[Tuple[_FlatUnion, ...]] = [(_EMPTY,) * d for d in self.out_degree]
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
            parts = _partition(self.unit, d + 1, self.literal)
            beta0, port_parts = parts[0], parts[1:]
        else:
            beta0, port_parts = _EMPTY, _partition(self.unit, d, self.literal)
        costs = self.costs
        beta0_cost = _cost(beta0, costs)
        pb = self.payload_bits
        return [
            (port, (part, beta0), _cost(part, costs) + beta0_cost + pb)
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
                self.terminal_done = covered == self.unit
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
                bits = _EMPTY_COST + _cost(delta_beta, self.costs) + pb
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
        self.alphas[vertex] = tuple(alphas)
        # The β increment (old ∪ X) \ old is X \ old: computed from the
        # short incoming side, not by sweeping the whole new β.
        delta_beta = _difference(incoming, old_beta)
        new_beta = _union(old_beta, incoming)
        for part in alphas[:-1]:
            frozen = _union(frozen, part)
        self.frozen[vertex] = frozen
        self.coverage[vertex] = _union(frozen, alphas[-1])
        self.beta[vertex] = new_beta
        costs = self.costs
        delta_beta_cost = _cost(delta_beta, costs)
        pb = self.payload_bits
        return [
            (port, (part, delta_beta), _cost(part, costs) + delta_beta_cost + pb)
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
            self.alphas[vertex] = alphas[:-1] + (_union(alphas[-1], delta_alpha_last),)
            self.coverage[vertex] = _union(coverage, delta_alpha_last)
        self.beta[vertex] = new_beta

        emissions: List[Tuple[int, Any, int]] = []
        pb = self.payload_bits
        costs = self.costs
        if delta_beta:
            delta_beta_cost = _cost(delta_beta, costs)
            token_out = (_EMPTY, delta_beta)
            bits = _EMPTY_COST + delta_beta_cost + pb
            for port in range(d - 1):
                emissions.append((port, token_out, bits))
            emissions.append(
                (
                    d - 1,
                    (delta_alpha_last, delta_beta),
                    _cost(delta_alpha_last, costs) + delta_beta_cost + pb,
                )
            )
        elif delta_alpha_last:
            emissions.append(
                (
                    d - 1,
                    (delta_alpha_last, delta_beta),
                    _cost(delta_alpha_last, costs) + _EMPTY_COST + pb,
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

        Flat unions and each vertex's per-port α tuple are immutable, so
        the snapshot shares them by reference, copies only the per-vertex
        lists, and is hashable as it stands: it keys the schedule
        explorer's transposition table directly.  ``restore`` is the exact
        inverse.
        """
        return (
            tuple(self.virgin),
            tuple(self.received),
            tuple(self.alphas),
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
        self.alphas = list(snap[2])
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
        prec = self.prec
        states: Dict[int, Any] = {}
        for vertex, d in enumerate(self.out_degree):
            state = GeneralState(d)
            state.virgin = self.virgin[vertex]
            state.got_broadcast = self.received[vertex]
            state.payload = payload if self.received[vertex] else None
            state.beta = _to_union(self.beta[vertex], prec)
            label = self.label[vertex]
            if label is not None:
                state.label = _to_union(label, prec)
            if d == 0:
                state.alpha_acc = _to_union(self.alpha_acc[vertex], prec)
            else:
                state.alphas = [_to_union(part, prec) for part in self.alphas[vertex]]
                state.frozen_union = _to_union(self.frozen[vertex], prec)
                state.coverage = _to_union(self.coverage[vertex], prec)
            states[vertex] = state
        return states

    def output(self, terminal: int) -> Any:
        # Only consulted on termination, which requires a received message;
        # the protocol's output is the delivered broadcast payload.
        return self.protocol.broadcast_payload
