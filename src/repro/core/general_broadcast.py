"""Broadcasting over general directed graphs (Section 4, Theorems 4.2–4.3).

This is the paper's main protocol.  The scalar commodity of Sections 3.1–3.3
cannot cope with cycles (a scalar arriving twice is indistinguishable from
fresh commodity), so the commodity becomes *uniquely identifiable*: subsets
of the unit interval ``[0, 1)`` represented as
:class:`~repro.core.intervals.IntervalUnion`.

**State.**  A vertex of out-degree ``d`` holds ``π = (ᾱ, β)`` where
``α_j ∈ U[0,1)`` is everything it has ever sent on out-port ``j`` and
``β ∈ U[0,1)`` is cycle information.  The paper's *state-monotonicity*
property — states only grow over time — holds structurally here and is
asserted by the property tests.

**Transition** on receiving ``σ = (α', β')`` on in-port ``i``:

* first message ever (``π = π₀``): ``ᾱ''`` is the *canonical partition* of
  ``α'`` into ``d`` parts (Δ-split of the first component interval into
  ``d-1`` parts; the remaining component intervals form the ``d``-th part),
  and ``β'' = β'``.  A vertex thus performs interval splitting **once** in
  its lifetime, which caps endpoint representations at ``O(|V| log d_out)``
  bits (Theorem 4.3).
* subsequently: ``α''_j = α_j`` for ``j < d`` (frozen), the last port
  absorbs all new commodity — ``α''_d = (α' ∪ α_d) \\ ⋃_{j<d} α_j`` — and
  every point of ``α'`` that this vertex has *already sent* is a witness of a
  directed cycle and moves to β: ``β'' = β' ∪ β ∪ ⋃_j (α' ∩ α_j)``.

**Messages.**  On out-port ``j`` the vertex sends ``(α''_j \\ α_j, β'' \\ β)``
— i.e. exactly the *increments*; nothing is sent when both increments are
empty.  β-increments flood on **all** ports, which is how cycle notifications
reach the terminal.

**Termination.**  ``S(π) = 1`` iff the terminal has seen, between α and β,
the entire unit interval: ``α ∪ β = [0, 1)``.  Every point ``a ∈ [0,1)`` is
α-carried along a single growing path (``G_T(a)`` in the paper's proof) that
either reaches ``t`` or closes a cycle — in which case the closing vertex
β-floods it to ``t``.  If some vertex is not connected to ``t``, a point gets
stuck on a path ending at an unvisited vertex, is never β-carried (β entries
require a cycle), and the terminal never covers ``[0, 1)`` — the protocol
correctly never terminates.

The label-assignment protocol of Section 5 is a small variation (each vertex
retains a slice of the commodity as its identity); it is implemented in
:mod:`repro.core.labeling` by subclassing the machinery here with
``reserve_label=True``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .intervals import (
    EMPTY_UNION,
    UNIT_UNION,
    IntervalUnion,
    canonical_partition,
    canonical_partition_literal,
    union_cost,
)
from .messages import IntervalMessage
from .model import AnonymousProtocol, Emission, VertexView, payload_bit_size
from ..api.registry import PROTOCOLS

__all__ = ["GeneralState", "GeneralBroadcastProtocol"]


class GeneralState:
    """Mutable per-vertex state ``π = (ᾱ, β)`` plus bookkeeping caches.

    Attributes
    ----------
    virgin:
        True until the first message is processed (the paper's ``π = π₀``
        test).
    alphas:
        ``α_j`` per out-port.  After the first message only the last entry
        ever changes.
    beta:
        The β interval-union.
    label:
        The retained label ``α₀`` (labeling protocol only, else ``None``).
    alpha_acc:
        For out-degree-0 vertices (the terminal and dead ends, which have no
        ``ᾱ``): the union of every α received — the α side of the stopping
        predicate.
    frozen_union:
        Cache of ``label ∪ α_1 ∪ … ∪ α_{d-1}`` (everything except the last
        port), fixed after the first message.
    coverage:
        Cache of ``frozen_union ∪ α_d`` — every point this vertex has ever
        routed; incoming α points already in it are cycle witnesses.
    got_broadcast / payload:
        Receipt of the broadcast message ``m``.
    """

    __slots__ = (
        "virgin",
        "alphas",
        "beta",
        "label",
        "alpha_acc",
        "frozen_union",
        "coverage",
        "got_broadcast",
        "payload",
    )

    def __init__(self, out_degree: int) -> None:
        self.virgin = True
        self.alphas: List[IntervalUnion] = [EMPTY_UNION] * out_degree
        self.beta: IntervalUnion = EMPTY_UNION
        self.label: Optional[IntervalUnion] = None
        self.alpha_acc: IntervalUnion = EMPTY_UNION
        self.frozen_union: IntervalUnion = EMPTY_UNION
        self.coverage: IntervalUnion = EMPTY_UNION
        self.got_broadcast = False
        self.payload: Any = None

    def covered(self) -> IntervalUnion:
        """``α ∪ β`` as seen by this vertex (the stopping-predicate quantity
        for out-degree-0 vertices; diagnostic elsewhere)."""
        if self.alphas:
            return self.coverage.union(self.beta)
        return self.alpha_acc.union(self.beta)

    def clone(self) -> "GeneralState":
        """An independent copy sharing the immutable interval unions.

        Only ``alphas`` is ever mutated in place (last-port absorption);
        every :class:`IntervalUnion` is immutable, so a shallow list copy
        plus field copies is a full state fork — the cheap substitute for
        ``copy.deepcopy`` in schedule-tree branching.
        """
        clone = GeneralState.__new__(GeneralState)
        clone.virgin = self.virgin
        clone.alphas = list(self.alphas)
        clone.beta = self.beta
        clone.label = self.label
        clone.alpha_acc = self.alpha_acc
        clone.frozen_union = self.frozen_union
        clone.coverage = self.coverage
        clone.got_broadcast = self.got_broadcast
        clone.payload = self.payload
        return clone

    def __repr__(self) -> str:
        # Complete by design: the schedule-exploration harness uses reprs as
        # state fingerprints, so every behaviour-relevant field must appear.
        return (
            f"GeneralState(virgin={self.virgin}, alphas={self.alphas!r}, "
            f"beta={self.beta!r}, label={self.label!r}, "
            f"alpha_acc={self.alpha_acc!r}, got={self.got_broadcast})"
        )


@PROTOCOLS.register()
class GeneralBroadcastProtocol(AnonymousProtocol[GeneralState, IntervalMessage]):
    """The Section 4 interval-union broadcast protocol.

    Parameters
    ----------
    broadcast_payload:
        The message ``m`` delivered to every vertex.
    payload_bits:
        Bits charged per transmission for ``m`` (default ``8·len(m)`` for
        ``str``/``bytes``, else 0).
    reserve_label:
        Internal switch used by the Section 5 labeling subclass: partition
        into ``d+1`` parts, retain slot 0 as the vertex label, and β-account
        the retained slice immediately.  Leave ``False`` for plain broadcast.
    partition_rule:
        ``"repaired"`` (default) uses the canonical partition with the
        single-component erratum repaired (every part non-empty); see
        :func:`repro.core.intervals.canonical_partition`.  ``"literal"`` uses
        the rule exactly as printed in Section 4, which demonstrably breaks
        delivery and the termination "iff" — kept for the erratum
        experiments only.
    """

    name = "general-broadcast"

    def __init__(
        self,
        broadcast_payload: Any = None,
        payload_bits: Optional[int] = None,
        *,
        reserve_label: bool = False,
        partition_rule: str = "repaired",
    ) -> None:
        self.broadcast_payload = broadcast_payload
        self.payload_bits = payload_bit_size(broadcast_payload, payload_bits)
        self._reserve_label = reserve_label
        if partition_rule == "repaired":
            self._partition = canonical_partition
        elif partition_rule == "literal":
            self._partition = canonical_partition_literal
        else:
            raise ValueError("partition_rule must be 'repaired' or 'literal'")
        self.partition_rule = partition_rule

    # ------------------------------------------------------------------
    # AnonymousProtocol interface
    # ------------------------------------------------------------------

    def create_state(self, view: VertexView) -> GeneralState:
        return GeneralState(view.out_degree)

    def initial_emissions(self, view: VertexView) -> List[Emission]:
        """The root's σ₀: the whole unit interval, canonically partitioned.

        In the strict model the root has one out-edge and σ₀ = ([0,1), ∅).
        With ``reserve_label`` the root keeps slot 0 of a ``d+1`` partition as
        its own label and β-accounts it in the initial messages so the
        terminal's unit-coverage test still closes.
        """
        d = view.out_degree
        if self._reserve_label:
            parts = self._partition(UNIT_UNION, d + 1)
            root_label, port_parts = parts[0], parts[1:]
            beta0 = root_label
        else:
            port_parts = self._partition(UNIT_UNION, d)
            beta0 = EMPTY_UNION
        return [
            (port, IntervalMessage(alpha=part, beta=beta0, payload=self.broadcast_payload))
            for port, part in enumerate(port_parts)
            if not (part.is_empty() and beta0.is_empty())
        ]

    def on_receive(
        self, state: GeneralState, view: VertexView, in_port: int, message: IntervalMessage
    ) -> Tuple[GeneralState, List[Emission]]:
        state.got_broadcast = True
        state.payload = message.payload
        d = view.out_degree

        if d == 0:
            # Terminal or dead end: no ᾱ — accumulate for the stopping test.
            state.alpha_acc = state.alpha_acc.union(message.alpha)
            state.beta = state.beta.union(message.beta)
            if state.virgin and not message.alpha.is_empty():
                state.virgin = False
                if self._reserve_label and state.label is None:
                    # The terminal adopts its first non-empty α as its label
                    # (an extension hook; see labeling module docs).
                    # Retention at t removes nothing from the accounting
                    # since t forwards nothing.
                    state.label = message.alpha
            return state, []

        if state.virgin:
            if message.alpha.is_empty():
                # Second erratum repair (schedule robustness): a β-only
                # message must NOT consume the vertex's one-time canonical
                # partition — otherwise, under schedules where cycle
                # notifications overtake commodity, the vertex would waste
                # its partition on ∅ (no label in Section 5, and all later
                # commodity funnelled through the absorber port, breaking
                # the termination "iff" exactly as in the first erratum).
                # The vertex stays "virgin" until real commodity arrives and
                # meanwhile floods the β increment like any non-virgin
                # vertex.
                delta_beta = message.beta.difference(state.beta)
                state.beta = state.beta.union(message.beta)
                if delta_beta.is_empty():
                    return state, []
                emissions = [
                    (port, IntervalMessage(alpha=EMPTY_UNION, beta=delta_beta, payload=message.payload))
                    for port in range(d)
                ]
                return state, emissions
            return self._first_receipt(state, d, message)
        return self._subsequent_receipt(state, d, message)

    def _first_receipt(
        self, state: GeneralState, d: int, message: IntervalMessage
    ) -> Tuple[GeneralState, List[Emission]]:
        """The ``π = π₀`` branch: canonical partition, β pass-through.

        ``state.beta`` may already be non-empty if β-only floods arrived
        before the first commodity (see the virgin branch of
        :meth:`on_receive`), so the β increment is computed against it.
        """
        state.virgin = False
        if self._reserve_label:
            parts = self._partition(message.alpha, d + 1)
            state.label = parts[0]
            state.alphas = parts[1:]
            new_beta = state.beta.union(message.beta).union(parts[0])
        else:
            state.alphas = self._partition(message.alpha, d)
            new_beta = state.beta.union(message.beta)
        delta_beta = new_beta.difference(state.beta)
        state.frozen_union = _union_all(
            ([state.label] if state.label is not None else []) + state.alphas[:-1]
        )
        state.coverage = state.frozen_union.union(state.alphas[-1])
        state.beta = new_beta
        emissions = [
            (port, IntervalMessage(alpha=part, beta=delta_beta, payload=message.payload))
            for port, part in enumerate(state.alphas)
            if not (part.is_empty() and delta_beta.is_empty())
        ]
        return state, emissions

    def _subsequent_receipt(
        self, state: GeneralState, d: int, message: IntervalMessage
    ) -> Tuple[GeneralState, List[Emission]]:
        """The ``π ≠ π₀`` branch: last port absorbs, overlaps go to β."""
        alpha_in = message.alpha
        # Cycle witnesses: points of α' already routed by this vertex.
        overlap = alpha_in.intersection(state.coverage)
        # α''_d = (α' ∪ α_d) \ ⋃_{j<d} α_j ; the increment actually sent is
        # α''_d \ α_d = α' \ (everything already routed).
        delta_alpha_last = alpha_in.difference(state.coverage)
        new_beta = state.beta.union(message.beta).union(overlap)
        delta_beta = new_beta.difference(state.beta)

        if not delta_alpha_last.is_empty():
            new_last = state.alphas[-1].union(delta_alpha_last)
            state.alphas[-1] = new_last
            state.coverage = state.coverage.union(delta_alpha_last)
        state.beta = new_beta

        emissions: List[Emission] = []
        if not delta_beta.is_empty():
            for port in range(d - 1):
                emissions.append(
                    (port, IntervalMessage(alpha=EMPTY_UNION, beta=delta_beta, payload=message.payload))
                )
        if not (delta_alpha_last.is_empty() and delta_beta.is_empty()):
            emissions.append(
                (d - 1, IntervalMessage(alpha=delta_alpha_last, beta=delta_beta, payload=message.payload))
            )
        return state, emissions

    def is_terminated(self, state: GeneralState) -> bool:
        return state.covered().is_unit()

    def message_bits(self, message: IntervalMessage) -> int:
        return message.structure_bits() + self.payload_bits

    def output(self, state: GeneralState) -> Any:
        return state.payload

    def state_bits(self, state: GeneralState) -> int:
        total = union_cost(state.beta)
        for alpha in state.alphas:
            total += union_cost(alpha)
        total += union_cost(state.alpha_acc)
        if state.label is not None:
            total += union_cost(state.label)
        return total

    def clone_state(self, state: GeneralState) -> GeneralState:
        return state.clone()

    def clone_message(self, message: IntervalMessage) -> IntervalMessage:
        # Frozen dataclass over immutable unions; never mutated on receive.
        return message

    def compile_fastpath(self, compiled: Any) -> Optional[Any]:
        """Flat-state kernel for the fast-path engine (exact same semantics).

        Guarded by an exact type check: a subclass that overrides behaviour
        would silently diverge from the kernel, so unknown subclasses fall
        back to the reference loop (always correct).
        """
        if type(self) is not GeneralBroadcastProtocol:
            return None
        from .interval_kernel import IntervalKernel

        return IntervalKernel(
            self,
            compiled,
            reserve_label=self._reserve_label,
            root_plain=False,
            d0_plain=False,
        )


def _union_all(unions: List[IntervalUnion]) -> IntervalUnion:
    """Union of a list of interval-unions."""
    out = EMPTY_UNION
    for u in unions:
        out = out.union(u)
    return out
