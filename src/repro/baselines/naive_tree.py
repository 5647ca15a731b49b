"""The naive ``x/d`` grounded-tree protocol (ablation E9).

Section 3.1: *"A naive implementation of this protocol results in total
communication complexity bounded by ``O(|E|^{3/2}) + |E||m|``"* — the naive
rule sends ``x/d`` on each of the ``d`` out-ports, so transmitted values are
products of arbitrary ``1/d`` factors: general rationals whose encodings
grow much faster than the power-of-two rule's exponents.  The paper replaces
it with the power-of-two split to reach the optimal ``O(|E| log |E|)``.

This module implements the naive rule exactly (with
:class:`fractions.Fraction` commodity, kept exact) so the ablation can
measure both protocols on the same grounded trees and exhibit the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Tuple

from ..core.encoding import signed_cost, unsigned_cost
from ..core.model import AnonymousProtocol, Emission, VertexView, payload_bit_size
from ..api.registry import PROTOCOLS

__all__ = ["RationalToken", "NaiveTreeBroadcastProtocol"]


@dataclass(frozen=True)
class RationalToken:
    """Termination information of the naive rule: an exact rational."""

    value: Fraction
    payload: Any = None

    def structure_bits(self) -> int:
        """Encoded size: numerator and denominator, self-delimiting."""
        return signed_cost(self.value.numerator) + unsigned_cost(self.value.denominator)

    def __repr__(self) -> str:
        return f"RationalToken({self.value})"


@dataclass(frozen=True)
class NaiveTreeState:
    """Accumulated rational commodity plus broadcast receipt."""

    received_sum: Fraction
    got_broadcast: bool = False
    payload: Any = None


@PROTOCOLS.register()
class NaiveTreeBroadcastProtocol(AnonymousProtocol[NaiveTreeState, RationalToken]):
    """Grounded-tree broadcast with the naive even split ``x/d``.

    Semantics are identical to
    :class:`~repro.core.tree_broadcast.TreeBroadcastProtocol` except for the
    split rule; the terminal still declares termination exactly when its
    received sum equals 1 (exact rational arithmetic).
    """

    name = "naive-tree-broadcast"

    def __init__(self, broadcast_payload: Any = None, payload_bits: Optional[int] = None) -> None:
        self.broadcast_payload = broadcast_payload
        self.payload_bits = payload_bit_size(broadcast_payload, payload_bits)

    def create_state(self, view: VertexView) -> NaiveTreeState:
        return NaiveTreeState(received_sum=Fraction(0))

    def initial_emissions(self, view: VertexView) -> List[Emission]:
        share = Fraction(1, view.out_degree)
        return [
            (port, RationalToken(value=share, payload=self.broadcast_payload))
            for port in range(view.out_degree)
        ]

    def on_receive(
        self, state: NaiveTreeState, view: VertexView, in_port: int, message: RationalToken
    ) -> Tuple[NaiveTreeState, List[Emission]]:
        new_state = NaiveTreeState(
            received_sum=state.received_sum + message.value,
            got_broadcast=True,
            payload=message.payload,
        )
        if view.out_degree == 0:
            return new_state, []
        share = message.value / view.out_degree
        emissions = [
            (port, RationalToken(value=share, payload=message.payload))
            for port in range(view.out_degree)
        ]
        return new_state, emissions

    def is_terminated(self, state: NaiveTreeState) -> bool:
        return state.received_sum == 1

    def message_bits(self, message: RationalToken) -> int:
        return message.structure_bits() + self.payload_bits

    def output(self, state: NaiveTreeState) -> Any:
        return state.payload

    def clone_state(self, state: NaiveTreeState) -> NaiveTreeState:
        # Frozen dataclass, replaced (never mutated) on every transition.
        return state

    def clone_message(self, message: RationalToken) -> RationalToken:
        # Frozen dataclass; transitions never mutate received messages.
        return message

    def compile_fastpath(self, compiled: Any) -> Optional[Any]:
        """Reduced ``(num, den)`` rational kernel (exact same semantics)."""
        if type(self) is not NaiveTreeBroadcastProtocol:
            return None
        from ..core.flat_kernel import NaiveTreeKernel

        return NaiveTreeKernel(self, compiled)

    def compile_batch(self, compiled: Any) -> Optional[Any]:
        """Structure-of-arrays multi-run kernel: the rational share
        arithmetic happens once at compile time inside the enumeration
        (see :class:`~repro.core.batch_kernel.BatchSplitKernel`), so the
        per-step loop never touches a :class:`~fractions.Fraction`."""
        if type(self) is not NaiveTreeBroadcastProtocol:
            return None
        from ..core.batch_kernel import BatchSplitKernel

        return BatchSplitKernel.build(self, compiled)
