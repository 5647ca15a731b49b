"""Plain flooding without termination detection (motivating baseline).

The paper's Section 1: broadcasting a message by propagation *"seems a
trivial task"* — the entire difficulty is that the protocol must *terminate
iff* all vertices received it.  This baseline is that trivial propagation:
each vertex forwards ``m`` on all out-ports the first time it hears it, and
that is all.  It delivers ``m`` to every reachable vertex with exactly one
message per edge — and the terminal can never soundly declare anything,
which the stopping predicate honestly encodes by being constant-false.

Experiments use it for the cost floor (the ``|E|·|m|`` term every broadcast
protocol pays) and to demonstrate, by contrast, what the commodity machinery
buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..core.model import AnonymousProtocol, Emission, VertexView, payload_bit_size
from ..api.registry import PROTOCOLS

__all__ = ["FloodToken", "FloodingProtocol"]


@dataclass(frozen=True)
class FloodToken:
    """Just the broadcast payload; no termination information at all."""

    payload: Any = None


@dataclass(frozen=True)
class FloodState:
    """Has the broadcast arrived yet?"""

    got_broadcast: bool = False
    payload: Any = None


@PROTOCOLS.register()
class FloodingProtocol(AnonymousProtocol[FloodState, FloodToken]):
    """Forward ``m`` once on every out-port; never terminate."""

    name = "flooding"

    def __init__(self, broadcast_payload: Any = None, payload_bits: Optional[int] = None) -> None:
        self.broadcast_payload = broadcast_payload
        self.payload_bits = payload_bit_size(broadcast_payload, payload_bits)

    def create_state(self, view: VertexView) -> FloodState:
        return FloodState()

    def initial_emissions(self, view: VertexView) -> List[Emission]:
        return [
            (port, FloodToken(payload=self.broadcast_payload))
            for port in range(view.out_degree)
        ]

    def on_receive(
        self, state: FloodState, view: VertexView, in_port: int, message: FloodToken
    ) -> Tuple[FloodState, List[Emission]]:
        emissions: List[Emission] = []
        if not state.got_broadcast:
            emissions = [
                (port, FloodToken(payload=message.payload))
                for port in range(view.out_degree)
            ]
        return FloodState(got_broadcast=True, payload=message.payload), emissions

    def is_terminated(self, state: FloodState) -> bool:
        # No sound stopping rule exists without termination information —
        # the point of the paper.  Honest answer: never.
        return False

    def message_bits(self, message: FloodToken) -> int:
        # One tag bit plus the payload.
        return 1 + self.payload_bits

    def output(self, state: FloodState) -> Any:
        return state.payload

    def clone_state(self, state: FloodState) -> FloodState:
        # Frozen dataclass, replaced (never mutated) on every transition.
        return state

    def clone_message(self, message: FloodToken) -> FloodToken:
        # Frozen dataclass; transitions never mutate received messages.
        return message

    def compile_fastpath(self, compiled: Any) -> Optional[Any]:
        """One-receipt-bit kernel with precompiled emission lists."""
        if type(self) is not FloodingProtocol:
            return None
        from ..core.flat_kernel import FloodingKernel

        return FloodingKernel(self, compiled)

    def compile_batch(self, compiled: Any) -> Optional[Any]:
        """Structure-of-arrays multi-run kernel (one got-bit per run × vertex)."""
        if type(self) is not FloodingProtocol:
            return None
        from ..core.batch_kernel import BatchFloodingKernel

        return BatchFloodingKernel(self, compiled)
