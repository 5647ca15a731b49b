"""Broadcasting over directed acyclic graphs (Section 3.3).

The paper extends the grounded-tree commodity protocol to DAGs by the
"straightforward modification ... in which the commodity is a scalar value",
analysed under the assumption (used for its lower bound, and adopted here)
that *a vertex sends nothing until it has heard a message on each of its
incoming edges*.  The protocol:

1. The root injects commodity 1 (with the broadcast payload ``m``).
2. A vertex of in-degree ``d_in`` buffers incoming commodity until all
   ``d_in`` in-edges have delivered; it then splits the accumulated sum
   across its out-ports with the power-of-two rule of Section 3.1 and sends
   one message per out-edge.
3. The terminal declares termination when its accumulated commodity equals 1.

Exactly one message crosses each edge, but the commodity values are now
*sums* of powers of two — general dyadic rationals whose representation can
grow to ``Θ(|E|)`` bits (Theorem 3.8 proves this is unavoidable for every
commodity-preserving protocol; :mod:`repro.lowerbounds.commodity` builds the
witness family).  Hence the paper's DAG bounds: required bandwidth
``O(|E|) + |m|`` and total communication ``O(|E|²) + |E|·|m|``.

On a graph with a directed cycle the waiting rule deadlocks: every vertex on
the cycle waits for a predecessor on the cycle.  The run then drains to
quiescence without termination — the correct outcome is produced for the
wrong reason, which is why general graphs need the interval machinery of
Section 4 (:mod:`repro.core.general_broadcast`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic
from .messages import ScalarToken
from .model import AnonymousProtocol, Emission, VertexView, payload_bit_size
from ..api.registry import PROTOCOLS
from .tree_broadcast import pow2_split_exponents

__all__ = ["DagState", "DagBroadcastProtocol"]


@dataclass(frozen=True)
class DagState:
    """Per-vertex state of the DAG protocol.

    ``heard`` counts in-edges already delivered; the vertex fires when
    ``heard == in_degree``.  ``acc`` is the exact accumulated commodity.
    """

    heard: int
    acc: Dyadic
    got_broadcast: bool = False
    payload: Any = None
    fired: bool = False


@PROTOCOLS.register()
class DagBroadcastProtocol(AnonymousProtocol[DagState, ScalarToken]):
    """Section 3.3 DAG broadcast: aggregate all in-edges, then split.

    Parameters
    ----------
    broadcast_payload:
        The message ``m``.
    payload_bits:
        Bits charged per transmission for ``m`` (default: ``8·len(m)`` for
        ``str``/``bytes``, else 0).
    """

    name = "dag-broadcast"

    def __init__(self, broadcast_payload: Any = None, payload_bits: Optional[int] = None) -> None:
        self.broadcast_payload = broadcast_payload
        self.payload_bits = payload_bit_size(broadcast_payload, payload_bits)

    def create_state(self, view: VertexView) -> DagState:
        return DagState(heard=0, acc=DYADIC_ZERO)

    def initial_emissions(self, view: VertexView) -> List[Emission]:
        return [
            (port, ScalarToken(value=Dyadic.pow2(-inc), payload=self.broadcast_payload))
            for port, inc in enumerate(pow2_split_exponents(view.out_degree))
        ]

    def on_receive(
        self, state: DagState, view: VertexView, in_port: int, message: ScalarToken
    ) -> Tuple[DagState, List[Emission]]:
        heard = state.heard + 1
        acc = state.acc + message.value
        fired = state.fired
        emissions: List[Emission] = []
        if heard == view.in_degree and view.out_degree > 0 and not fired:
            emissions = [
                (port, ScalarToken(value=acc.scaled_pow2(-inc), payload=message.payload))
                for port, inc in enumerate(pow2_split_exponents(view.out_degree))
            ]
            fired = True
        new_state = DagState(
            heard=heard,
            acc=acc,
            got_broadcast=True,
            payload=message.payload,
            fired=fired,
        )
        return new_state, emissions

    def is_terminated(self, state: DagState) -> bool:
        return state.acc == DYADIC_ONE

    def message_bits(self, message: ScalarToken) -> int:
        return message.structure_bits() + self.payload_bits

    def output(self, state: DagState) -> Any:
        return state.payload

    def state_bits(self, state: DagState) -> int:
        from .encoding import dyadic_cost, unsigned_cost

        return dyadic_cost(state.acc) + unsigned_cost(state.heard) + 2

    def clone_state(self, state: DagState) -> DagState:
        # Frozen dataclass, replaced (never mutated) on every transition.
        return state

    def clone_message(self, message: ScalarToken) -> ScalarToken:
        # Frozen dataclass; transitions never mutate received messages.
        return message

    def compile_fastpath(self, compiled: Any) -> Optional[Any]:
        """Flat aggregate-then-split kernel (exact same semantics)."""
        if type(self) is not DagBroadcastProtocol:
            return None
        from .flat_kernel import DagBroadcastKernel

        return DagBroadcastKernel(self, compiled)

    def compile_batch(self, compiled: Any) -> Optional[Any]:
        """Structure-of-arrays multi-run kernel over per-run heard
        counters (``None`` on cyclic shapes that would re-fire an edge —
        see :class:`~repro.core.batch_kernel.BatchDagKernel`)."""
        if type(self) is not DagBroadcastProtocol:
            return None
        from .batch_kernel import BatchDagKernel

        return BatchDagKernel.build(self, compiled)
