"""Broadcasting over grounded trees (Section 3.1, Theorem 3.1).

A *grounded tree* is a directed graph in which every vertex has in-degree 1,
except the root ``s`` (in-degree 0) and the terminal ``t`` (which may have
several incoming edges and has out-degree 0).

The protocol broadcasts a payload ``m`` and terminates **iff** every vertex
is connected to ``t``.  Termination detection works by commodity-preserving
flow: the root injects a commodity of value 1; a vertex of out-degree ``d``
that receives commodity ``x`` forwards

* ``x · 2^(-⌈log₂ d⌉)``     on its first ``2d - 2^⌈log₂ d⌉`` out-ports, and
* ``x · 2^(-⌈log₂ d⌉ + 1)`` on the remaining ports,

which sums back to ``x`` exactly (the paper verifies
``α·2^(-⌈log d⌉) + (d-α)·2^(-⌈log d⌉+1) = 1`` for ``α = 2d - 2^⌈log d⌉``).
Because the injected value is 1 and every split is by a power of two, **every
commodity in flight is a power of two** and a message is just the exponent —
``O(log |E|)`` bits — which is what brings the total communication down from
the naive rule's ``O(|E|^{3/2})`` to the optimal ``O(|E| log |E|)``
(Theorem 3.2 proves the matching lower bound; the naive ``x/d`` rule is
implemented in :mod:`repro.baselines.naive_tree` for the ablation).

The terminal declares termination exactly when the sum of received commodity
equals 1.  If some vertex is not connected to ``t``, the commodity routed
into it can never reach ``t`` and the sum stays strictly below 1 forever.

Applicability note: the protocol is *defined* for grounded trees, where each
internal vertex receives exactly one message.  The implementation splits
every received token independently, which on a general DAG turns it into the
"eager" per-message variant whose message count explodes with path
multiplicity — exactly the behaviour ablation E10 demonstrates against the
aggregating DAG protocol of :mod:`repro.core.dag_broadcast`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .dyadic import DYADIC_ONE, DYADIC_ZERO, Dyadic
from .messages import TreeToken
from .model import AnonymousProtocol, Emission, VertexView
from ..api.registry import PROTOCOLS

__all__ = ["TreeState", "TreeBroadcastProtocol", "pow2_split_exponents"]


def pow2_split_exponents(out_degree: int) -> List[int]:
    """Per-port exponent increments of the paper's power-of-two split rule.

    For out-degree ``d``, returns a list ``incs`` of length ``d`` such that a
    vertex holding commodity ``2^-k`` sends ``2^-(k + incs[j])`` on out-port
    ``j``; the first ``2d - 2^⌈log₂ d⌉`` ports get increment ``⌈log₂ d⌉`` and
    the rest get ``⌈log₂ d⌉ - 1``.  The increments always satisfy
    ``sum(2^-inc) == 1``, i.e. the rule is commodity preserving.
    """
    if out_degree < 1:
        raise ValueError("split rule needs out-degree >= 1")
    ceil_log = (out_degree - 1).bit_length()  # ⌈log₂ d⌉ (0 for d = 1)
    small_count = 2 * out_degree - (1 << ceil_log)
    return [ceil_log] * small_count + [ceil_log - 1] * (out_degree - small_count)


@dataclass(frozen=True)
class TreeState:
    """Per-vertex state of the grounded-tree protocol.

    ``received_sum`` is the exact total commodity seen so far; at the
    terminal this is the quantity compared against 1.  ``payload`` is the
    broadcast message ``m`` once received (``got_broadcast`` distinguishes a
    genuinely-``None`` payload from "not yet received").
    """

    received_sum: Dyadic
    got_broadcast: bool = False
    payload: Any = None


@PROTOCOLS.register()
class TreeBroadcastProtocol(AnonymousProtocol[TreeState, TreeToken]):
    """The Section 3.1 broadcast protocol with power-of-two commodity splits.

    Parameters
    ----------
    broadcast_payload:
        The message ``m`` distributed to every vertex.
    payload_bits:
        Size of ``m`` in bits, charged on every transmission (the paper's
        ``|E|·|m|`` term).  Defaults to ``8·len(m)`` for ``str``/``bytes``
        payloads and 0 otherwise.
    """

    name = "tree-broadcast"

    def __init__(self, broadcast_payload: Any = None, payload_bits: Optional[int] = None) -> None:
        self.broadcast_payload = broadcast_payload
        if payload_bits is None:
            if isinstance(broadcast_payload, (str, bytes)):
                payload_bits = 8 * len(broadcast_payload)
            else:
                payload_bits = 0
        if payload_bits < 0:
            raise ValueError("payload_bits must be non-negative")
        self.payload_bits = payload_bits

    def create_state(self, view: VertexView) -> TreeState:
        return TreeState(received_sum=DYADIC_ZERO)

    def initial_emissions(self, view: VertexView) -> List[Emission]:
        # The root injects total commodity 1, split across its out-ports by
        # the same power-of-two rule (exactly 2^0 on its single edge in the
        # strict model; the rule generalises to multi-out-edge roots).
        token_for = pow2_split_exponents(view.out_degree)
        return [
            (port, TreeToken(exponent=inc, payload=self.broadcast_payload))
            for port, inc in enumerate(token_for)
        ]

    def on_receive(
        self, state: TreeState, view: VertexView, in_port: int, message: TreeToken
    ) -> Tuple[TreeState, List[Emission]]:
        new_state = TreeState(
            received_sum=state.received_sum + message.value,
            got_broadcast=True,
            payload=message.payload,
        )
        if view.out_degree == 0:
            # Terminal (or a dead-end vertex, where the commodity is lost —
            # which is precisely what prevents spurious termination).
            return new_state, []
        emissions: List[Emission] = [
            (port, TreeToken(exponent=message.exponent + inc, payload=message.payload))
            for port, inc in enumerate(pow2_split_exponents(view.out_degree))
        ]
        return new_state, emissions

    def is_terminated(self, state: TreeState) -> bool:
        return state.received_sum == DYADIC_ONE

    def message_bits(self, message: TreeToken) -> int:
        return message.structure_bits() + self.payload_bits

    def output(self, state: TreeState) -> Any:
        return state.payload

    def state_bits(self, state: TreeState) -> int:
        from .encoding import dyadic_cost

        return dyadic_cost(state.received_sum) + 1

    def clone_state(self, state: TreeState) -> TreeState:
        # Frozen dataclass, replaced (never mutated) on every transition.
        return state

    def clone_message(self, message: TreeToken) -> TreeToken:
        # Frozen dataclass; transitions never mutate received messages.
        return message

    def compile_fastpath(self, compiled: Any) -> Optional[Any]:
        """Flat dyadic-pair kernel (exact same semantics).

        Guarded by an exact type check: a behaviour-overriding subclass
        would silently diverge from the kernel, so unknown subclasses fall
        back to the reference loop (always correct).
        """
        if type(self) is not TreeBroadcastProtocol:
            return None
        from .flat_kernel import TreeBroadcastKernel

        return TreeBroadcastKernel(self, compiled)

    def compile_batch(self, compiled: Any) -> Optional[Any]:
        """Structure-of-arrays multi-run kernel over the enumerated
        order-independent message multiset (``None`` on shapes the
        enumeration can't express — see
        :class:`~repro.core.batch_kernel.BatchSplitKernel`)."""
        if type(self) is not TreeBroadcastProtocol:
            return None
        from .batch_kernel import BatchSplitKernel

        return BatchSplitKernel.build(self, compiled)
