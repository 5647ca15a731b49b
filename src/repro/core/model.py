"""The paper's formal protocol model.

Section 2 defines an *anonymous protocol* as a tuple
``(Π, Σ, π₀, σ₀, f, g, S)``:

* a state space ``Π`` with initial state ``π₀``,
* a message space ``Σ`` with initial message ``σ₀`` sent on the root's
  outgoing edge,
* a state function ``f : Π × Σ × ℕ → Π`` — the new state of a vertex that
  receives message ``σ`` on in-port ``i`` while in state ``π``,
* a message function ``g : Π × Σ × ℕ × ℕ → Σ ∪ {φ}`` — the message sent on
  out-port ``j`` in that same step (``φ`` = send nothing),
* a stopping predicate ``S : Π → {0, 1}`` evaluated at the terminal.

Anonymity is enforced *structurally* here: protocol callbacks receive a
:class:`VertexView` that exposes only the vertex's own in/out-degree — the
exact knowledge the model grants — and the in-port a message arrived on.
Vertex identities never cross this boundary.

Two interfaces are provided:

* :class:`AnonymousProtocol` — the practical interface the simulator runs
  (state creation, a combined receive step, the stopping predicate, and bit
  accounting).  All paper protocols implement this.
* :class:`FunctionalProtocol` — a literal ``(f, g, S)`` adapter for writing a
  protocol exactly in the paper's notation; useful for small examples and for
  the lower-bound harness, which needs to treat protocols as black boxes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Generic, List, Optional, Tuple, TypeVar

__all__ = [
    "VertexView",
    "Emission",
    "AnonymousProtocol",
    "FunctionalProtocol",
]

State = TypeVar("State")
Message = TypeVar("Message")

#: An outgoing transmission: ``(out_port, payload)``.
Emission = Tuple[int, Any]


@dataclass(frozen=True)
class VertexView:
    """Everything an anonymous vertex may know about itself.

    The model grants a vertex knowledge of its own degree and the ability to
    distinguish its ports — nothing else.  No identifier, no topology, no
    bound on ``|V|``.
    """

    in_degree: int
    out_degree: int

    def __post_init__(self) -> None:
        if self.in_degree < 0 or self.out_degree < 0:
            raise ValueError("degrees must be non-negative")


class AnonymousProtocol(abc.ABC, Generic[State, Message]):
    """Executable form of an anonymous protocol.

    The simulator drives instances as follows: every vertex gets an initial
    state from :meth:`create_state`; the root's initial emissions are obtained
    from :meth:`initial_emissions`; each delivered message triggers
    :meth:`on_receive` (the combination of the paper's ``f`` and ``g``); and
    after every delivery to the terminal, :meth:`is_terminated` (the paper's
    ``S``) is evaluated on the terminal's state.

    Implementations may mutate and return the same state object — the
    simulator treats states as opaque.
    """

    #: Human-readable protocol name (used in reports).
    name: str = "anonymous-protocol"

    @abc.abstractmethod
    def create_state(self, view: VertexView) -> State:
        """The initial state ``π₀`` of a vertex with the given degrees."""

    @abc.abstractmethod
    def initial_emissions(self, view: VertexView) -> List[Emission]:
        """The root's initial transmissions (the paper's ``σ₀`` on out-port 0).

        The base model gives the root exactly one outgoing edge; protocols
        supporting the multi-out-edge extension may emit on several ports.
        """

    @abc.abstractmethod
    def on_receive(
        self, state: State, view: VertexView, in_port: int, message: Message
    ) -> Tuple[State, List[Emission]]:
        """Process one delivery: the paper's ``π' = f(π, σ, i)`` plus all
        ``g(π, σ, i, j)`` emissions (``φ`` entries simply omitted)."""

    @abc.abstractmethod
    def is_terminated(self, state: State) -> bool:
        """The stopping predicate ``S`` evaluated on the terminal's state."""

    @abc.abstractmethod
    def message_bits(self, message: Message) -> int:
        """Encoded size of a message in bits (used for all accounting)."""

    def output(self, state: State) -> Any:
        """The protocol output extracted from the terminal's final state.

        Defaults to the state itself (the paper takes the terminal's state as
        the output of the protocol).
        """
        return state

    def state_bits(self, state: State) -> int:
        """Approximate encoded size of a vertex state in bits (memory metric).

        Optional; protocols that do not care about the state-space metric may
        leave the default, which reports zero.
        """
        return 0

    def compile_fastpath(self, compiled: Any) -> Optional[Any]:
        """Optional accelerated kernel for the fast-path engine.

        ``compiled`` is a :class:`~repro.network.fastpath.CompiledNetwork`.
        A protocol may return a kernel object implementing the machine
        interface the fast-path engine drives (``initial_emissions``,
        ``deliver``, ``check_terminal``, ``finalize_states``, ``output``)
        over its own flat data structures; it must be *exactly*
        result-equivalent to running the protocol through
        :meth:`on_receive` — same emissions in the same port order, same
        bit accounting, same termination step.  Return ``None`` (the
        default) to run through the reference loop
        (:func:`~repro.network.simulator.run_protocol`), which is always
        correct.  Kernels are never consulted when tracing, state-bit
        tracking or a fault model is requested.

        Kernels may additionally implement ``snapshot()`` / ``restore()``
        over their flat state; the ∀-schedule explorer
        (:mod:`repro.lowerbounds.schedules`) uses that pair to branch
        without deep-copying object states.
        """
        return None

    def compile_batch(self, compiled: Any) -> Optional[Any]:
        """Optional structure-of-arrays kernel for the ``batch`` engine.

        ``compiled`` is a :class:`~repro.network.fastpath.CompiledNetwork`.
        A protocol may return a batch kernel (see
        :mod:`repro.core.batch_kernel`) whose
        ``run(streams, max_steps, capture=None, stop_at_termination=False)``
        executes K simultaneous runs of this topology — one per RNG
        stream — under the random scheduler's delivery order, with every
        per-run result *exactly* equal to a fastpath run of the same
        (spec, seed), including the early-stop semantics of
        ``stop_at_termination`` and the per-delivery edge-id ``capture``
        hook the differential tests use.  Return ``None`` (the default)
        and the batch engine falls back to per-spec fastpath execution,
        which is always correct — kernels whose exact tables can't
        express a particular compiled shape (e.g. cyclic graphs under
        the broadcast kernels) return ``None`` per shape for the same
        fallback.
        """
        return None

    def clone_state(self, state: State) -> State:
        """An independent copy of ``state`` for schedule-tree branching.

        The ∀-schedule explorer forks the configuration at every branch
        point; transitions may mutate states in place, so branches need
        independent copies.  The default is a full :func:`copy.deepcopy`
        (always correct).  Protocols with immutable states should return
        ``state`` unchanged; protocols with shallow mutable containers
        should copy just those containers — that turns exhaustive
        exploration from allocation-bound into pointer-copy-bound.
        """
        import copy

        return copy.deepcopy(state)

    def clone_message(self, message: Message) -> Message:
        """A delivery-safe copy of an in-flight ``message``.

        Sibling schedule-tree branches share the pending-message list, so
        a transition that mutates a received message would leak into other
        branches; the default deepcopy keeps arbitrary protocols safe.
        Every shipped message type is a frozen dataclass, so the paper
        protocols override this to return the message unchanged.
        """
        import copy

        return copy.deepcopy(message)


class FunctionalProtocol(AnonymousProtocol[Any, Any]):
    """Literal ``(Π, Σ, π₀, σ₀, f, g, S)`` protocol, as in the paper.

    Parameters mirror Section 2.  ``f(state, message, in_port)`` returns the
    new state; ``g(state, message, in_port, out_port)`` returns the message
    for ``out_port`` or ``None`` for the paper's ``φ``.  Note ``g`` receives
    the *pre-transition* state, exactly as in the paper's definition.

    ``initial_state`` may be a value or a callable taking a
    :class:`VertexView` (the paper's ``π₀`` formally depends on the degree,
    e.g. ``([0,0)^d, [0,0))`` in Section 4).
    """

    def __init__(
        self,
        *,
        initial_state: Any,
        initial_message: Any,
        state_fn: Callable[[Any, Any, int], Any],
        message_fn: Callable[[Any, Any, int, int], Optional[Any]],
        stopping_predicate: Callable[[Any], bool],
        message_bits_fn: Callable[[Any], int],
        name: str = "functional-protocol",
    ) -> None:
        self._initial_state = initial_state
        self._initial_message = initial_message
        self._f = state_fn
        self._g = message_fn
        self._s = stopping_predicate
        self._bits = message_bits_fn
        self.name = name

    def create_state(self, view: VertexView) -> Any:
        if callable(self._initial_state):
            return self._initial_state(view)
        return self._initial_state

    def initial_emissions(self, view: VertexView) -> List[Emission]:
        return [(port, self._initial_message) for port in range(view.out_degree)]

    def on_receive(
        self, state: Any, view: VertexView, in_port: int, message: Any
    ) -> Tuple[Any, List[Emission]]:
        emissions: List[Emission] = []
        for out_port in range(view.out_degree):
            out = self._g(state, message, in_port, out_port)
            if out is not None:
                emissions.append((out_port, out))
        new_state = self._f(state, message, in_port)
        return new_state, emissions

    def is_terminated(self, state: Any) -> bool:
        return bool(self._s(state))

    def message_bits(self, message: Any) -> int:
        return self._bits(message)
