"""Undirected-network baselines: the feedback the directed model lacks.

Section 6 attributes the paper's high costs — especially the
``Ω(|V| log d_out)`` labels versus ``O(log |V|)`` in undirected anonymous
networks — to *"the problem of termination, and the possible lack of
feedback due to the directionality of edges"*.  To make that comparison
concrete (experiment E12), this module implements the classical
feedback-based protocols on an undirected substrate:

* :class:`EchoBroadcastProtocol` — broadcast with acknowledgement (PIF,
  propagation of information with feedback): the initiator learns that every
  vertex received ``m`` after exactly ``2·|links|`` constant-size messages.
  This is the termination technique the paper notes *cannot* be used on
  directed non-strongly-connected graphs.
* :class:`DfsLabelingProtocol` — a single depth-first token that hands out
  the labels ``0, 1, 2, …`` in visit order; each label costs
  ``O(log |V|)`` bits, the undirected comparison point for Theorem 5.2's
  exponential gap.

The substrate is deliberately separate from :mod:`repro.network`: an
undirected link is a *pair* of half-duplex channels on which a vertex can
reply on the port it received from — a capability the directed model
structurally rules out, which is the entire point of the baseline.  The
runner mirrors the directed simulator's semantics (asynchronous, adversarial
delivery order via a seed) and metric accounting.
"""

from __future__ import annotations

import abc
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.encoding import unsigned_cost
from ..core.model import payload_bit_size
from ..network.graph import DirectedNetwork

__all__ = [
    "UndirectedNetwork",
    "UndirectedProtocol",
    "UndirectedRunResult",
    "run_undirected_protocol",
    "EchoBroadcastProtocol",
    "DfsLabelingProtocol",
]


class UndirectedNetwork:
    """An undirected multigraph with per-vertex port numbering.

    Vertex ``initiator`` plays the role the root plays in the directed
    model: the one distinguished vertex where the computation starts and
    where termination is detected (undirected anonymous protocols need an
    initiator for symmetry breaking, cf. the paper's references [4, 6]).
    """

    def __init__(self, num_vertices: int, links: Sequence[Tuple[int, int]], initiator: int = 0) -> None:
        if num_vertices < 1:
            raise ValueError("need at least one vertex")
        if not (0 <= initiator < num_vertices):
            raise ValueError("initiator out of range")
        self._n = num_vertices
        self._links = [(int(a), int(b)) for a, b in links]
        self.initiator = initiator
        self._ports: List[List[Tuple[int, int]]] = [[] for _ in range(num_vertices)]
        for lid, (a, b) in enumerate(self._links):
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise ValueError(f"link {lid} endpoint out of range")
            if a == b:
                raise ValueError("self-links are not supported")
            self._ports[a].append((b, lid))
            self._ports[b].append((a, lid))

    @classmethod
    def from_directed(cls, network: DirectedNetwork) -> "UndirectedNetwork":
        """The undirected shadow of a directed network (one link per
        unordered adjacent pair), with the root as initiator.  This is the
        fair comparison object for E12: same vertices, same adjacency,
        direction constraint removed."""
        seen: Set[Tuple[int, int]] = set()
        links: List[Tuple[int, int]] = []
        for tail, head in network.edges:
            if tail == head:
                continue
            key = (min(tail, head), max(tail, head))
            if key not in seen:
                seen.add(key)
                links.append(key)
        return cls(network.num_vertices, links, initiator=network.root)

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_links(self) -> int:
        """Number of undirected links."""
        return len(self._links)

    def degree(self, vertex: int) -> int:
        """Number of links at ``vertex``."""
        return len(self._ports[vertex])

    def neighbor(self, vertex: int, port: int) -> int:
        """The vertex at the far end of ``vertex``'s ``port``."""
        return self._ports[vertex][port][0]

    def peer_port(self, vertex: int, port: int) -> int:
        """The far end's port number for the same link."""
        other, lid = self._ports[vertex][port]
        for p, (back, other_lid) in enumerate(self._ports[other]):
            if other_lid == lid:
                return p
        raise AssertionError("inconsistent port tables")

    def is_connected(self) -> bool:
        """True iff the graph is connected (ignoring isolated = no)."""
        seen = {self.initiator}
        frontier = deque([self.initiator])
        while frontier:
            v = frontier.popleft()
            for other, _ in self._ports[v]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == self._n


@dataclass(frozen=True)
class UVertexView:
    """What an anonymous undirected vertex knows: degree and initiator-ness."""

    degree: int
    is_initiator: bool


class UndirectedProtocol(abc.ABC):
    """Protocol interface for the undirected substrate."""

    name = "undirected-protocol"

    @abc.abstractmethod
    def create_state(self, view: UVertexView) -> Any:
        """Initial state of a vertex."""

    @abc.abstractmethod
    def initial_emissions(self, state: Any, view: UVertexView) -> List[Tuple[int, Any]]:
        """The initiator's first transmissions (``(port, payload)`` pairs)."""

    @abc.abstractmethod
    def on_receive(
        self, state: Any, view: UVertexView, port: int, payload: Any
    ) -> Tuple[Any, List[Tuple[int, Any]]]:
        """Process one delivery; return new state and emissions."""

    @abc.abstractmethod
    def is_finished(self, initiator_state: Any) -> bool:
        """Termination predicate, evaluated at the initiator."""

    @abc.abstractmethod
    def message_bits(self, payload: Any) -> int:
        """Encoded payload size for accounting."""


@dataclass
class UndirectedRunResult:
    """Outcome of an undirected run (mirrors the directed RunResult)."""

    finished: bool
    total_messages: int
    total_bits: int
    max_message_bits: int
    states: Dict[int, Any]


def run_undirected_protocol(
    network: UndirectedNetwork,
    protocol: UndirectedProtocol,
    *,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> UndirectedRunResult:
    """Asynchronous execution on the undirected substrate.

    ``seed=None`` delivers FIFO; otherwise delivery order is uniformly
    random (the asynchronous adversary, as in the directed simulator).
    """
    if max_steps is None:
        max_steps = 64 + 32 * network.num_links * (network.num_vertices + 2)
    views = [
        UVertexView(degree=network.degree(v), is_initiator=(v == network.initiator))
        for v in range(network.num_vertices)
    ]
    states: Dict[int, Any] = {v: protocol.create_state(views[v]) for v in range(network.num_vertices)}
    rng = random.Random(seed) if seed is not None else None
    pending: deque = deque()
    bag: List[Tuple[int, int, Any]] = []

    total_messages = 0
    total_bits = 0
    max_message_bits = 0
    finished = False

    def emit(vertex: int, port: int, payload: Any) -> None:
        target = network.neighbor(vertex, port)
        target_port = network.peer_port(vertex, port)
        if rng is None:
            pending.append((target, target_port, payload))
        else:
            bag.append((target, target_port, payload))

    init = network.initiator
    for port, payload in protocol.initial_emissions(states[init], views[init]):
        emit(init, port, payload)

    steps = 0
    while (pending or bag) and steps < max_steps:
        steps += 1
        if rng is None:
            target, port, payload = pending.popleft()
        else:
            idx = rng.randrange(len(bag))
            bag[idx], bag[-1] = bag[-1], bag[idx]
            target, port, payload = bag.pop()
        bits = protocol.message_bits(payload)
        total_messages += 1
        total_bits += bits
        max_message_bits = max(max_message_bits, bits)
        states[target], emissions = protocol.on_receive(states[target], views[target], port, payload)
        for out_port, out_payload in emissions:
            emit(target, out_port, out_payload)
        if target == init and protocol.is_finished(states[init]):
            finished = True
    return UndirectedRunResult(
        finished=finished or protocol.is_finished(states[init]),
        total_messages=total_messages,
        total_bits=total_bits,
        max_message_bits=max_message_bits,
        states=states,
    )


# ----------------------------------------------------------------------
# Echo / PIF broadcast with acknowledgement
# ----------------------------------------------------------------------


@dataclass
class _EchoState:
    """PIF per-vertex state."""

    degree: int
    informed: bool = False
    parent_port: Optional[int] = None
    heard_ports: Set[int] = field(default_factory=set)
    acked: bool = False
    payload: Any = None


class EchoBroadcastProtocol(UndirectedProtocol):
    """Propagation of information with feedback (wave + echo).

    The initiator sends the wave on all ports.  A vertex adopts the first
    wave sender as parent, forwards the wave everywhere else, and sends its
    echo to the parent once it has heard (wave or echo) on every other port.
    The initiator finishes once it has heard on all ports — at which point
    every connected vertex provably holds ``m``.  Messages: exactly two per
    link (one each way); each is one tag bit plus ``|m|``.
    """

    name = "echo-broadcast"

    _WAVE = "wave"
    _ECHO = "echo"

    def __init__(self, broadcast_payload: Any = None, payload_bits: Optional[int] = None) -> None:
        self.broadcast_payload = broadcast_payload
        self.payload_bits = payload_bit_size(broadcast_payload, payload_bits)

    def create_state(self, view: UVertexView) -> _EchoState:
        return _EchoState(degree=view.degree, informed=view.is_initiator)

    def initial_emissions(self, state: _EchoState, view: UVertexView) -> List[Tuple[int, Any]]:
        state.payload = self.broadcast_payload
        return [(port, (self._WAVE, self.broadcast_payload)) for port in range(view.degree)]

    def on_receive(
        self, state: _EchoState, view: UVertexView, port: int, payload: Any
    ) -> Tuple[_EchoState, List[Tuple[int, Any]]]:
        kind, message = payload
        emissions: List[Tuple[int, Any]] = []
        state.heard_ports.add(port)
        if not state.informed:
            state.informed = True
            state.payload = message
            state.parent_port = port
            emissions.extend(
                (p, (self._WAVE, message)) for p in range(view.degree) if p != port
            )
        if (
            not view.is_initiator
            and not state.acked
            and state.parent_port is not None
            and len(state.heard_ports | {state.parent_port}) == view.degree
        ):
            state.acked = True
            emissions.append((state.parent_port, (self._ECHO, message)))
        return state, emissions

    def is_finished(self, initiator_state: _EchoState) -> bool:
        return initiator_state.informed and len(initiator_state.heard_ports) == initiator_state.degree

    def message_bits(self, payload: Any) -> int:
        return 1 + self.payload_bits


class DfsLabelingProtocol(UndirectedProtocol):
    """Single-token depth-first labeling with ``O(log |V|)``-bit labels.

    The token carries the next free label.  A vertex takes the current
    counter as its label on first visit and then forwards the token port by
    port; a token arriving at an already-visited vertex bounces straight
    back.  When the initiator has exhausted its ports the traversal is
    complete: every connected vertex holds a distinct label from
    ``0 … |V|-1``, each of ``⌈log₂ |V|⌉`` bits — the undirected comparison
    point for the paper's exponential gap (Theorem 5.2 / E12).
    """

    name = "dfs-labeling"

    _FWD = "fwd"
    _BACK = "back"

    def create_state(self, view: UVertexView) -> Dict[str, Any]:
        return {
            "label": 0 if view.is_initiator else None,
            "parent_port": None,
            "next_port": 0,
            "done": False,
        }

    def initial_emissions(self, state: Dict[str, Any], view: UVertexView) -> List[Tuple[int, Any]]:
        if view.degree == 0:
            state["done"] = True
            return []
        state["next_port"] = 1
        return [(0, (self._FWD, 1))]

    def on_receive(
        self, state: Dict[str, Any], view: UVertexView, port: int, payload: Any
    ) -> Tuple[Dict[str, Any], List[Tuple[int, Any]]]:
        kind, counter = payload
        if kind == self._FWD:
            if state["label"] is not None:
                # Already visited: bounce the token back unchanged.
                return state, [(port, (self._BACK, counter))]
            state["label"] = counter
            counter += 1
            state["parent_port"] = port
            return self._advance(state, view, counter, skip=port)
        # BACK: resume exploration from where we left off.
        return self._advance(state, view, counter, skip=state["parent_port"])

    def _advance(
        self, state: Dict[str, Any], view: UVertexView, counter: int, skip: Optional[int]
    ) -> Tuple[Dict[str, Any], List[Tuple[int, Any]]]:
        port = state["next_port"]
        while port < view.degree and port == skip:
            port += 1
        if port < view.degree:
            state["next_port"] = port + 1
            return state, [(port, (self._FWD, counter))]
        state["done"] = True
        if state["parent_port"] is not None:
            return state, [(state["parent_port"], (self._BACK, counter))]
        return state, []

    def is_finished(self, initiator_state: Dict[str, Any]) -> bool:
        return bool(initiator_state["done"])

    def message_bits(self, payload: Any) -> int:
        _, counter = payload
        return 1 + unsigned_cost(counter)
