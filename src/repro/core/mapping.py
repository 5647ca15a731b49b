"""Topology mapping — the Section 6 programme, made concrete.

The paper's conclusion: *"By showing how to broadcast and assign labels on
such networks, we can transform anonymous networks to labeled networks and
even map the whole topology by flooding local information available to
nodes."*  It gives no protocol; this module supplies one, as an explicitly
marked extension (DESIGN.md §4/§5).

**Protocol.**  Run the Section 5 label-assignment protocol unchanged, and
piggyback on every message:

* the sender's identity (its label once assigned; the distinguished markers
  ``"s"``/``"t"`` for root and terminal, which the model already singles
  out) and the out-port the message leaves on,
* a monotonically growing set of *facts*: :class:`VertexFact` — "a vertex
  with label L has out-degree d" — and :class:`EdgeFact` — "out-port p of
  the vertex labeled L_tail is wired to in-port q of the vertex labeled
  L_head".

A vertex learns the tail of each of its in-edges from the first labeled
message on that in-port, records the corresponding :class:`EdgeFact` once it
knows its own label, and floods every fact it holds on all out-ports
whenever its fact set grows (fact growth alone triggers messages — without
this, a fact acquired after a vertex's last commodity change would be
stranded).

**Sound termination.**  The terminal declares the map complete when

1. the labeling protocol's own stopping predicate holds
   (``α ∪ β = [0, 1)``), and
2. the collected fact set is *closed*: starting from the root's
   :class:`VertexFact` and following recorded edges, every reached vertex
   has a known out-degree and all of its out-ports accounted for by edge
   facts.

Closure is sound because every vertex of the network is reachable from the
root (a standing model assumption): a closed fact set reached from the root
therefore covers the whole network, and each saturated out-degree certifies
that no edge is missing.  It is live because every edge eventually carries a
labeled message (the canonical-partition repair guarantees every out-port
non-empty commodity) and facts flood monotonically along paths to ``t``.

The reconstructed :class:`NetworkMap` is checked against the ground truth by
:meth:`~repro.network.graph.DirectedNetwork.same_topology_under` in the E11
experiment — 100% of runs must reconstruct an edge-multiset-isomorphic
topology, with out-port wiring exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .encoding import unsigned_cost
from .general_broadcast import GeneralState
from .intervals import EMPTY_UNION, IntervalUnion, union_cost
from .labeling import LabelAssignmentProtocol
from .messages import IntervalMessage
from .model import AnonymousProtocol, Emission, VertexView
from ..api.registry import PROTOCOLS

__all__ = [
    "ROOT_MARKER",
    "TERMINAL_MARKER",
    "VertexFact",
    "EdgeFact",
    "MappingMessage",
    "MappingState",
    "NetworkMap",
    "MappingProtocol",
]

#: Identity of the root in facts and maps (the model distinguishes ``s``).
ROOT_MARKER = "s"
#: Identity of the terminal in facts and maps (the model distinguishes ``t``).
TERMINAL_MARKER = "t"

#: A vertex identity: the root/terminal marker or an assigned label.
Identity = Union[str, IntervalUnion]


@dataclass(frozen=True)
class VertexFact:
    """Fact: the vertex with this identity has this out-degree."""

    label: Identity
    out_degree: int

    def __post_init__(self) -> None:
        cost = _identity_cost(self.label) + unsigned_cost(self.out_degree)
        object.__setattr__(self, "_bits", cost)

    def bits(self) -> int:
        """Encoded size used in message accounting (computed once)."""
        return self._bits


@dataclass(frozen=True)
class EdgeFact:
    """Fact: out-port ``tail_port`` of ``tail`` feeds in-port ``head_port``
    of ``head``."""

    tail: Identity
    tail_port: int
    head: Identity
    head_port: int

    def __post_init__(self) -> None:
        cost = (
            _identity_cost(self.tail)
            + _identity_cost(self.head)
            + unsigned_cost(self.tail_port)
            + unsigned_cost(self.head_port)
        )
        object.__setattr__(self, "_bits", cost)

    def bits(self) -> int:
        """Encoded size used in message accounting (computed once)."""
        return self._bits


#: Memo of :func:`_identity_cost`, keyed by the identity object's ``id``.
#: Each entry holds its identity, so the id cannot be reused while cached.
#: Facts pass one label object around a whole run, so an object key hits
#: without hashing the label's intervals (an equal label from an earlier
#: run would cost a full interval compare on every lookup).
_IDENTITY_COSTS: Dict[int, Tuple[Identity, int]] = {}
_IDENTITY_COSTS_MAX = 4096


def _identity_cost(identity: Identity) -> int:
    """Bit cost of an identity: 2 tag bits plus the label encoding."""
    if isinstance(identity, str):
        return 2
    entry = _IDENTITY_COSTS.get(id(identity))
    if entry is not None:
        return entry[1]
    if len(_IDENTITY_COSTS) >= _IDENTITY_COSTS_MAX:
        _IDENTITY_COSTS.clear()
    cost = 2 + union_cost(identity)
    _IDENTITY_COSTS[id(identity)] = (identity, cost)
    return cost


@dataclass(frozen=True)
class MappingMessage:
    """A labeling-protocol message with mapping piggyback."""

    alpha: IntervalUnion
    beta: IntervalUnion
    payload: Any
    sender: Optional[Identity]
    sender_port: int
    facts: FrozenSet

    def structure_bits(self) -> int:
        """Encoded size of everything except the broadcast payload."""
        total = union_cost(self.alpha) + union_cost(self.beta)
        total += unsigned_cost(self.sender_port)
        total += _identity_cost(self.sender) if self.sender is not None else 2
        for fact in self.facts:
            total += fact.bits()
        return total


class MappingState:
    """Wrapper state: the labeling state plus fact bookkeeping."""

    __slots__ = ("base", "facts", "in_info", "recorded_ports", "identity", "out_degree")

    def __init__(self, base: GeneralState, out_degree: int) -> None:
        self.base = base
        self.facts: Set = set()
        #: First labeled sender seen per in-port: port → (identity, tail_port).
        self.in_info: Dict[int, Tuple[Identity, int]] = {}
        #: In-ports whose EdgeFact has been recorded.
        self.recorded_ports: Set[int] = set()
        #: Own identity once known (terminal knows immediately; internal
        #: vertices learn it with their label).
        self.identity: Optional[Identity] = None
        self.out_degree = out_degree

    def __repr__(self) -> str:
        # Containers sorted, so the text is free of hash order: trace
        # digests and the schedule walker's state keys are built on it.
        return (
            f"MappingState(base={self.base!r}, facts={sorted(map(repr, self.facts))}, "
            f"in_info={sorted(self.in_info.items())}, "
            f"recorded_ports={sorted(self.recorded_ports)}, "
            f"identity={self.identity!r}, out_degree={self.out_degree})"
        )


@dataclass
class NetworkMap:
    """The terminal's output: a fully reconstructed topology.

    ``vertices`` maps each identity to its out-degree (the terminal has
    out-degree 0 by the model).  ``edges`` is the full port-level wiring.
    """

    vertices: Dict[Identity, int]
    edges: List[EdgeFact]

    def edge_multiset(self) -> Dict[Tuple[Identity, Identity], int]:
        """Multiset of (tail identity, head identity) pairs."""
        counts: Dict[Tuple[Identity, Identity], int] = {}
        for e in self.edges:
            key = (e.tail, e.head)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def to_network(self):
        """Materialise the map as a :class:`~repro.network.graph.DirectedNetwork`.

        Vertices are numbered deterministically (root first, terminal last,
        labeled vertices in label order); edges are emitted per tail in
        out-port order, so the result's **out-port structure is exact**.
        In-port numbering at multi-in-degree vertices may differ from the
        ground truth (the map records head ports, but a single edge list
        cannot always realise both port orders simultaneously); topology
        comparisons should use
        :meth:`~repro.network.graph.DirectedNetwork.same_topology_under`.

        Returns the network and the identity→vertex-id assignment.
        """
        from ..network.graph import DirectedNetwork

        def sort_key(identity: Identity):
            if identity == ROOT_MARKER:
                return (0, "")
            if identity == TERMINAL_MARKER:
                return (2, "")
            return (1, repr(identity))

        ordered = sorted(self.vertices, key=sort_key)
        ids = {identity: index for index, identity in enumerate(ordered)}
        edges = []
        for identity in ordered:
            port_map = {
                fact.tail_port: fact for fact in self.edges if fact.tail == identity
            }
            for port in range(self.vertices[identity]):
                fact = port_map[port]
                edges.append((ids[identity], ids[fact.head]))
        network = DirectedNetwork(
            len(ordered),
            edges,
            root=ids[ROOT_MARKER],
            terminal=ids[TERMINAL_MARKER],
            validate=False,
        )
        return network, ids

    def matches_network(self, network, vertex_identity: Dict[int, Identity]) -> bool:
        """True iff this map is exactly the ground-truth topology under the
        given vertex→identity correspondence (the ``mapping_exact`` observable)."""
        if len(vertex_identity) != network.num_vertices:
            return False
        if set(vertex_identity.values()) != set(self.vertices):
            return False
        for v in range(network.num_vertices):
            if self.vertices[vertex_identity[v]] != network.out_degree(v):
                return False
        truth: Dict[Tuple[Identity, Identity], int] = {}
        for tail, head in network.edges:
            key = (vertex_identity[tail], vertex_identity[head])
            truth[key] = truth.get(key, 0) + 1
        return truth == self.edge_multiset()


def _closure(facts: Set) -> Optional[NetworkMap]:
    """Check fact-set closure from the root; return the map if complete.

    Performs the BFS described in the module docs: every reached identity
    must have a :class:`VertexFact` and edge facts for *all* of its
    out-ports.  Returns ``None`` while any of that is missing.
    """
    out_degree: Dict[Identity, int] = {}
    out_edges: Dict[Identity, Dict[int, EdgeFact]] = {}
    for fact in facts:
        if isinstance(fact, VertexFact):
            out_degree[fact.label] = fact.out_degree
        else:
            out_edges.setdefault(fact.tail, {})[fact.tail_port] = fact

    if ROOT_MARKER not in out_degree:
        return None
    seen: Set[Identity] = {ROOT_MARKER}
    frontier: List[Identity] = [ROOT_MARKER]
    edges: List[EdgeFact] = []
    while frontier:
        ident = frontier.pop()
        if ident == TERMINAL_MARKER:
            continue
        if ident not in out_degree:
            return None
        ports = out_edges.get(ident, {})
        if len(ports) != out_degree[ident]:
            return None
        for port in range(out_degree[ident]):
            fact = ports.get(port)
            if fact is None:
                return None
            edges.append(fact)
            if fact.head not in seen:
                seen.add(fact.head)
                frontier.append(fact.head)
    vertices = {ident: out_degree.get(ident, 0) for ident in seen}
    return NetworkMap(vertices=vertices, edges=sorted(edges, key=repr))


@PROTOCOLS.register()
class MappingProtocol(AnonymousProtocol[MappingState, MappingMessage]):
    """Label assignment + fact flooding = verified topology extraction.

    Parameters mirror :class:`~repro.core.labeling.LabelAssignmentProtocol`;
    the underlying labeling protocol runs with the paper-default endpoint
    handling (root and terminal identified by their distinguished roles, not
    by interval labels).
    """

    name = "topology-mapping"

    def __init__(self, broadcast_payload: Any = None, payload_bits: Optional[int] = None) -> None:
        self._inner = LabelAssignmentProtocol(broadcast_payload, payload_bits)
        self.broadcast_payload = broadcast_payload
        self.payload_bits = self._inner.payload_bits

    # ------------------------------------------------------------------
    # AnonymousProtocol interface
    # ------------------------------------------------------------------

    def create_state(self, view: VertexView) -> MappingState:
        state = MappingState(self._inner.create_state(view), view.out_degree)
        if view.out_degree == 0:
            # Out-degree 0 plays the terminal's role in the model; dead ends
            # mis-identifying as "t" is harmless — their facts can never
            # reach the real terminal (no outgoing edges), and their
            # unreachable commodity already blocks termination.
            state.identity = TERMINAL_MARKER
        return state

    def initial_emissions(self, view: VertexView) -> List[Emission]:
        facts = frozenset({VertexFact(ROOT_MARKER, view.out_degree)})
        emissions: List[Emission] = []
        for port, message in self._inner.initial_emissions(view):
            emissions.append(
                (
                    port,
                    MappingMessage(
                        alpha=message.alpha,
                        beta=message.beta,
                        payload=message.payload,
                        sender=ROOT_MARKER,
                        sender_port=port,
                        facts=facts,
                    ),
                )
            )
        return emissions

    def on_receive(
        self, state: MappingState, view: VertexView, in_port: int, message: MappingMessage
    ) -> Tuple[MappingState, List[Emission]]:
        facts_before = len(state.facts)

        # 1. Run the underlying labeling transition.
        inner_msg = IntervalMessage(
            alpha=message.alpha, beta=message.beta, payload=message.payload
        )
        _, inner_emissions = self._inner.on_receive(state.base, view, in_port, inner_msg)

        # 2. Learn our own identity when the label arrives.
        if state.identity is None and state.base.label is not None:
            state.identity = state.base.label
            state.facts.add(VertexFact(state.identity, view.out_degree))

        # 3. Record the in-edge's tail (first labeled message per in-port).
        if message.sender is not None and in_port not in state.in_info:
            state.in_info[in_port] = (message.sender, message.sender_port)
        if state.identity is not None:
            for port, (tail, tail_port) in state.in_info.items():
                if port not in state.recorded_ports:
                    state.recorded_ports.add(port)
                    state.facts.add(
                        EdgeFact(tail=tail, tail_port=tail_port, head=state.identity, head_port=port)
                    )

        # 4. Adopt the sender's facts.
        state.facts.update(message.facts)

        # 5. Emit: wrap the labeling emissions; if the fact set grew, flood
        #    facts on the remaining ports too.
        facts_grew = len(state.facts) != facts_before
        snapshot = frozenset(state.facts)
        emissions: List[Emission] = []
        ports_covered = set()
        for port, inner_out in inner_emissions:
            ports_covered.add(port)
            emissions.append((port, self._wrap(inner_out, state, port, snapshot)))
        if facts_grew:
            for port in range(view.out_degree):
                if port not in ports_covered:
                    emissions.append(
                        (
                            port,
                            MappingMessage(
                                alpha=EMPTY_UNION,
                                beta=EMPTY_UNION,
                                payload=message.payload,
                                sender=state.identity,
                                sender_port=port,
                                facts=snapshot,
                            ),
                        )
                    )
        return state, emissions

    def _wrap(
        self, inner: IntervalMessage, state: MappingState, port: int, facts: FrozenSet
    ) -> MappingMessage:
        return MappingMessage(
            alpha=inner.alpha,
            beta=inner.beta,
            payload=inner.payload,
            sender=state.identity,
            sender_port=port,
            facts=facts,
        )

    def is_terminated(self, state: MappingState) -> bool:
        if not state.base.covered().is_unit():
            return False
        return _closure(state.facts) is not None

    def clone_message(self, message: MappingMessage) -> MappingMessage:
        # Frozen dataclass (identities and fact sets immutable).
        return message

    def clone_state(self, state: MappingState) -> MappingState:
        """Shallow-container copy: facts and identities are immutable."""
        clone = MappingState(state.base.clone(), state.out_degree)
        clone.facts = set(state.facts)
        clone.in_info = dict(state.in_info)
        clone.recorded_ports = set(state.recorded_ports)
        clone.identity = state.identity
        return clone

    def compile_fastpath(self, compiled: Any) -> Optional[Any]:
        """Flat fact-flooding kernel over the interval labeling kernel."""
        if type(self) is not MappingProtocol:
            return None
        from .mapping_kernel import MappingKernel

        return MappingKernel(self, compiled)

    def message_bits(self, message: MappingMessage) -> int:
        return message.structure_bits() + self.payload_bits

    def output(self, state: MappingState) -> Optional[NetworkMap]:
        """The reconstructed topology (``None`` before closure)."""
        return _closure(state.facts)

    def state_bits(self, state: MappingState) -> int:
        total = self._inner.state_bits(state.base)
        for fact in state.facts:
            total += fact.bits()
        return total

    def observe(self, result: Any, network: Any) -> Dict[str, Any]:
        """§6's fact: the terminal's map is exactly the network, with each
        internal vertex identified by its label."""
        exact = False
        if result.terminated and result.output is not None:
            states = result.states
            ident = {network.root: ROOT_MARKER, network.terminal: TERMINAL_MARKER}
            for v in network.internal_vertices():
                ident[v] = states[v].base.label
            exact = result.output.matches_network(network, ident)
        return {"mapping_exact": exact}
