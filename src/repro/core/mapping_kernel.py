"""Compiled fast-path kernel for the Section 6 topology-mapping protocol.

:class:`~repro.core.mapping.MappingProtocol` is the label-assignment
protocol plus fact piggybacking: every message additionally carries the
sender's identity, the out-port it left on, and a monotonically growing
frozenset of :class:`~repro.core.mapping.VertexFact` /
:class:`~repro.core.mapping.EdgeFact` records.  The reference loop pays
for that twice per delivery — interval-union algebra on
:class:`~repro.core.intervals.IntervalUnion` objects *and* dataclass
hashing/equality over whole fact sets.

This kernel composes the flat pieces instead:

* the labeling transition runs on an
  :class:`~repro.core.interval_kernel.IntervalKernel` (paper-setting
  root/terminal overrides, exactly as ``MappingProtocol``'s inner
  protocol);
* identities are ``"s"`` / ``"t"`` markers or a label's flat union, a
  tuple of int tuples (hashable, canonical — equality matches
  :class:`IntervalUnion` equality);
* facts are flat tagged tuples — ``("v", ident, out_degree)`` and
  ``("e", tail, tail_port, head, head_port)`` — with their encoded bit
  size computed once and memoised, and a per-vertex running total so a
  message's fact-set cost is one integer add instead of a sum over the
  set.

Fact-set closure (the mapping termination test) runs the same root-BFS as
:func:`repro.core.mapping._closure` over the flat facts; real
:class:`~repro.core.mapping.MappingState` objects, fact dataclasses and
the :class:`~repro.core.mapping.NetworkMap` output are materialised only
at the end of the run.  Byte-identical results are enforced by the
differential suite like every other kernel.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from .flat_kernel import FlatKernel, _ucost
from .interval_kernel import _EMPTY, _EMPTY_COST, IntervalKernel, _cost, _to_union

__all__ = ["MappingKernel"]

#: A flat identity: a distinguished marker or a flat label union.
_FlatIdentity = Union[str, Tuple[Tuple[int, int, int, int], ...]]


def _ident_cost(identity: Optional[_FlatIdentity]) -> int:
    """Bit cost of an identity: 2 tag bits plus the label encoding.

    ``None`` (an unidentified sender) costs the 2 tag bits alone — the
    same arithmetic as :func:`repro.core.mapping._identity_cost` plus the
    message-level ``sender is None`` case.
    """
    if identity is None or isinstance(identity, str):
        return 2
    return 2 + _cost(identity)


def _fact_cost(fact: Tuple) -> int:
    """Encoded size of a flat fact (mirrors ``VertexFact``/``EdgeFact``)."""
    if fact[0] == "v":
        return _ident_cost(fact[1]) + _ucost(fact[2])
    return (
        _ident_cost(fact[1])
        + _ident_cost(fact[3])
        + _ucost(fact[2])
        + _ucost(fact[4])
    )


def _closed(facts: FrozenSet) -> bool:
    """Flat-fact closure test: the root-BFS of ``mapping._closure``."""
    out_degree: Dict[_FlatIdentity, int] = {}
    out_edges: Dict[_FlatIdentity, Dict[int, Tuple]] = {}
    for fact in facts:
        if fact[0] == "v":
            out_degree[fact[1]] = fact[2]
        else:
            out_edges.setdefault(fact[1], {})[fact[2]] = fact
    if "s" not in out_degree:
        return False
    seen = {"s"}
    frontier: List[_FlatIdentity] = ["s"]
    while frontier:
        ident = frontier.pop()
        if ident == "t":
            continue
        if ident not in out_degree:
            return False
        ports = out_edges.get(ident, {})
        if len(ports) != out_degree[ident]:
            return False
        for port in range(out_degree[ident]):
            fact = ports.get(port)
            if fact is None:
                return False
            head = fact[3]
            if head not in seen:
                seen.add(head)
                frontier.append(head)
    return True


class _FactSet(frozenset):
    """A message's fact set whose repr is sorted, so free of hash order.

    The schedule walkers key in-flight messages by their repr; a plain
    frozenset would give equal messages different texts.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"_FactSet({sorted(map(repr, self))})"


class MappingKernel(FlatKernel):
    """Fast-path machine for :class:`MappingProtocol` semantics.

    Messages between kernel vertices are
    ``(alpha, beta, sender, sender_port, facts)`` tuples: the labeling
    token in flat-union form plus the mapping piggyback with flat
    identities and a frozenset of flat facts.
    """

    __slots__ = (
        "inner",
        "identity",
        "ident_cost",
        "facts",
        "facts_bits",
        "in_info",
        "recorded",
        "_fact_bits",
    )

    def __init__(self, protocol: Any, compiled: Any) -> None:
        super().__init__(protocol, compiled)
        # The labeling transition, on the paper-setting interval kernel —
        # exactly what MappingProtocol's inner LabelAssignmentProtocol
        # compiles to.
        self.inner: IntervalKernel = protocol._inner.compile_fastpath(compiled)
        n = compiled.num_vertices
        #: Own identity once known (out-degree-0 vertices play the
        #: terminal's role from the start, as in MappingState).
        self.identity: List[Optional[_FlatIdentity]] = [
            "t" if d == 0 else None for d in self.out_degree
        ]
        self.ident_cost: List[int] = [2] * n
        self.facts: List[set] = [set() for _ in range(n)]
        self.facts_bits: List[int] = [0] * n
        #: First labeled sender seen per in-port: port → (identity, tail_port).
        self.in_info: List[Dict[int, Tuple[_FlatIdentity, int]]] = [
            {} for _ in range(n)
        ]
        #: In-ports whose EdgeFact has been recorded.
        self.recorded: List[set] = [set() for _ in range(n)]
        #: Memoised flat-fact bit sizes (facts are shared across vertices).
        self._fact_bits: Dict[Tuple, int] = {}

    # ------------------------------------------------------------------
    # machine interface
    # ------------------------------------------------------------------

    def _bits_of(self, fact: Tuple) -> int:
        bits = self._fact_bits.get(fact)
        if bits is None:
            bits = self._fact_bits[fact] = _fact_cost(fact)
        return bits

    def _add_fact(self, vertex: int, fact: Tuple) -> None:
        facts = self.facts[vertex]
        if fact not in facts:
            facts.add(fact)
            self.facts_bits[vertex] += self._bits_of(fact)

    def initial_emissions(self, root: int) -> List[Tuple[int, Any, int]]:
        root_fact = ("v", "s", self.out_degree[root])
        facts = _FactSet({root_fact})
        fact_bits = self._bits_of(root_fact)
        emissions = []
        for port, token, inner_bits in self.inner.initial_emissions(root):
            alpha, beta = token
            emissions.append(
                (
                    port,
                    (alpha, beta, "s", port, facts),
                    inner_bits + _ucost(port) + 2 + fact_bits,
                )
            )
        return emissions

    def deliver(
        self, vertex: int, in_port: int, message: Tuple
    ) -> List[Tuple[int, Any, int]]:
        alpha, beta, sender, sender_port, msg_facts = message
        facts = self.facts[vertex]
        facts_before = len(facts)

        # 1. The underlying labeling transition.
        inner_emissions = self.inner.deliver(vertex, in_port, (alpha, beta))

        # 2. Learn our own identity when the label arrives.
        if self.identity[vertex] is None:
            label = self.inner.label[vertex]
            if label is not None:
                self.identity[vertex] = label
                self.ident_cost[vertex] = _ident_cost(label)
                self._add_fact(vertex, ("v", label, self.out_degree[vertex]))

        # 3. Record the in-edge's tail (first labeled message per in-port).
        in_info = self.in_info[vertex]
        if sender is not None and in_port not in in_info:
            in_info[in_port] = (sender, sender_port)
        ident = self.identity[vertex]
        if ident is not None:
            recorded = self.recorded[vertex]
            for port, (tail, tail_port) in in_info.items():
                if port not in recorded:
                    recorded.add(port)
                    self._add_fact(vertex, ("e", tail, tail_port, ident, port))

        # 4. Adopt the sender's facts.
        for fact in msg_facts:
            if fact not in facts:
                facts.add(fact)
                self.facts_bits[vertex] += self._bits_of(fact)

        # 5. Emit: wrap the labeling emissions; if the fact set grew, flood
        #    facts on the remaining ports too.
        facts_grew = len(facts) != facts_before
        snapshot_facts = _FactSet(facts)
        ident = self.identity[vertex]
        icost = self.ident_cost[vertex]
        fbits = self.facts_bits[vertex]
        emissions: List[Tuple[int, Any, int]] = []
        ports_covered = set()
        for port, token, inner_bits in inner_emissions:
            ports_covered.add(port)
            a, b = token
            emissions.append(
                (
                    port,
                    (a, b, ident, port, snapshot_facts),
                    inner_bits + _ucost(port) + icost + fbits,
                )
            )
        if facts_grew:
            pb = self.payload_bits
            base_bits = 2 * _EMPTY_COST + pb + icost + fbits
            for port in range(self.out_degree[vertex]):
                if port not in ports_covered:
                    emissions.append(
                        (
                            port,
                            (_EMPTY, _EMPTY, ident, port, snapshot_facts),
                            base_bits + _ucost(port),
                        )
                    )
        return emissions

    def check_terminal(self, terminal: int) -> bool:
        if not self.inner.terminal_done:
            return False
        return _closed(frozenset(self.facts[terminal]))

    # ------------------------------------------------------------------
    # snapshot/restore (schedule-explorer branching)
    # ------------------------------------------------------------------

    def snapshot(self) -> Tuple:
        return (
            self.inner.snapshot(),
            tuple(frozenset(f) for f in self.facts),
            tuple(self.facts_bits),
            tuple(tuple(sorted(d.items())) for d in self.in_info),
            tuple(frozenset(r) for r in self.recorded),
            tuple(self.identity),
            tuple(self.ident_cost),
        )

    def restore(self, snap: Tuple) -> None:
        self.inner.restore(snap[0])
        self.facts = [set(f) for f in snap[1]]
        self.facts_bits = list(snap[2])
        self.in_info = [dict(items) for items in snap[3]]
        self.recorded = [set(r) for r in snap[4]]
        self.identity = list(snap[5])
        self.ident_cost = list(snap[6])

    # ------------------------------------------------------------------
    # end-of-run materialisation
    # ------------------------------------------------------------------

    def _real_identity(
        self, ident: Optional[_FlatIdentity], cache: Dict[Tuple, Any]
    ) -> Any:
        from .mapping import ROOT_MARKER, TERMINAL_MARKER

        if ident is None:
            return None
        if ident == "s":
            return ROOT_MARKER
        if ident == "t":
            return TERMINAL_MARKER
        real = cache.get(ident)
        if real is None:
            real = cache[ident] = _to_union(ident)
        return real

    def _real_fact(self, fact: Tuple, cache: Dict[Tuple, Any]) -> Any:
        from .mapping import EdgeFact, VertexFact

        if fact[0] == "v":
            return VertexFact(self._real_identity(fact[1], cache), fact[2])
        return EdgeFact(
            tail=self._real_identity(fact[1], cache),
            tail_port=fact[2],
            head=self._real_identity(fact[3], cache),
            head_port=fact[4],
        )

    def finalize_states(self) -> Dict[int, Any]:
        from .mapping import MappingState

        base_states = self.inner.finalize_states()
        cache: Dict[Tuple, Any] = {}
        states: Dict[int, Any] = {}
        for vertex, d in enumerate(self.out_degree):
            state = MappingState(base_states[vertex], d)
            state.facts = {
                self._real_fact(fact, cache) for fact in self.facts[vertex]
            }
            state.in_info = {
                port: (self._real_identity(tail, cache), tail_port)
                for port, (tail, tail_port) in self.in_info[vertex].items()
            }
            state.recorded_ports = set(self.recorded[vertex])
            state.identity = self._real_identity(self.identity[vertex], cache)
            states[vertex] = state
        return states

    def output(self, terminal: int) -> Any:
        from .mapping import _closure

        cache: Dict[Tuple, Any] = {}
        return _closure(
            {self._real_fact(fact, cache) for fact in self.facts[terminal]}
        )
