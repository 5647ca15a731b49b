"""Structural predicates and linear-cut machinery.

The paper's theorems quantify over graph classes (grounded trees, DAGs,
general digraphs) and, for the lower bounds, over *linear cuts*
(Definition 3.4): partitions ``V = V₁ ∪ V₂`` such that no vertex of ``V₁`` is
a descendant of a vertex of ``V₂``.  This module provides the class
predicates used to validate generator output and the cut enumeration used by
the Lemma 3.5 / Theorem 3.6 harness.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from ..network.graph import DirectedNetwork

__all__ = [
    "is_grounded_tree",
    "is_dag",
    "is_linear_cut",
    "linear_cuts",
    "cut_edges",
    "classify",
    "longest_path_length",
]


def is_grounded_tree(network: DirectedNetwork) -> bool:
    """True iff the network is a *grounded tree* (Section 1.1).

    Every vertex has in-degree 1, except the root ``s`` (in-degree 0) and the
    terminal ``t`` (any in-degree); the terminal has out-degree 0; and the
    graph is acyclic (which, given the in-degree condition, follows from
    reachability from ``s`` but is checked explicitly for robustness).
    """
    if network.in_degree(network.root) != 0:
        return False
    if network.out_degree(network.terminal) != 0:
        return False
    for v in network.internal_vertices():
        if network.in_degree(v) != 1:
            return False
    return network.is_acyclic()


def is_dag(network: DirectedNetwork) -> bool:
    """True iff the network has no directed cycle."""
    return network.is_acyclic()


def classify(network: DirectedNetwork) -> str:
    """``"grounded-tree"``, ``"dag"`` or ``"general"`` — the paper's three
    regimes, in increasing protocol strength required."""
    if is_grounded_tree(network):
        return "grounded-tree"
    if is_dag(network):
        return "dag"
    return "general"


def longest_path_length(network: DirectedNetwork) -> int:
    """Longest directed path (in edges) from the root, on acyclic networks.

    This is the round-time yardstick: the commodity protocols on
    trees/DAGs terminate after exactly as many rounds as the longest
    root-to-terminal chain of waits (experiment E13).

    Raises
    ------
    ValueError
        If the network contains a directed cycle (the quantity is then
        unbounded).
    """
    order = network.topological_order()
    if order is None:
        raise ValueError("longest path is defined on acyclic networks")
    dist = [-1] * network.num_vertices
    dist[network.root] = 0
    best = 0
    for v in order:
        if dist[v] < 0:
            continue
        for eid in network.out_edge_ids(v):
            head = network.edge_head(eid)
            if dist[v] + 1 > dist[head]:
                dist[head] = dist[v] + 1
                if dist[head] > best:
                    best = dist[head]
    return best


def is_linear_cut(network: DirectedNetwork, v1: Set[int]) -> bool:
    """Definition 3.4: ``(V₁, V \\ V₁)`` is a linear cut.

    Both sides non-empty and no ``v₁ ∈ V₁`` is a descendant of any
    ``v₂ ∈ V₂`` — equivalently, no edge and no path leads from ``V₂`` into
    ``V₁``.  For a DAG this is exactly: ``V₁`` is closed under taking
    ancestors.
    """
    n = network.num_vertices
    if not v1 or len(v1) >= n:
        return False
    v2 = set(range(n)) - v1
    # No path from V2 into V1 ⇔ no *edge* from V2 into V1 is insufficient in
    # general; but "v1 is a descendant of v2" means a path exists, and any
    # path from V2 to V1 contains an edge crossing V2 → V1.  So the edge test
    # is exact.
    for tail, head in network.edges:
        if tail in v2 and head in v1:
            return False
    return True


def cut_edges(network: DirectedNetwork, v1: Set[int]) -> List[int]:
    """Edge ids crossing a linear cut, tail in ``V₁`` and head outside."""
    return [
        eid
        for eid, (tail, head) in enumerate(network.edges)
        if tail in v1 and head not in v1
    ]


def linear_cuts(network: DirectedNetwork, *, max_cuts: int = 10_000) -> Iterator[Set[int]]:
    """Enumerate linear cuts of an acyclic network as their ``V₁`` sides.

    A set ``V₁ ∋ s``, ``V₁ ∌ t`` is the lower side of a linear cut iff it is
    *ancestor-closed* (contains every ancestor of each member).  We enumerate
    antichains implicitly by walking prefixes of a topological order and
    extending with optional incomparable vertices; to stay tractable on big
    graphs, enumeration stops after ``max_cuts`` cuts.

    Only meaningful for DAGs (the cut lower-bound machinery of Section 3
    applies to grounded trees and DAGs).
    """
    order = network.topological_order()
    if order is None:
        raise ValueError("linear cuts are defined on acyclic networks")
    n = network.num_vertices
    # Ancestor bitmask per vertex.
    ancestors = [0] * n
    for v in order:
        mask = 0
        for eid in network.in_edge_ids(v):
            tail = network.edge_tail(eid)
            mask |= ancestors[tail] | (1 << tail)
        ancestors[v] = mask

    root_bit = 1 << network.root
    terminal = network.terminal
    emitted = 0

    # Enumerate ancestor-closed sets by DFS over vertices in topological
    # order: each vertex is either in V1 (requires all its ancestors in) or
    # out (then none of its descendants can be in).
    def rec(idx: int, chosen: int, excluded: int) -> Iterator[Set[int]]:
        nonlocal emitted
        if emitted >= max_cuts:
            return
        if idx == len(order):
            if chosen & root_bit and not (chosen >> terminal) & 1 and chosen:
                emitted += 1
                yield {v for v in range(n) if (chosen >> v) & 1}
            return
        v = order[idx]
        vbit = 1 << v
        # Include v if all its ancestors are chosen and v is not barred.
        if v != terminal and not (excluded & vbit) and (ancestors[v] & ~chosen) == 0:
            yield from rec(idx + 1, chosen | vbit, excluded)
        # Exclude v: bar all descendants (they would have v as an ancestor,
        # which the inclusion test already handles, so no extra state needed).
        yield from rec(idx + 1, chosen, excluded | vbit)

    yield from rec(0, 0, 0)
