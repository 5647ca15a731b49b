"""The paper's complexity bounds as executable formulas.

Each function returns the *bound expression* (without the hidden constant)
for a given graph's parameters; the analysis layer divides measured costs by
these expressions — a bound of the right shape makes the ratio flat (bounded
above and below by constants) as the family grows.  Keeping the formulas in
one place means every bench and every ``repro report`` row cites the same
expression as the paper's theorem.
"""

from __future__ import annotations

import math

from ..network.graph import DirectedNetwork

__all__ = [
    "tree_broadcast_total_bits_bound",
    "tree_broadcast_bandwidth_bound",
    "dag_broadcast_total_bits_bound",
    "dag_broadcast_bandwidth_bound",
    "general_broadcast_total_bits_bound",
    "general_broadcast_symbol_bits_bound",
    "label_length_bits_bound",
    "undirected_label_length_bound",
    "graph_parameters",
]


def _log2(x: float) -> float:
    """``log₂`` clamped below at 1 so bounds never vanish on tiny graphs."""
    return max(1.0, math.log2(max(2.0, x)))


def graph_parameters(network: DirectedNetwork) -> dict:
    """The parameter tuple every theorem is stated in: |V|, |E|, d_out."""
    return {
        "V": network.num_vertices,
        "E": network.num_edges,
        "d_out": network.max_out_degree(),
    }


def tree_broadcast_total_bits_bound(network: DirectedNetwork, payload_bits: int = 0) -> float:
    """Theorem 3.1: ``O(|E| log |E|) + |E|·|m|`` total communication."""
    e = network.num_edges
    return e * _log2(e) + e * payload_bits


def tree_broadcast_bandwidth_bound(network: DirectedNetwork, payload_bits: int = 0) -> float:
    """Theorem 3.1 / Section 1.1: ``O(log |E|) + |m|`` per-message bits."""
    return _log2(network.num_edges) + payload_bits


def dag_broadcast_total_bits_bound(network: DirectedNetwork, payload_bits: int = 0) -> float:
    """Section 3.3: ``O(|E|²) + |E|·|m|`` total communication on DAGs."""
    e = network.num_edges
    return float(e * e) + e * payload_bits


def dag_broadcast_bandwidth_bound(network: DirectedNetwork, payload_bits: int = 0) -> float:
    """Section 3.3 / Theorem 3.8: ``O(|E|) + |m|`` bits per message, tight
    for commodity-preserving protocols."""
    return float(network.num_edges) + payload_bits


def general_broadcast_total_bits_bound(network: DirectedNetwork, payload_bits: int = 0) -> float:
    """Theorem 4.2: ``O(|E|²·|V|·log d_out) + |E|·|m|``."""
    e = network.num_edges
    v = network.num_vertices
    return e * e * v * _log2(network.max_out_degree()) + e * payload_bits


def general_broadcast_symbol_bits_bound(network: DirectedNetwork, payload_bits: int = 0) -> float:
    """Theorem 4.3: ``O(|E|·|V|·log d_out) + |m|`` bits per symbol (and per
    edge in total, by the once-per-point carrying argument)."""
    return (
        network.num_edges * network.num_vertices * _log2(network.max_out_degree())
        + payload_bits
    )


def label_length_bits_bound(network: DirectedNetwork) -> float:
    """Theorems 5.1 / 5.2: ``Θ(|V| log d_out)`` bits per label."""
    return network.num_vertices * _log2(network.max_out_degree())


def undirected_label_length_bound(num_vertices: int) -> float:
    """The Section 6 comparison point: ``O(log |V|)`` label bits achievable in
    undirected (or strongly connected) anonymous networks."""
    return _log2(num_vertices)
