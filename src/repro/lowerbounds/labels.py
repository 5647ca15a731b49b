"""Theorem 5.2 machinery: the label-length lower bound via pruning.

The proof (Figure 6): on a full ``d``-ary tree of height ``h`` (all leaves
into ``t``), a unique-labeling protocol must hand out ``d^h`` distinct leaf
labels, so some leaf gets a label of ``Ω(h log d)`` bits.  Because a
vertex's label depends only on the messages along the path from the root —
in-degree 1 everywhere, no cycles — the tree can be *pruned* to a single
root-to-leaf path with all off-path edges re-aimed at ``t`` (ports
preserved) without changing the execution along the path.  The pruned graph
has only ``h + 3`` vertices yet still produces the ``Ω(h log d)``-bit label,
i.e. ``Ω(|V| log d_out)`` on that graph.

This harness verifies all three steps against the concrete Section 5
protocol:

* :func:`leaf_labels` — distinct labels for all ``d^h`` leaves,
* :func:`pruning_preserves_label` — the deep vertex's label is *identical*
  (exact interval equality) in the full and pruned runs,
* :func:`label_growth_on_pruned` — label bits grow ``Θ(h log d)`` while
  ``|V| = h + 3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.intervals import IntervalUnion, union_cost
from ..core.labeling import LabelAssignmentProtocol, extract_labels
from ..graphs.constructions import (
    full_tree_path_vertices,
    full_tree_with_terminal,
    pruned_tree,
)
from ..network.fastpath import run_protocol_fastpath

__all__ = [
    "leaf_labels",
    "pruning_preserves_label",
    "label_growth_on_pruned",
    "PrunedLabelRow",
]


def _run_labeling(network, protocol_factory):
    protocol = protocol_factory() if protocol_factory is not None else LabelAssignmentProtocol()
    result = run_protocol_fastpath(network, protocol)
    if not result.terminated:
        raise AssertionError("labeling failed to terminate")
    return result


def leaf_labels(
    degree: int, height: int, protocol_factory: Optional[Callable] = None
) -> Dict[int, IntervalUnion]:
    """Labels of all ``degree^height`` leaves of the full tree.

    The caller asserts pairwise distinctness (Theorem 5.1) and uses the
    maximal bit length as the ``Ω(h log d)`` witness.
    """
    network = full_tree_with_terminal(degree, height)
    result = _run_labeling(network, protocol_factory)
    labels = extract_labels(result.states)
    leaves = [
        v
        for v in network.internal_vertices()
        if network.out_degree(v) == 1
        and network.edge_head(network.out_edge_ids(v)[0]) == network.terminal
    ]
    return {leaf: labels[leaf] for leaf in leaves}


def pruning_preserves_label(
    degree: int,
    height: int,
    child_choices: Optional[Sequence[int]] = None,
    protocol_factory: Optional[Callable] = None,
) -> bool:
    """The pruning step: the chosen leaf's label is bit-identical in the
    full tree and the pruned path graph."""
    if child_choices is None:
        child_choices = [0] * height
    full = full_tree_with_terminal(degree, height)
    full_result = _run_labeling(full, protocol_factory)
    path = full_tree_path_vertices(degree, height, child_choices)
    full_leaf_label = full_result.states[path[-1]].label

    pruned = pruned_tree(degree, height, child_choices)
    pruned_result = _run_labeling(pruned, protocol_factory)
    # In the pruned graph the path vertices are w_0 .. w_h = 2 .. h+2.
    pruned_leaf_label = pruned_result.states[2 + height].label

    if full_leaf_label is None or pruned_leaf_label is None:
        return False
    return full_leaf_label == pruned_leaf_label


@dataclass(frozen=True)
class PrunedLabelRow:
    """One row of the E7 scaling measurement."""

    degree: int
    height: int
    num_vertices_pruned: int
    leaf_label_bits: int

    @property
    def bits_per_h_log_d(self) -> float:
        """``label bits / (h·log₂ d)`` — flat ⇔ the Θ(h log d) shape."""
        import math

        return self.leaf_label_bits / (self.height * math.log2(self.degree))


def label_growth_on_pruned(
    cases: Sequence[tuple], protocol_factory: Optional[Callable] = None
) -> List[PrunedLabelRow]:
    """Leaf-label size on pruned trees for ``(degree, height)`` cases.

    The pruned graph has ``h + 3`` vertices, so a label of ``Θ(h log d)``
    bits on it is a label of ``Θ(|V| log d_out)`` bits — the exponential gap
    against the ``O(log |V|)`` undirected baseline of E12.
    """
    rows: List[PrunedLabelRow] = []
    for degree, height in cases:
        network = pruned_tree(degree, height)
        result = _run_labeling(network, protocol_factory)
        label = result.states[2 + height].label
        if label is None:
            raise AssertionError("pruned leaf did not receive a label")
        rows.append(
            PrunedLabelRow(
                degree=degree,
                height=height,
                num_vertices_pruned=network.num_vertices,
                leaf_label_bits=union_cost(label),
            )
        )
    return rows
