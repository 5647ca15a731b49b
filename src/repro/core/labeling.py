"""Unique label assignment on general graphs (Section 5, Theorem 5.1).

A "slight variation" of the general broadcast protocol: on its first message
a vertex of out-degree ``d`` canonically partitions the incoming commodity
into ``d + 1`` parts instead of ``d``; the extra slot ``α₀`` is **retained as
the vertex's unique label**, and — so the terminal's unit-coverage test still
closes — the retained slice is immediately added to β (``β'' = β' ∪ α₀``)
and flooded like any other cycle information.  Everything else (last-port
absorption, overlap-to-β, β flooding, the ``α ∪ β = [0,1)`` stopping rule) is
inherited unchanged from :class:`~repro.core.general_broadcast.GeneralBroadcastProtocol`.

Why labels are unique: a point ``a ∈ [0,1)`` travels, on the α side, along a
single path; a vertex that retains an interval containing ``a`` removes it
from circulation forever (retained slices are never forwarded), so no two
vertices can retain overlapping intervals — disjoint non-empty intervals are
distinct labels.  Theorem 5.1 bounds each label by ``O(|V| log d_out)`` bits
(a label is a single interval whose endpoints were refined once per vertex
on the path from the root); Theorem 5.2 shows this is *tight*, an exponential
gap against the ``O(log |V|)`` achievable in undirected or strongly connected
anonymous networks — see :mod:`repro.lowerbounds.labels` and the baseline in
:mod:`repro.baselines.undirected_labeling`.

Endpoint labels: the paper leaves the root and terminal unlabeled (the
protocol's purpose is to label the anonymous *internal* vertices; ``s`` and
``t`` are already distinguished).  ``label_endpoints=True`` additionally has
the root retain a slice of ``[0,1)`` before injecting and the terminal adopt
the first α it receives; both preserve pairwise disjointness.  This mode is
an extension, marked as such in DESIGN.md.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .general_broadcast import GeneralBroadcastProtocol, GeneralState
from .intervals import IntervalUnion, union_cost
from .model import VertexView
from ..api.registry import PROTOCOLS

__all__ = ["LabelAssignmentProtocol", "extract_labels", "labels_pairwise_disjoint"]


@PROTOCOLS.register()
class LabelAssignmentProtocol(GeneralBroadcastProtocol):
    """The Section 5 unique-labeling protocol.

    Parameters
    ----------
    broadcast_payload / payload_bits:
        As in the broadcast protocol; label assignment subsumes broadcasting
        (the paper's protocol carries ``m`` too), so a payload may be
        attached.  The paper's headline complexity for labeling alone
        corresponds to ``payload_bits=0``.
    label_endpoints:
        Also assign labels to the root and terminal (extension; see module
        docs).  Default ``False`` — the paper's setting.
    """

    name = "label-assignment"

    def __init__(
        self,
        broadcast_payload: Any = None,
        payload_bits: Optional[int] = None,
        *,
        label_endpoints: bool = False,
        partition_rule: str = "repaired",
    ) -> None:
        super().__init__(
            broadcast_payload,
            payload_bits,
            reserve_label=True,
            partition_rule=partition_rule,
        )
        self.label_endpoints = label_endpoints

    def initial_emissions(self, view: VertexView):
        if not self.label_endpoints:
            # Paper setting: the root injects the full unit interval and
            # takes no label — behave like the plain broadcast root.
            plain = GeneralBroadcastProtocol(
                self.broadcast_payload,
                self.payload_bits,
                reserve_label=False,
                partition_rule=self.partition_rule,
            )
            return plain.initial_emissions(view)
        return super().initial_emissions(view)

    def on_receive(self, state: GeneralState, view: VertexView, in_port: int, message):
        if view.out_degree == 0 and not self.label_endpoints:
            # Paper setting: the terminal takes no label; suppress the
            # adopt-first-alpha hook of the base class.
            state.got_broadcast = True
            state.payload = message.payload
            state.alpha_acc = state.alpha_acc.union(message.alpha)
            state.beta = state.beta.union(message.beta)
            state.virgin = False
            return state, []
        return super().on_receive(state, view, in_port, message)

    def compile_fastpath(self, compiled):
        """Kernel with the paper-setting root/terminal overrides applied."""
        if type(self) is not LabelAssignmentProtocol:
            return None
        from .interval_kernel import IntervalKernel

        plain = not self.label_endpoints
        return IntervalKernel(
            self,
            compiled,
            reserve_label=True,
            root_plain=plain,
            d0_plain=plain,
        )

    def observe(self, result, network) -> Dict[str, Any]:
        """Theorem 5.1's facts: every internal vertex holds a label, the
        labels are disjoint, the longest label's bits (0 when none is
        held), and no vertex holds points outside ``[0, 1)``."""
        from .invariants import coverage_within_unit, labels_disjoint_globally

        states = result.states
        labels = extract_labels(states)
        return {
            "all_labeled": all(v in labels for v in network.internal_vertices()),
            "labels_disjoint": labels_disjoint_globally(states),
            "max_label_bits": max(map(union_cost, labels.values()), default=0),
            "coverage_safe": coverage_within_unit(states),
        }


def extract_labels(states: Dict[int, GeneralState]) -> Dict[int, IntervalUnion]:
    """Collect the assigned labels from a finished run's vertex states.

    Returns a map from simulator vertex id to the retained label
    interval-union, for every vertex that holds one.  (White-box helper for
    experiments and tests; the protocol itself never aggregates labels — each
    anonymous vertex knows only its own.)
    """
    return {
        vertex: state.label
        for vertex, state in states.items()
        if state.label is not None and not state.label.is_empty()
    }


def labels_pairwise_disjoint(labels) -> bool:
    """True iff the given label interval-unions are pairwise disjoint.

    Disjointness is exactly what makes the labels *unique identifiers*
    (Theorem 5.1): disjoint non-empty subsets of ``[0, 1)`` are distinct.
    Runs in ``O(k log k)`` by sweeping all component intervals in endpoint
    order instead of intersecting all pairs.
    """
    component_intervals = []
    for owner, label in enumerate(labels):
        for interval in label:
            component_intervals.append((interval.lo, interval.hi))
    component_intervals.sort(key=lambda item: item[0])
    max_hi = None
    for lo, hi in component_intervals:
        # Components within one union are canonically disjoint, so any
        # overlap found by the sweep is necessarily cross-owner.
        if max_hi is not None and lo < max_hi:
            return False
        if max_hi is None or hi > max_hi:
            max_hi = hi
    return True
