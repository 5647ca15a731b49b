"""Tests for the guided (best-first / branch-and-bound) schedule search.

The load-bearing suite is the registry-driven differential one: on every
enumerated topology small enough to exhaust, the guided search must
reproduce the exhaustive DFS answers exactly — same outcome set, and an
incumbent at least as deep as any leaf the DFS saw (equal, since both
drain the tree).  Everything else (objectives, extraction, collision
injection) builds on that agreement.
"""

import pytest

from repro.core.general_broadcast import GeneralBroadcastProtocol
from repro.core.labeling import LabelAssignmentProtocol
from repro.core.tree_broadcast import TreeBroadcastProtocol
from repro.graphs.enumerate_graphs import all_grounded_trees, all_internal_wirings
from repro.lowerbounds.guided import (
    OBJECTIVES,
    SearchObjective,
    extract_schedule,
    get_objective,
    search_schedules,
)
from repro.lowerbounds.schedules import explore_all_schedules
from repro.network.graph import DirectedNetwork

#: Every snapshot-capable protocol the explorer supports, with the graph
#: families it is defined on.
SNAPSHOT_PROTOCOLS = [
    (TreeBroadcastProtocol, "trees"),
    (GeneralBroadcastProtocol, "all"),
    (LabelAssignmentProtocol, "all"),
]


def _small_topologies():
    """Every enumerated topology with <= 4 internal vertices that stays
    exhaustible (edge caps keep the densest wirings out, as in E14)."""
    cases = []
    for k in (1, 2, 3, 4):
        for net in all_grounded_trees(k):
            cases.append((net, "trees"))
    for net in all_internal_wirings(2):
        if net.num_edges <= 5:
            cases.append((net, "all"))
    return cases


class TestDifferential:
    """Guided search vs. exhaustive DFS on every enumerated topology."""

    def test_guided_agrees_with_exhaustive_everywhere(self):
        checked = 0
        for net, family in _small_topologies():
            for factory, habitat in SNAPSHOT_PROTOCOLS:
                if habitat == "trees" and family != "trees":
                    continue
                exhaustive = explore_all_schedules(
                    net, factory, max_steps_total=400_000
                )
                assert not exhaustive.truncated, net.to_dot()
                guided = search_schedules(
                    net, factory, objective="max-steps", max_nodes=400_000
                )
                assert not guided.truncated, net.to_dot()
                # Same reachable outcome set...
                assert guided.outcomes == exhaustive.outcomes, net.to_dot()
                # ...and the incumbent is >= any exhaustive leaf (equal,
                # since both drained the tree: it IS the global maximum).
                assert guided.best_depth >= exhaustive.max_depth, net.to_dot()
                assert guided.best_depth == exhaustive.max_depth, net.to_dot()
                checked += 1
        # 1+2+6+24 trees × 2 protocols (trees also run general/labeling)
        # plus the sparse wirings × 2 — make sure the loop really ran.
        assert checked > 60

    def test_kernel_and_object_modes_agree(self):
        for net, family in _small_topologies():
            if family != "all":
                continue
            for factory in (GeneralBroadcastProtocol, LabelAssignmentProtocol):
                obj = search_schedules(
                    net, factory, objective="max-steps", use_kernel=False
                )
                ker = search_schedules(
                    net, factory, objective="max-steps", use_kernel=True
                )
                assert (obj.outcomes, obj.best_value, obj.best_depth, obj.nodes) == (
                    ker.outcomes,
                    ker.best_value,
                    ker.best_depth,
                    ker.nodes,
                ), net.to_dot()
                assert obj.best_path == ker.best_path, net.to_dot()
                assert obj.mode == "object" and ker.mode == "kernel"

    def test_collision_injection_keeps_search_exact(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        honest = search_schedules(net, GeneralBroadcastProtocol)
        colliding = search_schedules(
            net, GeneralBroadcastProtocol, digest=lambda key: 0
        )
        assert (honest.outcomes, honest.best_depth, honest.nodes) == (
            colliding.outcomes,
            colliding.best_depth,
            colliding.nodes,
        )
        assert colliding.table["collisions"] > 0


class TestObjectives:
    def test_registry_contents(self):
        for name in ("max-steps", "max-bits", "reach-termination", "reach-quiescence"):
            assert name in OBJECTIVES
            assert get_objective(name).name == name
        with pytest.raises(KeyError):
            get_objective("no-such-objective")

    def test_max_bits_maximizes_bits(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        by_steps = search_schedules(net, GeneralBroadcastProtocol, objective="max-steps")
        by_bits = search_schedules(net, GeneralBroadcastProtocol, objective="max-bits")
        assert by_bits.best_value == by_bits.best_bits
        assert by_bits.best_bits >= by_steps.best_bits

    def test_reach_termination_finds_a_witness_and_stops_early(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        full = search_schedules(net, GeneralBroadcastProtocol, objective="max-steps")
        witness = search_schedules(
            net, GeneralBroadcastProtocol, objective="reach-termination"
        )
        assert witness.best_outcome == "terminated"
        # Satisfaction short-circuits: no need to drain the tree.
        assert witness.nodes <= full.nodes

    def test_reach_quiescence_on_a_dead_end(self):
        net = DirectedNetwork(
            5, [(0, 2), (2, 3), (2, 1)], root=0, terminal=1, validate=False
        )
        result = search_schedules(
            net, GeneralBroadcastProtocol, objective="reach-quiescence"
        )
        assert result.best_outcome == "quiescent"

    def test_custom_objective_registration(self):
        from repro.lowerbounds.guided import register_objective

        custom = SearchObjective(
            name="test-min-steps",
            description="shortest terminating execution (test only)",
            leaf_value=lambda depth, bits, outcome: (
                -depth if outcome == "terminated" else float("-inf")
            ),
            priority=lambda depth, bits, pending: -depth,
            rank=lambda depth, bits: 0,
        )
        register_objective(custom)
        try:
            net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 1)], root=0, terminal=1)
            result = search_schedules(net, TreeBroadcastProtocol, objective=custom.name)
            assert result.best_outcome == "terminated"
        finally:
            del OBJECTIVES[custom.name]


class TestTruncationAndIncumbents:
    def test_truncated_search_still_carries_an_incumbent(self):
        # The greedy dive guarantees a complete execution early even when
        # the budget is far too small to drain the space.
        net = DirectedNetwork(
            4, [(0, 2), (2, 3), (2, 3), (3, 1), (3, 1)], root=0, terminal=1
        )
        result = search_schedules(
            net, GeneralBroadcastProtocol, objective="max-steps", max_nodes=40
        )
        assert result.truncated
        assert result.best_path is not None
        assert result.best_depth > 0


class TestExtraction:
    def test_extracted_schedule_matches_search_leaf(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        result = search_schedules(net, GeneralBroadcastProtocol, objective="max-steps")
        extracted = extract_schedule(
            net, GeneralBroadcastProtocol, result.best_path
        )
        assert extracted.steps == result.best_depth
        assert extracted.total_bits == result.best_bits
        assert extracted.outcome == result.best_outcome
        assert len(extracted.deliveries) == extracted.steps

    def test_extraction_rejects_bad_paths(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 1)], root=0, terminal=1)
        with pytest.raises(ValueError):
            extract_schedule(net, TreeBroadcastProtocol, (99,))
        result = search_schedules(net, TreeBroadcastProtocol)
        with pytest.raises(ValueError):
            # A strict prefix of a leaf path does not end at a leaf.
            extract_schedule(net, TreeBroadcastProtocol, result.best_path[:-1])
