"""Tests for the schedule-space model checker and graph enumeration."""

import random

import pytest

from repro.api import PROTOCOLS, RunSpec, ensure_registered
from repro.core.general_broadcast import GeneralBroadcastProtocol
from repro.core.labeling import LabelAssignmentProtocol
from repro.core.mapping import MappingProtocol
from repro.core.tree_broadcast import TreeBroadcastProtocol
from repro.graphs.enumerate_graphs import all_grounded_trees, all_internal_wirings
from repro.graphs.properties import is_grounded_tree
from repro.lowerbounds import guided, schedules
from repro.lowerbounds.guided import search_schedules
from repro.lowerbounds.schedules import (
    TranspositionTable,
    _child_sig,
    _pending_sig,
    explore_all_schedules,
)
from repro.network.graph import DirectedNetwork

ensure_registered()


class TestEnumeration:
    def test_tree_counts(self):
        # k internal vertices: (k-1)! parent assignments × 2^(#non-leaf)
        assert len(list(all_grounded_trees(1))) == 1
        assert len(list(all_grounded_trees(2))) == 2
        assert len(list(all_grounded_trees(3))) == 6

    def test_trees_are_grounded_trees(self):
        for net in all_grounded_trees(3):
            assert is_grounded_tree(net)
            assert net.all_reachable_from_root()
            assert net.all_connected_to_terminal()

    def test_wirings_satisfy_model(self):
        nets = list(all_internal_wirings(2))
        assert len(nets) == 24
        for net in nets:
            assert net.in_degree(net.root) == 0
            assert net.out_degree(net.terminal) == 0
            assert net.all_reachable_from_root()
        # Both connected and disconnected cases occur — what the iff needs.
        assert any(net.all_connected_to_terminal() for net in nets)
        assert any(not net.all_connected_to_terminal() for net in nets)

    def test_wirings_limit(self):
        assert len(list(all_internal_wirings(2, limit=5))) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            list(all_grounded_trees(0))
        with pytest.raises(ValueError):
            list(all_internal_wirings(0))


class TestExploration:
    def test_single_path_single_schedule(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 1)], root=0, terminal=1)
        result = explore_all_schedules(net, TreeBroadcastProtocol)
        assert result.always_terminates
        assert result.executions == 1  # no concurrency, no branching

    def test_branching_counts_multiple_executions(self):
        # Two parallel chains → interleavings exist.
        net = DirectedNetwork(
            6, [(0, 2), (2, 3), (2, 4), (3, 1), (4, 1)], root=0, terminal=1
        )
        result = explore_all_schedules(net, TreeBroadcastProtocol)
        assert result.always_terminates
        assert result.executions >= 1
        assert result.steps > net.num_edges  # explored more than one branch

    def test_cycle_always_terminates(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        result = explore_all_schedules(net, GeneralBroadcastProtocol)
        assert result.always_terminates

    def test_dead_end_never_terminates_any_schedule(self):
        net = DirectedNetwork(
            5, [(0, 2), (2, 3), (2, 1)], root=0, terminal=1, validate=False
        )
        result = explore_all_schedules(net, GeneralBroadcastProtocol)
        assert result.never_terminates

    def test_labeling_all_schedules(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        result = explore_all_schedules(net, LabelAssignmentProtocol)
        assert result.always_terminates

    def test_truncation_reported(self):
        net = DirectedNetwork(
            4, [(0, 2), (2, 3), (2, 3), (3, 1), (3, 1)], root=0, terminal=1
        )
        result = explore_all_schedules(net, GeneralBroadcastProtocol, max_steps_total=3)
        assert result.truncated

    def test_truncated_walks_are_inconclusive(self):
        # Regression: a budget-truncated walk has not seen every schedule,
        # so neither ∀-verdict may be claimed — even when every *visited*
        # leaf terminated (this topology always terminates when drained).
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        full = explore_all_schedules(net, GeneralBroadcastProtocol)
        assert not full.truncated and full.always_terminates
        cut = explore_all_schedules(net, GeneralBroadcastProtocol, max_steps_total=3)
        assert cut.truncated
        assert not cut.always_terminates
        assert not cut.never_terminates

    def test_compiled_network_is_reused(self):
        from repro.network.fastpath import CompiledNetwork

        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        compiled = CompiledNetwork(net)
        fresh = explore_all_schedules(net, GeneralBroadcastProtocol)
        reused = explore_all_schedules(
            net, GeneralBroadcastProtocol, compiled=compiled
        )
        assert (fresh.outcomes, fresh.executions, fresh.steps) == (
            reused.outcomes,
            reused.executions,
            reused.steps,
        )

    def test_compiled_for_other_network_is_rejected(self):
        # A compiled= for a *different* topology must be ignored, not
        # silently explored — the walk would be over the wrong graph.
        from repro.network.fastpath import CompiledNetwork

        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        other = DirectedNetwork(3, [(0, 2), (2, 1)], root=0, terminal=1)
        result = explore_all_schedules(
            net, GeneralBroadcastProtocol, compiled=CompiledNetwork(other)
        )
        assert result.always_terminates
        assert result.steps > 2  # explored net's tree, not other's

    def test_invariant_hook(self):
        from repro.core.intervals import UNIT_UNION

        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)

        def coverage_bounded(states):
            for state in states.values():
                if not UNIT_UNION.contains_union(state.covered()):
                    return False
            return True

        result = explore_all_schedules(
            net, GeneralBroadcastProtocol, invariant=coverage_bounded
        )
        assert result.always_terminates

    def test_invariant_violation_raises(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 1)], root=0, terminal=1)
        with pytest.raises(AssertionError):
            explore_all_schedules(
                net, TreeBroadcastProtocol, invariant=lambda states: False
            )


class TestModeEquivalence:
    """Kernel-mode and object-mode walks report identical counts.

    The kernel walk (flat snapshot/restore) and the object walk
    (clone_state branching) must explore the same schedule tree with the
    same confluence collapsing — otherwise E14's numbers would depend on
    an implementation detail.
    """

    PROTOCOLS_UNDER_TEST = [
        TreeBroadcastProtocol,
        GeneralBroadcastProtocol,
        LabelAssignmentProtocol,
    ]

    def _assert_modes_agree(self, net, factory, max_steps=400_000):
        obj = explore_all_schedules(
            net, factory, max_steps_total=max_steps, use_kernel=False
        )
        ker = explore_all_schedules(
            net, factory, max_steps_total=max_steps, use_kernel=True
        )
        assert (obj.outcomes, obj.executions, obj.steps, obj.truncated) == (
            ker.outcomes,
            ker.executions,
            ker.steps,
            ker.truncated,
        ), net.to_dot()

    def test_modes_agree_on_grounded_trees(self):
        for net in all_grounded_trees(3):
            self._assert_modes_agree(net, TreeBroadcastProtocol)

    def test_modes_agree_on_wirings_for_interval_protocols(self):
        for net in all_internal_wirings(2):
            if net.num_edges > 5:
                continue
            self._assert_modes_agree(net, GeneralBroadcastProtocol)
            self._assert_modes_agree(net, LabelAssignmentProtocol)

    @pytest.mark.parametrize(
        "net",
        [net for net in all_internal_wirings(2) if net.num_edges <= 5],
        ids=lambda net: "-".join(f"{tail}{head}" for tail, head in net.edges),
    )
    def test_modes_agree_on_wirings_for_topology_mapping(self, net):
        # Both walkers key a mapping configuration, and every in-flight
        # message, by text free of hash and insertion order.
        self._assert_modes_agree(net, MappingProtocol)

    def test_modes_agree_under_truncation(self):
        net = DirectedNetwork(
            4, [(0, 2), (2, 3), (2, 3), (3, 1), (3, 1)], root=0, terminal=1
        )
        self._assert_modes_agree(net, GeneralBroadcastProtocol, max_steps=3)

    def test_kernel_mode_is_the_default_without_invariant(self):
        # use_kernel=True must not raise for a kernel-capable protocol —
        # i.e. the default path really engages the kernel.
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 1)], root=0, terminal=1)
        result = explore_all_schedules(net, GeneralBroadcastProtocol, use_kernel=True)
        assert result.always_terminates

    def test_invariant_forces_object_mode(self):
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 1)], root=0, terminal=1)
        with pytest.raises(ValueError):
            explore_all_schedules(
                net,
                GeneralBroadcastProtocol,
                invariant=lambda states: True,
                use_kernel=True,
            )

    def test_kernelless_protocol_falls_back_to_object_mode(self):
        class NoKernel(TreeBroadcastProtocol):
            name = "no-kernel-tree"

        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 1)], root=0, terminal=1)
        result = explore_all_schedules(net, NoKernel)
        assert result.always_terminates
        with pytest.raises(ValueError):
            explore_all_schedules(net, NoKernel, use_kernel=True)


class TestTranspositionTable:
    """The canonical-hash table with its exact-compare fallback."""

    def test_first_visit_is_new(self):
        table = TranspositionTable()
        assert table.visit(("a", 1))
        assert not table.visit(("a", 1))
        assert table.entries == 1
        assert table.hits == 1

    def test_distinct_keys_are_distinct(self):
        table = TranspositionTable()
        assert table.visit(("a", 1))
        assert table.visit(("a", 2))
        assert table.entries == 2

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
    def test_kernel_snapshots_hash_at_every_node(self, protocol):
        # Kernel snapshots are tuples all the way down (flat unions
        # included) and the default digest is plain ``hash``.  A kernel
        # that puts a list (or any unhashable container) back into its
        # state raises TypeError here at the first node that holds one.
        spec = RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": 3, "seed": 0},
            protocol=protocol,
        )
        hashed = []

        def digest(key):
            hashed.append(hash(key[1]))
            return hash(key)

        result = explore_all_schedules(
            spec.build_graph(),
            spec.build_protocol,
            use_kernel=True,
            max_steps_total=2_000,
            digest=digest,
        )
        # The initial configuration plus one per non-terminating delivery.
        assert 1 < len(hashed) <= result.steps + 1

    def test_forced_collisions_fall_back_to_exact_compare(self):
        # Injected digest: every key hashes to the same bucket.  The
        # exact-compare fallback must still keep distinct configurations
        # distinct — a collision may cost time, never soundness.
        table = TranspositionTable(digest=lambda key: 0)
        keys = [("cfg", i) for i in range(16)]
        assert all(table.visit(key) for key in keys)
        assert not any(table.visit(key) for key in keys)
        assert table.entries == 16
        assert table.collisions > 0

    def test_rank_reopens_a_visited_configuration(self):
        # Branch-and-bound maximization: reaching a known configuration
        # at a strictly higher rank must re-open it (the deeper prefix can
        # extend to a longer execution); equal or lower rank must not.
        table = TranspositionTable()
        assert table.visit(("cfg",), rank=3)
        assert not table.visit(("cfg",), rank=3)
        assert not table.visit(("cfg",), rank=2)
        assert table.visit(("cfg",), rank=5)
        assert table.reopened == 1
        assert table.entries == 1

    def test_stats_shape(self):
        table = TranspositionTable()
        table.visit(("x",))
        stats = table.stats()
        assert set(stats) == {"entries", "hits", "collisions", "reopened"}

    def test_collision_injection_keeps_exploration_exact(self):
        # End to end: the explorer's counts must be identical under a
        # pathological all-colliding digest.
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        honest = explore_all_schedules(net, GeneralBroadcastProtocol)
        colliding = explore_all_schedules(
            net, GeneralBroadcastProtocol, digest=lambda key: 0
        )
        assert (honest.outcomes, honest.executions, honest.steps) == (
            colliding.outcomes,
            colliding.executions,
            colliding.steps,
        )
        assert colliding.table["collisions"] > 0


class TestPendingSignature:
    """Child signatures derived from the parent's equal a fresh sort."""

    @staticmethod
    def _item(rng):
        # Few edges and texts, so equal (edge, text) pairs recur often.
        return (rng.randrange(4), None, rng.choice(["a", "b", "(1, 2)"]), rng.randrange(9))

    @pytest.mark.parametrize("seed", range(40))
    def test_derived_signature_equals_sorted_child(self, seed):
        # A random walk to quiescence, as the explorer takes one: each
        # child's signature comes from its parent's, never from a sort.
        rng = random.Random(seed)
        pending = [self._item(rng) for _ in range(rng.randrange(1, 10))]
        sig = _pending_sig(pending)
        while pending:
            index = rng.randrange(len(pending))
            # Fewer than one emission per delivery on average: walks end.
            emissions = [self._item(rng) for _ in range(rng.choice([0, 0, 0, 1, 3]))]
            child = pending[:index] + pending[index + 1 :] + emissions
            sig = _child_sig(sig, pending[index], emissions)
            assert sig == _pending_sig(child)
            pending = child

    def test_one_copy_of_a_repeated_pair_goes(self):
        pending = [(1, None, "m", 2), (0, None, "z", 2), (1, None, "m", 2), (1, None, "m", 2)]
        sig = _pending_sig(pending)
        assert _child_sig(sig, pending[2], []) == ((0, "z"), (1, "m"), (1, "m"))
        assert _child_sig(sig, pending[1], []) == ((1, "m"),) * 3

    def test_emissions_equal_to_the_delivered_pair(self):
        pending = [(2, None, "m", 2), (1, None, "a", 2)]
        emissions = [(2, None, "m", 2), (2, None, "m", 2)]
        child = _child_sig(_pending_sig(pending), pending[0], emissions)
        assert child == ((1, "a"), (2, "m"), (2, "m"))

    def test_last_delivery_leaves_the_empty_signature(self):
        pending = [(3, None, "x", 1)]
        assert _child_sig(_pending_sig(pending), pending[0], []) == ()

    def test_walks_sort_only_their_root(self, monkeypatch):
        calls = []

        def counting(pending):
            calls.append(len(pending))
            return _pending_sig(pending)

        monkeypatch.setattr(schedules, "_pending_sig", counting)
        monkeypatch.setattr(guided, "_pending_sig", counting)
        spec = RunSpec(
            graph="random-dag", graph_params={"num_internal": 3, "seed": 0},
            protocol="general-broadcast",
        )
        net = spec.build_graph()
        for use_kernel in (True, False):
            calls.clear()
            explored = explore_all_schedules(net, spec.build_protocol, use_kernel=use_kernel)
            assert len(calls) == 1 and explored.steps == 1877
            calls.clear()
            searched = search_schedules(net, spec.build_protocol, use_kernel=use_kernel)
            assert len(calls) == 1 and searched.nodes == 1877

    @pytest.mark.parametrize("use_kernel", [True, False])
    def test_walk_counts_are_unchanged(self, use_kernel):
        # Counts from walks that sorted every configuration's in-flight
        # multiset afresh (the bench's pinned workload, random-dag(3)).
        spec = RunSpec(
            graph="random-dag", graph_params={"num_internal": 3, "seed": 0},
            protocol="general-broadcast",
        )
        net = spec.build_graph()
        explored = explore_all_schedules(net, spec.build_protocol, use_kernel=use_kernel)
        assert (explored.executions, explored.steps, explored.max_depth) == (6, 1877, 13)
        assert explored.table == {"entries": 492, "hits": 1380, "collisions": 0, "reopened": 0}
        searched = search_schedules(net, spec.build_protocol, use_kernel=use_kernel)
        assert (searched.nodes, searched.executions, searched.best_value) == (1877, 6, 13.0)
        assert searched.best_path == (0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
        assert searched.nodes_at_best == 55
        assert searched.table == {"entries": 491, "hits": 1380, "collisions": 0, "reopened": 0}
        mapping = RunSpec(
            graph="random-dag", graph_params={"num_internal": 3, "seed": 0},
            protocol="topology-mapping",
        )
        costliest = search_schedules(
            mapping.build_graph(), mapping.build_protocol, objective="max-bits",
            use_kernel=use_kernel, max_nodes=3000,
        )
        assert (costliest.nodes, costliest.executions, costliest.best_value) == (3001, 59, 3358.0)
        assert costliest.nodes_at_best == 1757
        assert costliest.table == {"entries": 912, "hits": 1920, "collisions": 0, "reopened": 110}


class TestCloneState:
    """The object-mode branching hooks."""

    def test_general_state_clone_is_independent(self):
        from repro.core.intervals import UNIT_UNION
        from repro.core.model import VertexView

        protocol = GeneralBroadcastProtocol()
        state = protocol.create_state(VertexView(in_degree=1, out_degree=2))
        clone = protocol.clone_state(state)
        assert clone is not state
        assert clone.alphas is not state.alphas
        assert repr(clone) == repr(state)
        clone.alphas[-1] = UNIT_UNION
        assert state.alphas[-1] != UNIT_UNION

    def test_frozen_states_clone_to_themselves(self):
        from repro.core.model import VertexView

        protocol = TreeBroadcastProtocol()
        state = protocol.create_state(VertexView(in_degree=1, out_degree=2))
        assert protocol.clone_state(state) is state

    def test_frozen_messages_clone_to_themselves(self):
        from repro.core.messages import TreeToken

        token = TreeToken(exponent=2)
        assert TreeBroadcastProtocol().clone_message(token) is token

    def test_default_clone_message_protects_mutable_messages(self):
        # Branch independence: a protocol that mutates received messages
        # must not leak the mutation into sibling schedule branches — the
        # default clone_message deepcopy is what guarantees it.
        from repro.core.model import FunctionalProtocol

        def mutate_state(state, message, in_port):
            message.append(in_port)
            return len(message)

        protocol_factory = lambda: FunctionalProtocol(  # noqa: E731
            initial_state=0,
            initial_message=[],
            state_fn=mutate_state,
            message_fn=lambda s, m, i, j: list(m),
            stopping_predicate=lambda s: False,
            message_bits_fn=lambda m: len(m) + 1,
        )
        original = [1, 2]
        clone = protocol_factory().clone_message(original)
        assert clone == original and clone is not original
        net = DirectedNetwork(
            4, [(0, 2), (2, 3), (2, 3), (3, 1)], root=0, terminal=1
        )
        result = explore_all_schedules(
            net, protocol_factory, max_steps_total=5_000
        )
        # With shared (non-copied) payloads the exploration would count
        # configurations contaminated by sibling branches; the deepcopy
        # default keeps the walk sound for arbitrary protocols.
        assert result.never_terminates
        assert not result.truncated

    def test_default_clone_state_deepcopies(self):
        from repro.core.model import FunctionalProtocol

        protocol = FunctionalProtocol(
            initial_state={"seen": []},
            initial_message="go",
            state_fn=lambda s, m, i: s,
            message_fn=lambda s, m, i, j: None,
            stopping_predicate=lambda s: False,
            message_bits_fn=lambda m: 1,
        )
        state = {"seen": [1, 2]}
        clone = protocol.clone_state(state)
        assert clone == state and clone is not state
        assert clone["seen"] is not state["seen"]


class TestIffExhaustive:
    """The headline: the iff theorem, machine-checked on small instances."""

    def test_all_grounded_trees_always_terminate(self):
        for net in all_grounded_trees(3):
            result = explore_all_schedules(net, TreeBroadcastProtocol)
            assert not result.truncated
            assert result.always_terminates

    def test_iff_on_sparse_wirings(self):
        for net in all_internal_wirings(2):
            if net.num_edges > 5:
                continue  # densest cases covered by sampled schedules
            result = explore_all_schedules(
                net, GeneralBroadcastProtocol, max_steps_total=400_000
            )
            assert not result.truncated
            if net.all_connected_to_terminal():
                assert result.always_terminates, net.to_dot()
            else:
                assert result.never_terminates, net.to_dot()
