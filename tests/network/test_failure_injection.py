"""Failure injection: what the protocols do when the model's reliable-
delivery assumption is violated.

The paper's protocols are not loss-tolerant — they cannot be, without
feedback — but they must *fail safe*: lost commodity can only delay the
terminal's accounting forever, never complete it spuriously.  These tests
pin that down under the fault layer's loss model,
``FaultSpec(drop_probability=p)`` (the model e17 sweeps).
"""

import pytest

from repro.core.general_broadcast import GeneralBroadcastProtocol
from repro.core.invariants import coverage_within_unit, labels_disjoint_globally
from repro.core.labeling import LabelAssignmentProtocol
from repro.core.tree_broadcast import TreeBroadcastProtocol
from repro.graphs.generators import random_digraph, random_grounded_tree
from repro.network.faults import FaultSpec
from repro.network.simulator import Outcome, run_protocol


def run_lossy(net, protocol, *, seed, drop_probability):
    """Run ``protocol`` under FIFO delivery with each send lost with
    probability ``drop_probability``; return the result and the loss count."""
    faults = FaultSpec(drop_probability=drop_probability, seed=seed).build(net, None)
    result = run_protocol(net, protocol, faults=faults)
    return result, faults.dropped


class TestDropProbability:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_probability=1.5)

    def test_zero_probability_is_lossless(self):
        net = random_grounded_tree(20, seed=0)
        result, dropped = run_lossy(net, TreeBroadcastProtocol(), seed=1, drop_probability=0.0)
        assert result.terminated
        assert dropped == 0

    def test_total_loss_goes_nowhere(self):
        net = random_grounded_tree(10, seed=0)
        result, dropped = run_lossy(net, TreeBroadcastProtocol(), seed=1, drop_probability=1.0)
        assert result.outcome is Outcome.QUIESCENT
        assert result.metrics.total_messages == 0
        assert dropped >= 1

    def test_deterministic_per_seed(self):
        net = random_grounded_tree(25, seed=2)

        def run(seed):
            result, dropped = run_lossy(
                net, TreeBroadcastProtocol(), seed=seed, drop_probability=0.3
            )
            return dropped, result.metrics.total_messages

        assert run(5) == run(5)


class TestFailSafe:
    @pytest.mark.parametrize("factory", [GeneralBroadcastProtocol, LabelAssignmentProtocol])
    @pytest.mark.parametrize("seed", range(5))
    def test_losses_never_cause_false_termination(self, factory, seed):
        """With commodity lost, the unit interval cannot be covered at t —
        the run must end quiescent, not terminated."""
        net = random_digraph(15, seed=seed)
        result, dropped = run_lossy(net, factory(), seed=seed, drop_probability=0.25)
        if dropped and result.terminated:
            # Termination despite drops is only legitimate when every
            # dropped message was redundant (pure β re-flood); the terminal
            # must still have covered the whole interval honestly.
            assert result.states[net.terminal].covered().is_unit()
        if not result.terminated:
            assert result.outcome is Outcome.QUIESCENT

    @pytest.mark.parametrize("seed", range(3))
    def test_safety_invariants_survive_losses(self, seed):
        """Loss breaks liveness, never safety: coverage stays within the
        unit interval and labels stay disjoint."""
        net = random_digraph(12, seed=seed)
        result, _ = run_lossy(
            net, LabelAssignmentProtocol(), seed=seed + 10, drop_probability=0.3
        )
        assert coverage_within_unit(result.states)
        assert labels_disjoint_globally(result.states)

    def test_tree_protocol_shortfall_is_exactly_the_loss(self):
        net = random_grounded_tree(30, seed=4)
        result, dropped = run_lossy(net, TreeBroadcastProtocol(), seed=2, drop_probability=0.2)
        if dropped:
            assert not result.terminated
            assert result.states[net.terminal].received_sum < 1
