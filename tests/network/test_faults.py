"""Unit tests for the declarative fault-model layer (repro.network.faults)."""

import json

import pytest

from repro.api import SCHEDULERS, RunSpec, SpecError, ensure_registered, execute_spec
from repro.core.general_broadcast import GeneralBroadcastProtocol
from repro.core.labeling import LabelAssignmentProtocol
from repro.core.tree_broadcast import TreeBroadcastProtocol
from repro.graphs.generators import random_digraph, random_grounded_tree
from repro.network.faults import ChurnFault, CrashFault, FaultSpec, FaultSpecError
from repro.network.scheduler import OldestLastScheduler, StarveOneEdgeScheduler
from repro.network.simulator import Outcome, run_protocol


class TestFaultSpecValidation:
    @pytest.mark.parametrize(
        "field", ["drop_probability", "duplicate_probability", "delay_probability"]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5, "0.5", None, True])
    def test_bad_probability(self, field, value):
        with pytest.raises(FaultSpecError):
            FaultSpec(**{field: value})

    def test_bad_crash(self):
        with pytest.raises(FaultSpecError):
            CrashFault(vertex=-1)
        with pytest.raises(FaultSpecError):
            CrashFault(vertex=0, step=-3)

    def test_duplicate_crash_vertex(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(crashes=({"vertex": 2, "step": 1}, {"vertex": 2, "step": 5}))

    def test_bad_churn_interval(self):
        with pytest.raises(FaultSpecError):
            ChurnFault(vertex=2, leave_step=10, rejoin_step=10)

    def test_overlapping_churn_intervals(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(
                churn=(
                    {"vertex": 2, "leave_step": 5, "rejoin_step": 20},
                    {"vertex": 2, "leave_step": 10, "rejoin_step": 30},
                )
            )

    def test_sequential_churn_intervals_allowed(self):
        spec = FaultSpec(
            churn=(
                {"vertex": 2, "leave_step": 5, "rejoin_step": 20},
                {"vertex": 2, "leave_step": 25, "rejoin_step": 30},
            )
        )
        assert len(spec.churn) == 2

    def test_unknown_field(self):
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict({"drop_prob": 0.5})

    def test_vertex_out_of_range_rejected_at_build(self):
        net = random_grounded_tree(4, seed=0)
        spec = FaultSpec(crashes=(CrashFault(vertex=99, step=1),))
        with pytest.raises(FaultSpecError):
            spec.build(net, run_seed=0)


class TestFaultSpecRoundTrip:
    def test_full_round_trip(self):
        spec = FaultSpec(
            drop_probability=0.1,
            duplicate_probability=0.05,
            delay_probability=0.2,
            crashes=(CrashFault(vertex=3, step=10),),
            churn=(ChurnFault(vertex=4, leave_step=5, rejoin_step=50),),
            seed=7,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        # through actual JSON text, too
        assert FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_dict_entries_normalise_to_dataclasses(self):
        spec = FaultSpec(
            crashes=({"vertex": 2, "step": 3},),
            churn=({"vertex": 3, "leave_step": 1, "rejoin_step": None},),
        )
        assert spec.crashes == (CrashFault(vertex=2, step=3),)
        assert spec.churn == (ChurnFault(vertex=3, leave_step=1, rejoin_step=None),)

    def test_with_seed(self):
        assert FaultSpec().with_seed(5).seed == 5


class TestDropInjection:
    def test_total_loss_goes_nowhere(self):
        net = random_grounded_tree(10, seed=0)
        faults = FaultSpec(drop_probability=1.0).build(net, run_seed=0)
        result = run_protocol(net, TreeBroadcastProtocol(), faults=faults)
        assert result.outcome is Outcome.QUIESCENT
        assert result.metrics.total_messages == 0
        assert faults.dropped >= 1

    def test_zero_rates_change_nothing(self):
        net = random_grounded_tree(20, seed=1)
        clean = run_protocol(net, TreeBroadcastProtocol())
        faults = FaultSpec().build(net, run_seed=0)
        faulty = run_protocol(net, TreeBroadcastProtocol(), faults=faults)
        assert faulty.metrics == clean.metrics
        assert faults.counters() == {
            "fault_dropped": 0,
            "fault_duplicated": 0,
            "fault_delayed": 0,
            "fault_crashed": 0,
            "fault_churned": 0,
            "fault_rejoined": 0,
        }

    def test_losses_never_cause_false_termination(self):
        for seed in range(5):
            net = random_digraph(12, seed=seed)
            faults = FaultSpec(drop_probability=0.3).build(net, run_seed=seed)
            result = run_protocol(net, GeneralBroadcastProtocol(), faults=faults)
            if not result.terminated:
                assert result.outcome is Outcome.QUIESCENT
            elif faults.dropped:
                assert result.states[net.terminal].covered().is_unit()


class TestDuplicationAndDelay:
    def test_duplication_inflates_message_count(self):
        net = random_digraph(10, seed=0)
        faults = FaultSpec(duplicate_probability=1.0).build(net, run_seed=0)
        result = run_protocol(net, GeneralBroadcastProtocol(), faults=faults)
        assert faults.duplicated > 0
        # interval unions are idempotent, so duplication is harmless to safety
        from repro.core.invariants import coverage_within_unit

        assert coverage_within_unit(result.states)

    def test_full_delay_cannot_livelock(self):
        net = random_grounded_tree(8, seed=0)
        faults = FaultSpec(delay_probability=1.0).build(net, run_seed=0)
        result = run_protocol(net, TreeBroadcastProtocol(), faults=faults)
        assert result.terminated
        assert faults.delayed > 0

    def test_delay_preserves_delivery_totals(self):
        net = random_grounded_tree(15, seed=2)
        clean = run_protocol(net, TreeBroadcastProtocol())
        faults = FaultSpec(delay_probability=0.4).build(net, run_seed=2)
        faulty = run_protocol(net, TreeBroadcastProtocol(), faults=faults)
        # deferral reorders but never loses: same messages, same termination
        assert faulty.metrics.total_messages == clean.metrics.total_messages
        assert faulty.terminated


class TestCrashAndChurn:
    def test_crashed_terminal_never_terminates(self):
        net = random_grounded_tree(10, seed=0)
        faults = FaultSpec(crashes=(CrashFault(vertex=net.terminal, step=0),)).build(
            net, run_seed=0
        )
        result = run_protocol(net, TreeBroadcastProtocol(), faults=faults)
        assert not result.terminated
        assert faults.crashed > 0

    def test_crash_step_after_quiescence_is_noop(self):
        net = random_grounded_tree(10, seed=0)
        clean = run_protocol(net, TreeBroadcastProtocol())
        faults = FaultSpec(
            crashes=(CrashFault(vertex=net.terminal, step=10**9),)
        ).build(net, run_seed=0)
        faulty = run_protocol(net, TreeBroadcastProtocol(), faults=faults)
        assert faulty.metrics == clean.metrics
        assert faults.crashed == 0

    def test_churned_vertex_resets_on_rejoin(self):
        net = random_digraph(10, seed=1)
        faults = FaultSpec(
            churn=(ChurnFault(vertex=3, leave_step=5, rejoin_step=30),)
        ).build(net, run_seed=1)
        result = run_protocol(net, LabelAssignmentProtocol(), faults=faults)
        assert faults.churned > 0
        # safety survives the reset
        from repro.core.invariants import coverage_within_unit, labels_disjoint_globally

        assert coverage_within_unit(result.states)
        assert labels_disjoint_globally(result.states)

    def test_counters_keys(self):
        net = random_grounded_tree(5, seed=0)
        faults = FaultSpec().build(net, run_seed=0)
        assert set(faults.counters()) == {
            "fault_dropped",
            "fault_duplicated",
            "fault_delayed",
            "fault_crashed",
            "fault_churned",
            "fault_rejoined",
        }


class TestDeterminism:
    def test_same_seed_same_run(self):
        net = random_digraph(12, seed=3)
        spec = FaultSpec(
            drop_probability=0.15, duplicate_probability=0.1, delay_probability=0.1
        )

        def run():
            faults = spec.build(net, run_seed=3)
            result = run_protocol(net, GeneralBroadcastProtocol(), faults=faults)
            return result.metrics, faults.counters()

        assert run() == run()

    def test_fault_seed_overrides_run_seed(self):
        net = random_digraph(12, seed=3)

        def run(fault_seed, run_seed):
            faults = FaultSpec(drop_probability=0.2, seed=fault_seed).build(
                net, run_seed=run_seed
            )
            result = run_protocol(net, GeneralBroadcastProtocol(), faults=faults)
            return result.metrics, faults.counters()

        # pinned fault seed: the run seed no longer matters
        assert run(9, 0) == run(9, 1)


class TestAdversaryStrategies:
    def test_registry_entries(self):
        ensure_registered()
        assert SCHEDULERS.get("starve-one-edge") is StarveOneEdgeScheduler
        assert SCHEDULERS.get("oldest-last") is OldestLastScheduler

    def test_legacy_adversary_field_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault field"):
            FaultSpec.from_dict({"adversary": "starve-one-edge"})

    def test_starve_one_edge_terminates(self):
        net = random_digraph(10, seed=0)
        for edge_id in (None, 0, net.num_edges - 1):
            scheduler = StarveOneEdgeScheduler(seed=1, edge_id=edge_id)
            result = run_protocol(net, GeneralBroadcastProtocol(), scheduler)
            assert result.terminated
            assert scheduler.target_edge is not None

    def test_starve_one_edge_bad_edge(self):
        net = random_grounded_tree(4, seed=0)
        scheduler = StarveOneEdgeScheduler(edge_id=10**6)
        with pytest.raises(ValueError, match="edge_id 1000000 out of range"):
            scheduler.bind(net)

    def test_starve_one_edge_bad_edge_is_a_spec_error(self):
        spec = RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": 4},
            protocol="tree-broadcast",
            scheduler="starve-one-edge",
            scheduler_params={"edge_id": 10**6},
            faults={"drop_probability": 0.1},
        )
        with pytest.raises(SpecError, match="scheduler_params do not fit 'starve-one-edge'"):
            execute_spec(spec)

    def test_oldest_last_terminates(self):
        net = random_digraph(10, seed=0)
        result = run_protocol(net, GeneralBroadcastProtocol(), OldestLastScheduler())
        assert result.terminated

    def test_adversary_under_a_fault_spec(self):
        """The fault model wraps the starving scheduler instead of naming it."""
        net = random_digraph(10, seed=2)
        faults = FaultSpec().build(net, run_seed=2)
        scheduler = StarveOneEdgeScheduler(seed=2)
        result = run_protocol(net, GeneralBroadcastProtocol(), scheduler, faults=faults)
        assert result.terminated
        assert scheduler.target_edge is not None
