"""The trace-profile aggregator: campaign rows from traced runs' records."""

import pytest

from repro.api import AGGREGATORS, ensure_registered
from repro.api.campaign import ExperimentSpec, run_experiment


def _experiment(**base_extra):
    base = {
        "graph": "random-dag",
        "graph_params": {"num_internal": 8},
        "protocol": "dag-broadcast",
        "record_trace": True,
        **base_extra,
    }
    return ExperimentSpec(
        name="trace-profile-test",
        title="trace profile rows",
        base=base,
        axes={"seed": [0, 1, 2]},
        aggregator="trace-profile",
    )


class TestTraceProfileAggregator:
    def test_registered_record_aggregator_matches_the_profiler(self):
        from repro.api import execute_spec_full
        from repro.tracing.profiler import TraceProfiler

        ensure_registered()
        experiment = _experiment()
        records, profiles = [], []
        for spec in experiment.expand():
            record, result, network = execute_spec_full(spec)
            records.append(record)
            profiles.append(
                TraceProfiler.from_trace(
                    result.trace, network, termination_step=record.metrics["termination_step"]
                ).profile()
            )
        rows = AGGREGATORS.get("trace-profile")(records)
        for row, profile in zip(rows, profiles):
            assert row["events"] == profile.events
            assert row["total_bits"] == profile.total_bits
            assert row["max_message_bits"] == profile.max_message_bits
            assert row["mean_message_bits"] == round(profile.mean_message_bits, 2)
            assert row["distinct_sizes"] == len(profile.message_size_histogram)
            assert row["max_edge_messages"] == profile.max_edge_messages
            assert row["max_vertex_load"] == profile.max_vertex_load
            assert row["termination_step"] == profile.termination_step

    def test_one_row_per_run_with_profile_columns(self):
        result = run_experiment(_experiment(), parallel=False)
        assert [row["seed"] for row in result.rows] == [0, 1, 2]
        for row in result.rows:
            assert row["protocol"] == "dag-broadcast"
            assert row["events"] > 0
            assert row["total_bits"] > 0
            assert row["max_message_bits"] >= row["mean_message_bits"] > 0
            assert row["max_edge_messages"] >= 1
            assert row["max_vertex_load"] >= 1
            assert row["termination_step"] is not None
            assert row["V"] > 0 and row["E"] > 0

    def test_rows_match_run_metrics(self):
        from repro.api import RunSpec, execute_spec

        result = run_experiment(_experiment(), parallel=False)
        for row in result.rows:
            record = execute_spec(
                RunSpec(
                    graph="random-dag",
                    graph_params={"num_internal": 8},
                    protocol="dag-broadcast",
                    seed=row["seed"],
                )
            )
            assert row["events"] == record.metrics["total_messages"]
            assert row["total_bits"] == record.metrics["total_bits"]
            assert row["termination_step"] == record.metrics["termination_step"]

    def test_untraced_spec_is_a_clear_error(self):
        experiment = _experiment(record_trace=False)
        with pytest.raises(ValueError, match="record_trace"):
            run_experiment(experiment, parallel=False)
