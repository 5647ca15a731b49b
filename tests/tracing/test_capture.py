"""Capture wiring: spec policy, destinations, counters, identity."""

import io
import os

import pytest

from repro.api import RunSpec, SpecError, execute_spec
from repro.tracing import (
    TRACE_DIR_ENV,
    TraceCapture,
    TraceReader,
    capture_traces,
    trace_artifact_path,
    workload_id,
)


def _spec(**overrides):
    base = dict(
        graph="random-dag",
        graph_params={"num_internal": 8},
        protocol="dag-broadcast",
        seed=7,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestSpecPolicyField:
    def test_default_is_off(self):
        assert _spec().trace is None

    def test_policy_is_normalised(self):
        assert _spec(trace="sample:08").trace == "sample:8"
        assert _spec(trace="off").trace is None

    def test_invalid_policy_is_a_spec_error(self):
        with pytest.raises(SpecError, match="invalid trace policy"):
            _spec(trace="sometimes")

    def test_spec_id_neutral_when_off(self):
        """trace=None must hash like the field never existed (PR 5 rule)."""
        assert _spec().spec_id == _spec(trace=None).spec_id == _spec(trace="off").spec_id

    def test_spec_id_distinguishes_policies(self):
        assert _spec(trace="full").spec_id != _spec().spec_id
        assert _spec(trace="full").spec_id != _spec(trace="sample:4").spec_id

    def test_round_trips_through_dict(self):
        spec = _spec(trace="sample:4")
        assert RunSpec.from_dict(spec.to_dict()) == spec


class TestWorkloadId:
    def test_engine_neutral(self):
        assert workload_id(_spec(trace="full", engine="async")) == workload_id(
            _spec(trace="full", engine="fastpath")
        )

    def test_policy_neutral(self):
        assert workload_id(_spec(trace="full")) == workload_id(
            _spec(trace="sample:4")
        ) == workload_id(_spec())

    def test_distinguishes_workloads(self):
        assert workload_id(_spec(seed=7)) != workload_id(_spec(seed=8))


class TestCountersInRecordMetrics:
    def test_counters_folded_into_metrics(self):
        with capture_traces(file=io.BytesIO()):
            record = execute_spec(_spec(trace="full"))
        metrics = record.metrics
        assert metrics["trace_events"] == metrics["total_messages"]
        assert metrics["trace_sampled"] == metrics["trace_events"]
        assert metrics["trace_bytes"] > 0

    def test_sampled_counters(self):
        with capture_traces(file=io.BytesIO()):
            record = execute_spec(_spec(trace="sample:4"))
        metrics = record.metrics
        assert 0 < metrics["trace_sampled"] < metrics["trace_events"]

    def test_record_round_trips_with_trace_extras(self):
        """Satellite: trace_* extras survive RunRecord serialization."""
        from repro.api.spec import RunRecord

        with capture_traces(file=io.BytesIO()):
            record = execute_spec(_spec(trace="full"))
        clone = RunRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.metrics["trace_bytes"] == record.metrics["trace_bytes"]

    def test_untraced_runs_carry_no_trace_extras(self):
        record = execute_spec(_spec())
        assert "trace_events" not in record.metrics

    def test_null_sink_still_counts(self):
        """No destination at all: metrics identical, no artifact."""
        record = execute_spec(_spec(trace="full"))
        assert record.metrics["trace_events"] == record.metrics["total_messages"]
        assert record.metrics["trace_bytes"] > 0


class TestDestinations:
    def test_artifact_path_layout(self):
        spec = _spec(trace="full", engine="fastpath")
        path = trace_artifact_path("/tmp/traces", spec)
        assert path == os.path.join("/tmp/traces", spec.spec_id, "7-fastpath.rtrace")
        assert trace_artifact_path("r", _spec(trace="full", seed=None)).endswith(
            os.path.join("none-async.rtrace")
        )

    def test_directory_scope_writes_artifact(self, tmp_path):
        spec = _spec(trace="full")
        with capture_traces(directory=str(tmp_path)):
            execute_spec(spec)
        expected = trace_artifact_path(str(tmp_path), spec)
        assert os.path.exists(expected)
        with TraceReader(expected) as reader:
            assert reader.header["workload_id"] == workload_id(spec)

    def test_directory_scope_exports_env_var(self, tmp_path):
        assert os.environ.get(TRACE_DIR_ENV) is None
        with capture_traces(directory=str(tmp_path)):
            assert os.environ[TRACE_DIR_ENV] == str(tmp_path)
        assert os.environ.get(TRACE_DIR_ENV) is None

    def test_env_var_alone_routes_captures(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        spec = _spec(trace="full")
        execute_spec(spec)
        assert os.path.exists(trace_artifact_path(str(tmp_path), spec))

    def test_file_and_directory_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            with capture_traces(directory=str(tmp_path), file=io.BytesIO()):
                pass

    def test_no_partial_file_left_behind(self, tmp_path):
        """abort() (engine failure path) removes the .tmp artifact."""
        spec = _spec(trace="full")
        network = spec.build_graph()
        destination = str(tmp_path / "t.rtrace")
        capture = TraceCapture(spec, network, destination)
        capture.record(1, 0, "payload", 8)
        capture.abort()
        assert os.listdir(tmp_path) == []

    def test_finalize_is_atomic_rename(self, tmp_path):
        spec = _spec(trace="full")
        record = None
        destination = str(tmp_path / "t.rtrace")
        with capture_traces(file=destination):
            record = execute_spec(spec)
        assert record is not None
        assert os.path.exists(destination)
        assert not os.path.exists(destination + ".tmp")
