"""Fault-model wiring through the spec layer and the engines.

Three contracts:

* **Legacy stability** — ``faults=None`` specs hash to the spec_ids they
  had before the fault layer existed, so old resume files stay valid.
* **Engine equivalence** — a faulty run produces identical records under
  ``async`` and ``fastpath`` (the injector hooks fire at the same call
  sites in both), exactly like the fault-free differential contract; a
  faulty ``batch`` seed-group runs per seed on fastpath.
* **Determinism** — a faulty run is exactly reproducible from
  ``(spec, seed)``.
"""

import io

import pytest

from repro.api import BatchRunner, RunRecord, RunSpec, SpecError, execute_spec, execute_spec_full
from repro.network.faults import FaultSpec
from repro.tracing import TraceReader, capture_traces
from repro.tracing.format import KIND_DEFER, KIND_DELIVER


def faulty_spec(engine="async", scheduler="fifo", seed=2, **fault_fields):
    return RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": 12},
        protocol="general-broadcast",
        scheduler=scheduler,
        engine=engine,
        seed=seed,
        faults=fault_fields,
    )


FAULT_MODELS = [
    {"drop_probability": 0.15},
    {"duplicate_probability": 0.2},
    {"delay_probability": 0.25},
    {"crashes": [{"vertex": 4, "step": 40}]},
    {"churn": [{"vertex": 5, "leave_step": 10, "rejoin_step": 80}]},
    {"scheduler": "starve-one-edge"},
    {"scheduler": "oldest-last"},
    {
        "drop_probability": 0.05,
        "duplicate_probability": 0.05,
        "delay_probability": 0.1,
        "crashes": [{"vertex": 3, "step": 60}],
        "churn": [{"vertex": 6, "leave_step": 15, "rejoin_step": 70}],
    },
]


class TestSpecIdStability:
    def test_legacy_spec_ids_unchanged(self):
        """Hard-coded hashes computed before the faults field existed."""
        spec = RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": 8},
            protocol="tree-broadcast",
            seed=3,
        )
        assert spec.spec_id == "8e8a0c79d7fb7005"
        spec = RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": 10},
            protocol="general-broadcast",
            engine="fastpath",
            seed=1,
        )
        assert spec.spec_id == "d84b04eb73bd596a"

    def test_payload_without_faults_key_parses(self):
        """Resume files written before the fault layer lack the key."""
        payload = RunSpec(graph="g", protocol="p").to_dict()
        del payload["faults"]
        assert RunSpec.from_dict(payload) == RunSpec(graph="g", protocol="p")

    def test_faulty_spec_gets_distinct_id(self):
        clean = RunSpec(graph="g", protocol="p")
        faulty = RunSpec(graph="g", protocol="p", faults={"drop_probability": 0.1})
        assert clean.spec_id != faulty.spec_id


class TestSpecRoundTrip:
    def test_faults_normalise_to_fault_spec(self):
        spec = faulty_spec(drop_probability=0.1)
        assert isinstance(spec.faults, FaultSpec)
        assert spec.faults.drop_probability == 0.1

    @pytest.mark.parametrize("faults", FAULT_MODELS)
    def test_json_round_trip(self, faults):
        spec = faulty_spec(**faults)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_fault_spec_object_accepted(self):
        spec = RunSpec(graph="g", protocol="p", faults=FaultSpec(drop_probability=0.5))
        assert spec == RunSpec(graph="g", protocol="p", faults={"drop_probability": 0.5})

    def test_invalid_payload_is_spec_error(self):
        with pytest.raises(SpecError, match="drop_probability"):
            RunSpec(graph="g", protocol="p", faults={"drop_probability": 2.0})
        with pytest.raises(SpecError, match="faults"):
            RunSpec(graph="g", protocol="p", faults="lossy")


def _comparable(record: RunRecord) -> dict:
    payload = record.comparable_dict()
    payload["spec"].pop("engine")
    return payload


class TestEngineEquivalence:
    @pytest.mark.parametrize("faults", FAULT_MODELS)
    def test_async_fastpath_identical(self, faults):
        async_record = execute_spec(faulty_spec(engine="async", **faults))
        fast_record = execute_spec(faulty_spec(engine="fastpath", **faults))
        assert _comparable(async_record) == _comparable(fast_record)

    def test_batch_group_falls_back_per_seed(self):
        """A faulty ``batch`` seed-group runs each seed on fastpath."""
        faults = {"drop_probability": 0.1, "delay_probability": 0.2}
        seeds = range(8)
        runner = BatchRunner(parallel=False)
        batched = runner.run(
            [faulty_spec("batch", "random", seed, **faults) for seed in seeds]
        )
        assert runner.stats.batch_fallbacks == {"faults": 8}
        assert runner.stats.batched_groups == 0
        fast = [execute_spec(faulty_spec("fastpath", "random", seed, **faults)) for seed in seeds]
        assert [_comparable(r) for r in batched] == [_comparable(r) for r in fast]

    @pytest.mark.parametrize("scheduler", ["fifo", "lifo", "random"])
    @pytest.mark.parametrize("trace", [None, "full"])
    def test_equivalence_with_trace_and_state_bits(self, scheduler, trace):
        """``record_trace`` alone, and teed with a ``.rtrace`` capture."""
        base = dict(
            graph="random-digraph",
            graph_params={"num_internal": 8},
            protocol="general-broadcast",
            seed=1,
            scheduler=scheduler,
            record_trace=True,
            track_state_bits=True,
            trace=trace,
            faults={"drop_probability": 0.1, "delay_probability": 0.1},
        )
        runs = {}
        for engine in ("async", "fastpath"):
            buffer = io.BytesIO()
            with capture_traces(file=buffer):
                record, result, _ = execute_spec_full(RunSpec(engine=engine, **base))
            runs[engine] = (record, result, buffer.getvalue())
        async_record, async_result, async_bytes = runs["async"]
        fast_record, fast_result, fast_bytes = runs["fastpath"]
        assert _comparable(async_record) == _comparable(fast_record)
        assert async_result.trace.deliveries == fast_result.trace.deliveries
        assert async_bytes == fast_bytes

        # Deferrals reach the .rtrace only; the in-memory trace holds one
        # record per delivery step.
        deferred = fast_record.metrics["fault_delayed"]
        assert deferred > 0
        steps = fast_record.metrics["steps"]
        assert [d.step for d in fast_result.trace.deliveries] == list(
            range(1, steps + 1)
        )
        if trace is None:
            assert fast_bytes == b""
        else:
            kinds = TraceReader(io.BytesIO(fast_bytes)).column("kind")
            assert int((kinds == KIND_DEFER).sum()) == deferred
            assert int((kinds == KIND_DELIVER).sum()) == steps

    def test_fault_free_records_have_no_fault_counters(self):
        """The fault-free path is untouched: no fault keys leak into metrics."""
        spec = RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": 8},
            protocol="general-broadcast",
            engine="fastpath",
            seed=0,
        )
        record = execute_spec(spec)
        assert not any(key.startswith("fault_") for key in record.metrics)

    def test_noop_fault_model_matches_fault_free_run(self):
        """An all-default FaultSpec changes counters, never simulation results."""
        base = dict(
            graph="random-digraph",
            graph_params={"num_internal": 10},
            protocol="general-broadcast",
            seed=4,
        )
        clean = execute_spec(RunSpec(engine="async", **base))
        for engine in ("async", "fastpath"):
            noop = execute_spec(RunSpec(engine=engine, faults={}, **base))
            clean_metrics = dict(clean.metrics)
            noop_metrics = {
                k: v for k, v in noop.metrics.items() if not k.startswith("fault_")
            }
            assert noop_metrics == clean_metrics
            assert noop.outcome == clean.outcome


class TestDeterminismAndCounters:
    @pytest.mark.parametrize("engine", ["async", "fastpath"])
    def test_faulty_runs_reproducible(self, engine):
        spec = faulty_spec(
            engine=engine,
            drop_probability=0.1,
            duplicate_probability=0.1,
            delay_probability=0.1,
        )
        first = execute_spec(spec)
        second = execute_spec(spec)
        assert first.comparable_dict() == second.comparable_dict()

    def test_counters_present_in_record(self):
        record = execute_spec(faulty_spec(drop_probability=0.3))
        for key in (
            "fault_dropped",
            "fault_duplicated",
            "fault_delayed",
            "fault_crashed",
            "fault_churned",
            "fault_rejoined",
        ):
            assert key in record.metrics
        assert record.metrics["fault_dropped"] > 0

    def test_record_json_round_trip(self):
        record = execute_spec(faulty_spec(drop_probability=0.2))
        assert RunRecord.from_json(record.to_json()) == record
