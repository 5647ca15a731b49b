"""Deterministic replay: recordings are executable, verifiable certificates."""

import os
import subprocess
import sys

import pytest

from repro.api import PROTOCOLS, RunSpec, ensure_registered, execute_spec
from repro.tracing import ReplayError, TraceReader, capture_traces, replay_trace


def _spec(**overrides):
    base = dict(
        graph="random-dag",
        graph_params={"num_internal": 8},
        protocol="dag-broadcast",
        seed=11,
    )
    base.update(overrides)
    return RunSpec(**base)


def _record(spec, tmp_path, name="t.rtrace"):
    path = str(tmp_path / name)
    with capture_traces(file=path):
        record = execute_spec(spec)
    return record, path


class TestScriptedReplay:
    def test_full_trace_replays_ok(self, tmp_path):
        _, path = _record(_spec(trace="full"), tmp_path)
        report = replay_trace(None, path)
        assert report.ok
        assert report.mode == "scripted"
        assert report.failures == []
        assert "REPLAY OK" in report.summary()

    def test_replay_accepts_matching_spec(self, tmp_path):
        """The pre-override spec (no trace field, any engine) cross-checks."""
        _, path = _record(_spec(trace="full", engine="fastpath"), tmp_path)
        assert replay_trace(_spec(), path).ok

    def test_replay_rejects_wrong_spec(self, tmp_path):
        _, path = _record(_spec(trace="full"), tmp_path)
        with pytest.raises(ReplayError, match="recorded for workload"):
            replay_trace(_spec(seed=12), path)

    def test_replay_accepts_open_reader(self, tmp_path):
        _, path = _record(_spec(trace="full"), tmp_path)
        with TraceReader(path) as reader:
            assert replay_trace(None, reader).ok

    def test_replay_counts_match_recording(self, tmp_path):
        record, path = _record(_spec(trace="full"), tmp_path)
        report = replay_trace(None, path)
        assert report.events_seen == record.metrics["trace_events"]
        assert report.events_written == record.metrics["trace_sampled"]
        assert report.outcome == record.outcome


ensure_registered()


@pytest.mark.parametrize("engine", ["async", "fastpath"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
def test_every_protocol_records_and_replays(protocol, engine, tmp_path):
    """A recording of any registered protocol replays: the footer's states
    digest is free of memory addresses and hash order."""
    spec = _spec(
        protocol=protocol,
        graph_params={"num_internal": 4},
        seed=1,
        max_steps=2000,
        trace="full",
        engine=engine,
    )
    _, path = _record(spec, tmp_path)
    report = replay_trace(None, path)
    assert report.ok, report.failures


def test_mapping_states_digest_is_stable_across_hash_seeds():
    script = (
        "from repro.api import RunSpec, execute_spec_full\n"
        "from repro.tracing.format import states_digest\n"
        "for engine in ('async', 'fastpath'):\n"
        "    spec = RunSpec(graph='random-dag', graph_params={'num_internal': 4},\n"
        "                   protocol='topology-mapping', seed=1, engine=engine)\n"
        "    print(states_digest(execute_spec_full(spec)[1].states))\n"
    )
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    digests = set()
    for hash_seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert len(out) == 2
        digests.update(out)
    assert len(digests) == 1


class TestSampledReplay:
    def test_sampled_trace_reexecutes_ok(self, tmp_path):
        _, path = _record(_spec(trace="sample:3"), tmp_path)
        report = replay_trace(None, path)
        assert report.ok
        assert report.mode == "re-executed"

    def test_sampled_fastpath_recording_replays_on_async(self, tmp_path):
        _, path = _record(_spec(trace="sample:3", engine="fastpath"), tmp_path)
        assert replay_trace(None, path).ok


class TestFaultyReplay:
    def _faulty_spec(self, trace, **fault_overrides):
        faults = {"drop_probability": 0.1, "delay_probability": 0.25}
        faults.update(fault_overrides)
        return RunSpec.from_dict(
            {
                "graph": "random-dag",
                "graph_params": {"num_internal": 8},
                "protocol": "dag-broadcast",
                "seed": 11,
                "trace": trace,
                "faults": faults,
            }
        )

    def test_faulty_full_trace_replays_scripted(self, tmp_path):
        _, path = _record(self._faulty_spec("full"), tmp_path)
        report = replay_trace(None, path)
        assert report.ok, report.failures
        assert report.mode == "scripted"

    def test_duplicating_faults_replay(self, tmp_path):
        _, path = _record(
            self._faulty_spec("full", duplicate_probability=0.3), tmp_path
        )
        assert replay_trace(None, path).ok

    def test_adversary_recording_replays(self, tmp_path):
        spec = RunSpec.from_dict(
            {
                "graph": "random-dag",
                "graph_params": {"num_internal": 8},
                "protocol": "dag-broadcast",
                "seed": 11,
                "trace": "sample:2",
                "faults": {"adversary": "starve-one-edge"},
            }
        )
        _, path = _record(spec, tmp_path)
        report = replay_trace(None, path)
        assert report.ok, report.failures
        assert report.mode == "re-executed"


class TestTamperDetection:
    def test_flipped_column_byte_fails_closed(self, tmp_path):
        _, path = _record(_spec(trace="full"), tmp_path)
        data = bytearray(open(path, "rb").read())
        i = data.find(b'"step"')
        i = data.find(b"}}", i) + 10
        data[i] ^= 0xFF
        open(path, "wb").write(bytes(data))
        report = replay_trace(None, path)
        assert not report.ok
        assert any("checksum mismatch" in f for f in report.failures)
        assert "REPLAY FAILED" in report.summary()

    def test_rewritten_delivery_order_diverges(self, tmp_path):
        """A trace whose column data was forged (with a recomputed footer,
        so the checksum verifies) must fail as a *divergence*."""
        from repro.tracing.format import TraceWriter, payload_digest

        _, path = _record(_spec(trace="full"), tmp_path)
        with TraceReader(path) as reader:
            header = {
                k: reader.header[k]
                for k in ("workload_id", "spec", "seed", "policy", "sample_k")
            }
            columns = {
                name: list(reader.column(name))
                for name in ("step", "edge", "vertex", "kind", "bits", "payload")
            }
            texts = reader.payloads
            footer_result = reader.footer["result"]
        forged = str(tmp_path / "forged.rtrace")
        writer = TraceWriter(forged, header=header)
        # preserve the intern table verbatim, then swap two deliveries
        writer._payloads = list(texts)
        writer._digests = [payload_digest(t) for t in texts]
        order = list(range(len(columns["edge"])))
        order[0], order[-1] = order[-1], order[0]
        for i in order:
            writer.append(
                int(columns["step"][i]),
                int(columns["edge"][i]),
                int(columns["vertex"][i]),
                int(columns["kind"][i]),
                int(columns["bits"][i]),
                int(columns["payload"][i]),
            )
        writer.finalize(result=footer_result)
        report = replay_trace(None, forged)
        assert not report.ok
        assert report.failures


class TestReplayScheduler:
    def test_divergence_message_names_the_delivery(self):
        from repro.tracing.replay import ReplayScheduler

        class _Event:
            def __init__(self, edge_id, payload, seq):
                self.edge_id = edge_id
                self.payload = payload
                self.seq = seq

        scheduler = ReplayScheduler([0], ["'x'"])
        scheduler.push(_Event(1, "y", 0))
        with pytest.raises(ReplayError, match="delivery #1"):
            scheduler.pop()

    def test_script_exhaustion_detected(self):
        from repro.tracing.replay import ReplayScheduler

        class _Event:
            def __init__(self, edge_id, payload, seq):
                self.edge_id = edge_id
                self.payload = payload
                self.seq = seq

        scheduler = ReplayScheduler([], [])
        scheduler.push(_Event(0, "x", 0))
        with pytest.raises(ReplayError, match="diverged"):
            scheduler.pop()
