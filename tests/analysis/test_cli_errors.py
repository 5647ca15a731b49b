"""CLI error paths: every user mistake is a clear one-line error + exit 1.

The contract under test: unknown experiment names, malformed ``--spec``
files and invalid ``faults=`` payloads never escape as tracebacks — they
become a single-line ``SystemExit`` message (argparse maps a string code
to exit status 1).
"""

import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def _run_expecting_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv, stream=io.StringIO())
    code = excinfo.value.code
    # a string code means "print this and exit 1" — assert it is one line
    assert isinstance(code, str), f"expected a message, got exit code {code!r}"
    assert "\n" not in code, f"error message spans lines: {code!r}"
    return code


class TestUnknownExperiment:
    def test_run_unknown_id(self):
        message = _run_expecting_error(["run", "E99"])
        assert "unknown experiment" in message

    def test_experiment_unknown_name(self):
        message = _run_expecting_error(["experiment", "e99"])
        assert "unknown experiment" in message
        assert "e17" in message  # the listing helps the user recover

    def test_experiment_unknown_scale(self):
        message = _run_expecting_error(["experiment", "e17", "--scale", "nope"])
        assert "no scale" in message


class TestMalformedSpecFile:
    def test_run_spec_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        message = _run_expecting_error(["run", "--spec", str(path)])
        assert "malformed JSON" in message

    def test_batch_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"graph": "g",]', encoding="utf-8")
        message = _run_expecting_error(["batch", str(path)])
        assert "malformed JSON" in message

    def test_run_spec_missing_file(self, tmp_path):
        message = _run_expecting_error(["run", "--spec", str(tmp_path / "nope.json")])
        assert "cannot read" in message

    def test_run_spec_unknown_field(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"graph": "g", "protocol": "p", "graf_params": {}}),
            encoding="utf-8",
        )
        message = _run_expecting_error(["run", "--spec", str(path)])
        assert "invalid spec" in message

    def test_run_spec_typoed_graph_name(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"graph": "random-digraf", "protocol": "flooding"}),
            encoding="utf-8",
        )
        message = _run_expecting_error(["run", "--spec", str(path)])
        assert "unknown graph 'random-digraf'" in message
        assert "random-digraph" in message  # the listing helps the user recover

    def test_batch_typoed_protocol_name(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(
            json.dumps(
                [
                    {"graph": "random-digraph", "protocol": "flooding"},
                    {"graph": "random-digraph", "protocol": "general-brodcast"},
                ]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        message = _run_expecting_error(["batch", str(path), "-o", str(out), "--serial"])
        assert "unknown protocol 'general-brodcast'" in message
        assert "general-broadcast" in message
        assert not out.exists()  # rejected before anything ran

    def test_run_spec_unknown_graph_param(self, tmp_path):
        path = tmp_path / "spec.json"
        payload = {
            "graph": "path-network",
            "graph_params": {"num_internal": 3},
            "protocol": "tree-broadcast",
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = _run_expecting_error(["run", "--spec", str(path)])
        assert "invalid spec" in message
        assert "unknown keyword 'num_internal'" in message
        assert "takes length" in message  # the accepted keywords help recovery

    def test_batch_unknown_graph_param(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(
            json.dumps(
                [
                    {"graph": "path-network", "graph_params": {"length": 3}, "protocol": "flooding"},
                    {"graph": "path-network", "graph_params": {"num_internal": 3}, "protocol": "flooding"},
                ]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        message = _run_expecting_error(["batch", str(path), "-o", str(out), "--serial"])
        assert "invalid spec" in message
        assert "unknown keyword 'num_internal'" in message
        assert not out.exists()  # rejected before anything ran

    @pytest.mark.parametrize(
        "field,value,kind",
        [
            ("scheduler", "fifoo", "scheduler"),
            ("graph_transforms", ["with-dead-end"], "graph transform"),
        ],
    )
    def test_typoed_scheduler_and_transform_names(self, tmp_path, field, value, kind):
        path = tmp_path / "spec.json"
        payload = {"graph": "random-digraph", "protocol": "flooding", field: value}
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = _run_expecting_error(["run", "--spec", str(path)])
        assert f"unknown {kind}" in message

    def test_experiment_spec_bad_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("[[[", encoding="utf-8")
        message = _run_expecting_error(["experiment", "--spec", str(path)])
        assert "malformed JSON" in message

    @pytest.mark.parametrize("text", ["[]", "null"], ids=["list", "null"])
    def test_experiment_spec_not_an_object(self, tmp_path, text):
        # A JSON null must not read as "no spec given".
        path = tmp_path / "exp.json"
        path.write_text(text, encoding="utf-8")
        message = _run_expecting_error(["experiment", "--spec", str(path)])
        assert message.startswith("invalid experiment spec: ")
        assert "must be a dict" in message

    @pytest.mark.parametrize(
        "argv, payload, missing",
        [
            (["run", "--spec"], {}, "spec field(s): graph, protocol"),
            (["run", "--spec"], {"graph": "random-digraph"}, "spec field(s): protocol"),
            (["batch"], [{}], "spec field(s): graph, protocol"),
            (["experiment", "--spec"], {}, "experiment field(s): name"),
            (
                ["experiment", "--spec"],
                {"name": "x", "base": {"protocol": "flooding"}},
                "spec field(s): graph",
            ),
        ],
        ids=[
            "run-empty",
            "run-no-protocol",
            "batch-empty",
            "experiment-empty",
            "experiment-base-no-graph",
        ],
    )
    def test_missing_required_fields(self, tmp_path, argv, payload, missing):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = _run_expecting_error(argv + [str(path)])
        assert f"missing required {missing}" in message


class TestDamagedResultsFile:
    """``repro batch -o`` resumes from its file and then rewrites it, so a
    damaged line before the last must stop the batch, not vanish."""

    @pytest.fixture
    def finished(self, tmp_path):
        path = tmp_path / "specs.json"
        specs = [
            {"graph": "path-network", "graph_params": {"length": k}, "protocol": "flooding"}
            for k in (2, 3, 4)
        ]
        path.write_text(json.dumps(specs), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        main(["batch", str(path), "-o", str(out), "--serial"], stream=io.StringIO())
        return path, out, out.read_text(encoding="utf-8").splitlines()

    def test_damaged_inner_line_is_a_one_line_error(self, finished):
        path, out, lines = finished
        lines[0] = lines[0][:20]
        damaged = "\n".join(lines) + "\n"
        out.write_text(damaged, encoding="utf-8")
        message = _run_expecting_error(["batch", str(path), "-o", str(out), "--serial"])
        assert str(out) in message
        assert "line 1 is not a run record" in message
        assert out.read_text(encoding="utf-8") == damaged  # nothing rewritten

    def test_truncated_last_line_is_recomputed(self, finished):
        path, out, lines = finished
        lines[-1] = lines[-1][:20]
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stream = io.StringIO()
        main(["batch", str(path), "-o", str(out), "--serial"], stream=stream)
        assert "1 executed, 2 reused" in stream.getvalue()
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3


class TestInvalidFaultsPayload:
    def _write_spec(self, tmp_path, faults, **extra):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "graph": "random-grounded-tree",
                    "graph_params": {"num_internal": 4},
                    "protocol": "tree-broadcast",
                    "faults": faults,
                    **extra,
                }
            ),
            encoding="utf-8",
        )
        return str(path)

    def test_bad_probability(self, tmp_path):
        path = self._write_spec(tmp_path, {"drop_probability": 2.0})
        message = _run_expecting_error(["run", "--spec", path])
        assert "drop_probability" in message

    def test_unknown_fault_field(self, tmp_path):
        path = self._write_spec(tmp_path, {"drop_rate": 0.5})
        message = _run_expecting_error(["run", "--spec", path])
        assert "unknown fault field" in message

    def test_bad_churn_interval(self, tmp_path):
        path = self._write_spec(
            tmp_path, {"churn": [{"vertex": 2, "leave_step": 9, "rejoin_step": 4}]}
        )
        message = _run_expecting_error(["batch", path])
        assert "rejoin_step" in message

    def test_typoed_churn_entry_key(self, tmp_path):
        path = self._write_spec(tmp_path, {"churn": [{"vertex": 1, "leave": 5}]})
        message = _run_expecting_error(["run", "--spec", path])
        assert "invalid churn entry" in message

    def test_non_dict_crash_entry(self, tmp_path):
        path = self._write_spec(tmp_path, {"crashes": [3]})
        message = _run_expecting_error(["run", "--spec", path])
        assert "crashes entries must be dicts" in message

    def test_churn_not_a_list(self, tmp_path):
        path = self._write_spec(tmp_path, {"churn": 0.5})
        message = _run_expecting_error(["batch", path])
        assert "churn must be a sequence" in message

    def test_fault_vertex_out_of_range(self, tmp_path):
        # only detectable at execution time, once the graph is built —
        # still a one-line error, in both run and batch
        path = self._write_spec(
            tmp_path, {"churn": [{"vertex": 99, "leave_step": 5}]}
        )
        message = _run_expecting_error(["run", "--spec", path])
        assert "vertex 99" in message
        message = _run_expecting_error(["batch", path, "--serial"])
        assert "vertex 99" in message

    def test_legacy_adversary_field(self, tmp_path):
        """The delivery adversary is the spec's scheduler; a fault model
        naming one is an unknown fault field."""
        path = self._write_spec(tmp_path, {"adversary": "starve-one-edge"})
        for argv in (["run", "--spec", path], ["batch", path, "--serial"]):
            message = _run_expecting_error(argv)
            assert "unknown fault field(s): adversary" in message

    def test_starved_edge_out_of_range(self, tmp_path):
        # only detectable once the graph is built, like a fault vertex
        path = self._write_spec(
            tmp_path,
            {"drop_probability": 0.1},
            scheduler="starve-one-edge",
            scheduler_params={"edge_id": 9999},
        )
        for argv in (["run", "--spec", path], ["batch", path, "--serial"]):
            message = _run_expecting_error(argv)
            assert "scheduler_params do not fit 'starve-one-edge'" in message
            assert "edge_id 9999" in message

    def test_bogus_scheduler_params(self, tmp_path):
        path = self._write_spec(
            tmp_path,
            {"drop_probability": 0.1},
            scheduler="starve-one-edge",
            scheduler_params={"bogus": 1},
        )
        for argv in (["run", "--spec", path], ["batch", path, "--serial"]):
            message = _run_expecting_error(argv)
            assert "scheduler_params" in message
            assert "'bogus'" in message

    def test_scheduler_constructor_value_error(self, tmp_path):
        path = self._write_spec(
            tmp_path,
            {"drop_probability": 0.1},
            scheduler="latency",
            scheduler_params={"min_latency": -1},
        )
        for argv in (["run", "--spec", path], ["batch", path, "--serial"]):
            message = _run_expecting_error(argv)
            assert "scheduler_params do not fit 'latency'" in message

    def test_valid_faults_spec_runs(self, tmp_path):
        """Sanity: the same shape with a valid payload executes fine."""
        path = self._write_spec(tmp_path, {"drop_probability": 0.0})
        stream = io.StringIO()
        assert main(["run", "--spec", path], stream=stream) == 0
        assert "terminated" in stream.getvalue()


class TestTraceErrors:
    """Trace subcommand defects get the same one-line treatment."""

    def _write_spec(self, tmp_path, name="spec.json", **extra):
        path = tmp_path / name
        payload = {
            "graph": "random-grounded-tree",
            "graph_params": {"num_internal": 4},
            "protocol": "tree-broadcast",
            "seed": 3,
            **extra,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def _record(self, tmp_path, trace="full"):
        spec = self._write_spec(tmp_path, trace=trace)
        out = str(tmp_path / "t.rtrace")
        argv = ["trace", "record", spec, "-o", out, "--trace", trace]
        assert main(argv, stream=io.StringIO()) == 0
        return out

    def test_missing_trace_file(self, tmp_path):
        for argv in (
            ["trace", "info", str(tmp_path / "nope.rtrace")],
            ["trace", "replay", str(tmp_path / "nope.rtrace")],
            ["trace", "profile", str(tmp_path / "nope.rtrace")],
        ):
            message = _run_expecting_error(argv)
            assert "cannot read trace file" in message

    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "fake.rtrace"
        path.write_bytes(b"definitely not a trace")
        message = _run_expecting_error(["trace", "info", str(path)])
        assert "invalid trace file" in message
        assert "bad magic" in message

    def test_future_format_version(self, tmp_path):
        recorded = self._record(tmp_path)
        data = bytearray(open(recorded, "rb").read())
        data[6:8] = (99).to_bytes(2, "little")  # bump the version field
        forged = tmp_path / "future.rtrace"
        forged.write_bytes(bytes(data))
        message = _run_expecting_error(["trace", "replay", str(forged)])
        assert "invalid trace file" in message
        assert "version 99" in message

    def test_replay_against_wrong_spec(self, tmp_path):
        recorded = self._record(tmp_path)
        other = self._write_spec(tmp_path, name="other.json", seed=4)
        message = _run_expecting_error(
            ["trace", "replay", recorded, "--spec", other]
        )
        assert "cannot replay" in message
        assert "workload" in message

    def _rewrite_header_spec(self, recorded, tmp_path, **spec_fields):
        """A copy of ``recorded`` whose header spec is patched (no events:
        replay must refuse it before executing anything).  A spec that
        still parses gets its own workload id, as a recording of it would."""
        from repro.api import RunSpec, SpecError
        from repro.tracing import TraceReader
        from repro.tracing.capture import workload_id
        from repro.tracing.format import TraceWriter

        with TraceReader(recorded) as reader:
            header = dict(reader.header)
            result = reader.footer["result"]
        header["spec"] = {**header["spec"], **spec_fields}
        try:
            header["workload_id"] = workload_id(RunSpec.from_dict(header["spec"]))
        except SpecError:
            pass
        forged = str(tmp_path / "forged.rtrace")
        TraceWriter(forged, header=header).finalize(result=result)
        return forged

    def test_replay_of_a_removed_fault_field(self, tmp_path):
        """A recording made when fault models named an adversary."""
        recorded = self._record(tmp_path)
        legacy = {"drop_probability": 0.0, "adversary": "starve-one-edge", "adversary_params": {}}
        forged = self._rewrite_header_spec(recorded, tmp_path, faults=legacy)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "replay", forged],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert "Traceback" not in out.stderr
        assert out.stderr.count("\n") == 1
        assert out.stderr.startswith(f"cannot replay {forged!r}: ")
        assert "unknown fault field(s): adversary, adversary_params" in out.stderr

    def test_replay_of_a_spec_that_no_longer_builds(self, tmp_path):
        # sampled, so replay re-executes under the recorded scheduler
        recorded = self._record(tmp_path, trace="sample:2")
        for fields, expected in (
            ({"scheduler": "dropping"}, "unknown scheduler 'dropping'"),
            (
                {"scheduler": "starve-one-edge", "scheduler_params": {"edge_id": 999}},
                "edge_id 999 out of range",
            ),
        ):
            forged = self._rewrite_header_spec(recorded, tmp_path, **fields)
            message = _run_expecting_error(["trace", "replay", forged])
            assert message.startswith("cannot replay")
            assert expected in message

    def test_trace_flag_without_spec_file(self):
        message = _run_expecting_error(["run", "E1", "--trace", "full"])
        assert "repro trace record" in message

    def test_bad_trace_policy(self, tmp_path):
        spec = self._write_spec(tmp_path)
        message = _run_expecting_error(
            ["run", "--spec", spec, "--trace", "sometimes"]
        )
        assert "cannot apply --trace" in message

    def test_trace_on_unknown_engine(self, tmp_path):
        spec = self._write_spec(tmp_path, engine="synchronous")
        message = _run_expecting_error(
            ["trace", "record", spec, "-o", str(tmp_path / "t.rtrace")]
        )
        assert message.endswith(
            "unknown engine 'synchronous'; registered: async, batch, fastpath"
        )


class TestEngineSelection:
    """Engine choice: a bad name is a one-line error, a good one takes any spec."""

    def _write_spec(self, tmp_path, **extra):
        path = tmp_path / "spec.json"
        payload = {
            "graph": "random-grounded-tree",
            "graph_params": {"num_internal": 4},
            "protocol": "tree-broadcast",
            **extra,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_removed_synchronous_engine_in_spec_file(self, tmp_path):
        """A spec file naming the former lockstep engine (now the ``rounds``
        scheduler) exits 1 with the registry's one line, no traceback."""
        path = self._write_spec(tmp_path, engine="synchronous")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--spec", path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert "Traceback" not in out.stderr
        assert out.stderr.count("\n") == 1
        assert "unknown engine 'synchronous'; registered: async, batch, fastpath" in out.stderr

    def test_unknown_engine_override(self, tmp_path):
        path = self._write_spec(tmp_path)
        message = _run_expecting_error(["run", "--spec", path, "--engine", "bogus"])
        assert "unknown engine" in message
        assert "batch" in message  # the registry listing helps the user recover

    def test_engine_flag_rejected_for_legacy_experiment_ids(self):
        message = _run_expecting_error(["run", "E1", "--engine", "batch"])
        assert "repro experiment --engine" in message

    def test_engine_override_happy_path(self, tmp_path):
        path = self._write_spec(tmp_path)
        stream = io.StringIO()
        code = main(
            ["run", "--spec", path, "--engine", "batch", "--no-store"],
            stream=stream,
        )
        assert code == 0
        assert '"engine": "batch"' in stream.getvalue()

    def test_faults_on_batch_engine(self, tmp_path):
        path = self._write_spec(tmp_path, faults={"drop_probability": 0.1})
        stream = io.StringIO()
        argv = ["run", "--spec", path, "--engine", "batch", "--no-store"]
        assert main(argv, stream=stream) == 0
        assert '"fault_dropped"' in stream.getvalue()
        stream = io.StringIO()
        argv = ["batch", path, "--engine", "batch", "--serial", "--no-store"]
        assert main(argv, stream=stream) == 0
        assert "1 executed" in stream.getvalue()
