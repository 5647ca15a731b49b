"""Tests for the experiment-runner CLI."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.analysis.report import render_table
from repro.api import EXPERIMENTS, ensure_registered
from repro.api.campaign import _registered_name, run_experiment
from repro.cli import _legacy_id, build_parser, main


def _untimed(text):
    """Output with the ``(1.2s)`` elapsed-time fields of headers removed."""
    return re.sub(r" \(\d+\.\ds\) ==$", " ==", text, flags=re.M)


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "E1", "E2", "--out", "x.txt"])
        assert args.command == "run"
        assert args.experiments == ["E1", "E2"]
        assert args.out == "x.txt"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


def test_cli_startup_leaves_the_harnesses_unloaded():
    # The driver experiments resolve their harness modules lazily, so
    # starting the CLI and populating the registries imports none of them.
    code = (
        "import sys, repro.cli; from repro.api import ensure_registered; "
        "ensure_registered(); "
        "print(sorted(m for m in sys.modules if m.startswith('repro.lowerbounds') "
        "or m == 'repro.analysis.experiments'))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


class TestRegistryListParity:
    """`repro list` derives from EXPERIMENTS — the views can never drift."""

    def test_list_shows_every_registered_experiment(self):
        ensure_registered()
        stream = io.StringIO()
        assert main(["list"], stream=stream) == 0
        text = stream.getvalue()
        for name in EXPERIMENTS.names():
            assert f"[{name}]" in text
            assert getattr(EXPERIMENTS.get(name), "title", "") in text

    def test_name_mapping_round_trips(self):
        ensure_registered()
        for name in EXPERIMENTS.names():
            assert _registered_name(_legacy_id(name)) == name


class TestMain:
    def test_list_output(self, capsys):
        stream = io.StringIO()
        assert main(["list"], stream=stream) == 0
        text = stream.getvalue()
        ensure_registered()
        for name in EXPERIMENTS.names():
            assert _legacy_id(name) in text

    def test_run_single(self):
        stream = io.StringIO()
        assert main(["run", "E2"], stream=stream) == 0
        text = stream.getvalue()
        assert "E2" in text
        assert "distinct_symbols" in text

    def test_run_case_insensitive(self):
        stream = io.StringIO()
        assert main(["run", "e2"], stream=stream) == 0

    def test_registry_and_legacy_names_run_the_same_campaign(self, monkeypatch):
        # `run e05` used to be rejected although `repro list` prints [e05];
        # a one-size e05 keeps the two runs quick.
        ensure_registered()
        small = EXPERIMENTS.get("e05").with_overrides(
            axes={"graph_params.num_internal": [10]}
        )
        monkeypatch.setitem(EXPERIMENTS._factories, "e05", small)
        outputs = []
        for name in ("e05", "E5"):
            stream = io.StringIO()
            assert main(["run", name], stream=stream) == 0
            outputs.append(_untimed(stream.getvalue()))
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(f"== E5 — {small.title} ==\n")

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E99"], stream=io.StringIO())
        message = str(excinfo.value.code)
        assert "\n" not in message
        assert message.startswith("unknown experiment 'E99'; registered: ")
        ensure_registered()
        for name in EXPERIMENTS.names():
            assert name in message

    def test_run_tables_are_the_registered_campaign_rows(self):
        stream = io.StringIO()
        assert main(["run", "E2", "E10"], stream=stream) == 0
        expected = ""
        for name in ("e02", "e10"):
            experiment = EXPERIMENTS.get(name)
            rows = run_experiment(name, parallel=False).rows
            header = f"== {_legacy_id(name)} — {experiment.title} =="
            expected += render_table(rows, title=header) + "\n\n"
        assert _untimed(stream.getvalue()) == expected

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.txt"
        stream = io.StringIO()
        assert main(["run", "E2", "--out", str(out)], stream=stream) == 0
        assert "distinct_symbols" in out.read_text(encoding="utf-8")

    def test_report_command(self, tmp_path, monkeypatch):
        # Narrow the registered name list to two fast experiments so the
        # test stays quick; `python -m repro report` runs all of them.
        ensure_registered()
        monkeypatch.setattr(EXPERIMENTS, "names", lambda: ("e02", "e10"))
        out = tmp_path / "report.md"
        stream = io.StringIO()
        assert main(["report", "--out", str(out)], stream=stream) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# Experiment report")
        assert re.findall(r"^## (E\d+) — ", text, flags=re.M) == ["E2", "E10"]
        e10 = run_experiment("e10", parallel=False).rows
        assert render_table(e10) in text


class TestSpecCommands:
    def _spec_payload(self, seed=0):
        from repro.api import RunSpec

        return RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": 10},
            protocol="tree-broadcast",
            seed=seed,
        )

    def test_registry_lists_names(self):
        stream = io.StringIO()
        assert main(["registry"], stream=stream) == 0
        text = stream.getvalue()
        for name in ("tree-broadcast", "random-digraph", "fifo", "with-dead-end-vertex"):
            assert name in text

    def test_run_spec_file(self, tmp_path):
        from repro.api import dump_specs

        path = tmp_path / "spec.json"
        dump_specs([self._spec_payload()], str(path))
        stream = io.StringIO()
        assert main(["run", "--spec", str(path)], stream=stream) == 0
        assert "terminated" in stream.getvalue()

    def test_run_rejects_spec_plus_experiments(self, tmp_path):
        from repro.api import dump_specs

        path = tmp_path / "spec.json"
        dump_specs([self._spec_payload()], str(path))
        with pytest.raises(SystemExit):
            main(["run", "E1", "--spec", str(path)], stream=io.StringIO())

    def test_run_requires_something(self):
        with pytest.raises(SystemExit):
            main(["run"], stream=io.StringIO())

    def test_batch_executes_and_resumes(self, tmp_path):
        from repro.api import dump_specs, load_records

        specs_path = tmp_path / "specs.json"
        out_path = tmp_path / "out.jsonl"
        dump_specs([self._spec_payload(seed=s) for s in range(4)], str(specs_path))

        stream = io.StringIO()
        assert (
            main(
                ["batch", str(specs_path), "-o", str(out_path), "--serial"],
                stream=stream,
            )
            == 0
        )
        assert "4 executed, 0 reused" in stream.getvalue()
        assert len(load_records(str(out_path))) == 4

        stream = io.StringIO()
        assert (
            main(
                ["batch", str(specs_path), "-o", str(out_path), "--serial"],
                stream=stream,
            )
            == 0
        )
        assert "0 executed, 4 reused" in stream.getvalue()

    def test_batch_empty_file_errors(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["batch", str(empty)], stream=io.StringIO())


def _experiment_summary(text: str) -> dict:
    lines = [l for l in text.splitlines() if l.startswith("EXPERIMENT_SUMMARY ")]
    assert len(lines) == 1, text
    return json.loads(lines[0][len("EXPERIMENT_SUMMARY "):])


class TestExperimentCommand:
    def test_runs_quick_campaign_with_summary(self, tmp_path):
        stream = io.StringIO()
        assert (
            main(
                ["experiment", "e05", "--quick", "--serial", "--out", str(tmp_path)],
                stream=stream,
            )
            == 0
        )
        text = stream.getvalue()
        assert "bound_E2VlogD" in text
        summary = _experiment_summary(text)
        assert summary["experiments"] == ["e05"]
        assert summary["scale"] == "quick"
        assert summary["executed"] == summary["total_specs"] > 0
        assert (tmp_path / "e05.runs.jsonl").exists()
        assert (tmp_path / "e05.rows.json").exists()

    def test_resume_is_noop(self, tmp_path):
        args = ["experiment", "e05", "--quick", "--serial", "--out", str(tmp_path)]
        assert main(args, stream=io.StringIO()) == 0
        stream = io.StringIO()
        assert main(args, stream=stream) == 0
        summary = _experiment_summary(stream.getvalue())
        assert summary["executed"] == 0
        assert summary["reused"] == summary["total_specs"] > 0

    def test_legacy_ids_accepted(self):
        stream = io.StringIO()
        assert main(["experiment", "E5", "--quick", "--serial"], stream=stream) == 0
        assert _experiment_summary(stream.getvalue())["experiments"] == ["e05"]

    def test_engine_override(self):
        stream = io.StringIO()
        assert (
            main(
                ["experiment", "e05", "--quick", "--serial", "--engine", "fastpath"],
                stream=stream,
            )
            == 0
        )
        summary = _experiment_summary(stream.getvalue())
        assert summary["engine"] == "fastpath"
        assert summary["engines_applied"] == {"e05": "fastpath"}

    def test_engine_override_reported_as_ignored_where_ignored(self, tmp_path):
        """e02 runs no engine at all, so the summary and artifacts must not
        claim its results came from fastpath; e13 (lockstep rounds, a
        scheduler) takes the override like any grid."""
        stream = io.StringIO()
        assert (
            main(
                [
                    "experiment", "e13", "e02",
                    "--quick", "--serial", "--engine", "fastpath",
                    "--out", str(tmp_path),
                ],
                stream=stream,
            )
            == 0
        )
        summary = _experiment_summary(stream.getvalue())
        assert summary["engine"] == "fastpath"
        assert summary["engines_applied"] == {"e13": "fastpath", "e02": None}
        payload = json.loads((tmp_path / "e13.rows.json").read_text(encoding="utf-8"))
        assert payload["engine"] == "fastpath"
        payload = json.loads((tmp_path / "e02.rows.json").read_text(encoding="utf-8"))
        assert payload["engine"] is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["experiment", "e05", "--engine", "warp-drive"], stream=io.StringIO()
            )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"], stream=io.StringIO())

    def test_requires_names_or_spec(self):
        with pytest.raises(SystemExit):
            main(["experiment"], stream=io.StringIO())

    def test_quick_conflicts_with_other_scale(self):
        with pytest.raises(SystemExit):
            main(
                ["experiment", "e05", "--quick", "--scale", "full"],
                stream=io.StringIO(),
            )

    def test_unknown_scale_is_clean_error_before_any_run(self):
        # A typo'd scale must fail up front for the whole list (no partial
        # campaign execution, no traceback).
        with pytest.raises(SystemExit, match="no scale 'nope'"):
            main(
                ["experiment", "e05", "e13", "--scale", "nope", "--serial"],
                stream=io.StringIO(),
            )

    def test_spec_file_campaign(self, tmp_path):
        from repro.api import ExperimentSpec

        spec = ExperimentSpec(
            name="cli-demo",
            base={"graph": "random-grounded-tree", "protocol": "tree-broadcast"},
            axes={"graph_params.num_internal": [8], "seed": [0, 1]},
            aggregator="min-mean-max",
        )
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        stream = io.StringIO()
        assert (
            main(["experiment", "--spec", str(path), "--serial"], stream=stream) == 0
        )
        summary = _experiment_summary(stream.getvalue())
        assert summary["experiments"] == ["cli-demo"]
        assert summary["total_specs"] == 2

    def test_driver_experiment_through_campaign_cli(self):
        stream = io.StringIO()
        assert main(["experiment", "e02", "--quick", "--serial"], stream=stream) == 0
        text = stream.getvalue()
        assert "distinct_symbols" in text
        assert _experiment_summary(text)["rows"] == 3
