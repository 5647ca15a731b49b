"""One campaign request, two front doors: ``repro experiment`` and ``repro serve``.

Both parse a request with :meth:`CampaignRequest.parse`.  One table of
request defects goes through ``main([...])`` and
``ExperimentService.submit``; each must be rejected with the same message,
as a one-line ``SystemExit`` on the CLI (the interpreter prints it as one
stderr line and exits 1) and as a :class:`JobError` (HTTP 400) in the
service, with no job created.
"""

import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.api import CampaignRequest, ExperimentSpec, SpecError
from repro.cli import main
from repro.service import ExperimentService, JobError

SPEC = {
    "name": "parity",
    "base": {
        "graph": "random-grounded-tree",
        "graph_params": {"num_internal": 6},
        "protocol": "tree-broadcast",
    },
    "axes": {"seed": [0, 1]},
    "aggregator": "min-mean-max",
}


def typo(**patch):
    """``SPEC`` with ``base`` fields, axes or the aggregator replaced."""
    spec = json.loads(json.dumps(SPEC))
    for key, value in patch.items():
        if key in ("axes", "aggregator"):
            spec[key] = value
        else:
            spec["base"][key] = value
    return spec


#: (payload as the service takes it, the message both front doors give).
DEFECTS = {
    "unknown-name": ({"experiments": ["e99"]}, "unknown experiment 'e99'; registered: e01, "),
    "bad-scale": (
        {"experiments": ["e05"], "scale": "nope"},
        "experiment 'e05' has no scale 'nope'; known: quick",
    ),
    "quick-and-scale": (
        {"experiments": ["e05"], "quick": True, "scale": "full"},
        "'quick' is shorthand for scale 'quick'; give one of them",
    ),
    "unknown-engine": (
        {"experiments": ["e05"], "engine": "warp"},
        "unknown engine 'warp'; registered: ",
    ),
    "names-and-spec": (
        {"experiments": ["e05"], "spec": SPEC},
        "give exactly one of experiment names or an experiment spec",
    ),
    "neither": ({}, "give exactly one of experiment names or an experiment spec"),
    "typo-graph": ({"spec": typo(graph="random-tree")}, "unknown graph 'random-tree'; registered: "),
    "typo-protocol": (
        {"spec": typo(protocol="tree-brodcast")},
        "unknown protocol 'tree-brodcast'; registered: ",
    ),
    "typo-scheduler": (
        {"spec": typo(axes={"scheduler": ["fifo", "lifoo"]})},
        "unknown scheduler 'lifoo'; registered: ",
    ),
    "typo-transform": (
        {"spec": typo(graph_transforms=["with-dead-end"])},
        "'with-dead-end'; registered: ",
    ),
    "typo-aggregator": (
        {"spec": typo(aggregator="min-mean-maxx")},
        "unknown aggregator 'min-mean-maxx'; registered: ",
    ),
}


def cli_argv(payload, tmp_path):
    """The ``repro experiment`` command line asking for ``payload``."""
    argv = ["experiment", *payload.get("experiments", [])]
    if "spec" in payload:
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(payload["spec"]), encoding="utf-8")
        argv += ["--spec", str(path)]
    if "scale" in payload:
        argv += ["--scale", payload["scale"]]
    if payload.get("quick"):
        argv.append("--quick")
    if "engine" in payload:
        argv += ["--engine", payload["engine"]]
    return argv + ["--serial", "--no-store"]


@pytest.fixture()
def service():
    service = ExperimentService(parallel=False)
    yield service
    service.close()


@pytest.mark.parametrize("payload, message", DEFECTS.values(), ids=DEFECTS.keys())
def test_both_front_doors_reject_with_one_message(service, tmp_path, payload, message):
    with pytest.raises(SystemExit) as cli:
        main(cli_argv(payload, tmp_path), stream=io.StringIO())
    with pytest.raises(JobError) as served:
        service.submit(payload)
    assert isinstance(cli.value.code, str)
    assert "\n" not in cli.value.code
    assert cli.value.code == str(served.value)
    assert message in cli.value.code
    assert service.jobs() == []


def test_legacy_spelling_is_accepted_by_both(service, tmp_path):
    payload = {"experiments": ["E5"], "quick": True}
    stream = io.StringIO()
    assert main(cli_argv(payload, tmp_path), stream=stream) == 0
    line = [l for l in stream.getvalue().splitlines() if l.startswith("EXPERIMENT_SUMMARY ")]
    assert json.loads(line[0][len("EXPERIMENT_SUMMARY "):])["experiments"] == ["e05"]
    job, created = service.submit(payload)
    assert created and job.experiments == ["e05"]
    assert job.wait(timeout=120) and job.state == "completed", job.error


def test_inline_grid_is_expanded_once_before_its_job_runs(service, monkeypatch):
    calls = []
    expand = ExperimentSpec.expand

    def counted(self, **kwargs):
        calls.append(self.name)
        return expand(self, **kwargs)

    monkeypatch.setattr(ExperimentSpec, "expand", counted)
    job, _ = service.submit({"spec": SPEC})
    assert job.wait(timeout=120) and job.state == "completed", job.error
    # Once to check the request, once by the campaign runner.
    assert calls == ["parity", "parity"]
    assert job.snapshot()["progress"] == {"done": 2, "total": 2}


def test_typo_is_one_stderr_line_from_the_interpreter(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(typo(aggregator="min-mean-maxx")), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "--spec", str(path), "--no-store"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(lines) == 1 and "unknown aggregator 'min-mean-maxx'" in lines[0]


class TestParse:
    def test_names_resolve_to_registered_experiments(self):
        request = CampaignRequest.parse({"experiments": ["E5", "e1", "e05"], "quick": True})
        assert [experiment.name for experiment in request.experiments] == ["e05", "e01", "e05"]
        assert request.scale == "quick" and request.engine is None

    def test_all_means_every_registered_experiment(self):
        from repro.api import EXPERIMENTS

        request = CampaignRequest.parse({"experiment": "ALL"})
        assert [experiment.name for experiment in request.experiments] == list(EXPERIMENTS.names())

    def test_inline_spec_becomes_the_request(self):
        request = CampaignRequest.parse({"spec": SPEC, "engine": "fastpath"})
        assert request.experiments == (ExperimentSpec.from_dict(SPEC),)
        assert request.engine == "fastpath"

    @pytest.mark.parametrize("quick", ["no", 1, [True]])
    def test_quick_is_a_boolean(self, quick):
        with pytest.raises(SpecError, match="quick must be true or false"):
            CampaignRequest.parse({"experiment": "e01", "quick": quick})

    def test_inline_spec_without_the_scale(self):
        with pytest.raises(SpecError, match="has no scale 'quick'; known: <none defined>"):
            CampaignRequest.parse({"spec": SPEC, "quick": True})

    def test_grid_size_is_the_expansion_length(self):
        spec = ExperimentSpec.from_dict(
            {**SPEC, "axes": {"seed": [0, 1, 2], "scheduler": ["fifo", "lifo"]}}
        )
        assert spec.size() == len(spec.expand()) == 6
        assert ExperimentSpec.from_dict({**SPEC, "axes": {}}).size() == 1
