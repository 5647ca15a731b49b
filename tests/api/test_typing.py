"""RunRecord.metrics typing is honest (ints included) and mypy-enforced.

``RunRecord.metrics`` was annotated ``Dict[str, Optional[float]]`` while
engine extras inject ints (the ``rounds`` scheduler's ``rounds`` and
``termination_round``).  The annotation is now the widened
:data:`repro.api.MetricValue`; the runtime test pins the int-ness and the
mypy test makes the checker's verdict on ``repro/api/spec.py`` a test
failure instead of an advisory CI annotation (the lint job additionally
gates this file non-advisorily).
"""

import pathlib
import typing

import pytest

import repro.api.spec
from repro.api import MetricValue, RunSpec
from repro.api.spec import RunRecord


def test_metrics_annotation_is_the_widened_union():
    hints = typing.get_type_hints(RunRecord)
    assert hints["metrics"] == typing.Dict[str, MetricValue]
    assert MetricValue == typing.Optional[typing.Union[int, float]]


def test_rounds_extras_really_are_ints():
    record = RunSpec(
        graph="random-grounded-tree",
        graph_params={"num_internal": 6},
        protocol="tree-broadcast",
        seed=0,
        scheduler="rounds",
    ).run()
    assert type(record.metrics["rounds"]) is int
    assert type(record.metrics["termination_round"]) is int
    # ...and they survive the JSON round-trip as ints.
    clone = RunRecord.from_json(record.to_json())
    assert type(clone.metrics["rounds"]) is int


def test_spec_module_is_mypy_clean():
    mypy_api = pytest.importorskip(
        "mypy.api", reason="mypy not installed (CI lint job gates this too)"
    )
    spec_path = pathlib.Path(repro.api.spec.__file__).resolve()
    out, err, status = mypy_api.run(
        [
            "--ignore-missing-imports",
            "--follow-imports=silent",
            "--no-error-summary",
            str(spec_path),
        ]
    )
    assert status == 0, f"mypy errors in spec.py:\n{out}{err}"
