"""Campaigns run on the kernels by default; the reference loop is the oracle.

Every registered grid, at quick scale, must give the same rows on its
default engine (``fastpath``) as under ``CampaignRunner(engine="async")``.
The engine a grid's specs carry, and the ``applied_engine`` its result
reports, follow one rule: the runner's override, else the engine the
campaign's ``base`` names, else ``fastpath``; drivers report ``None``.
e13's lockstep rounds are a scheduler, so e13 follows the rule like any
other grid.
"""

import pytest

from repro.api import (
    EXPERIMENTS,
    CampaignRunner,
    DriverExperiment,
    ExperimentSpec,
    RunSpec,
    ensure_registered,
)
from repro.api.campaign import CAMPAIGN_ENGINE

ensure_registered()

GRIDS = [name for name in EXPERIMENTS.names() if isinstance(EXPERIMENTS.get(name), ExperimentSpec)]
DRIVERS = [name for name in EXPERIMENTS.names() if isinstance(EXPERIMENTS.get(name), DriverExperiment)]


def inline_spec(**base) -> ExperimentSpec:
    return ExperimentSpec(
        name="inline",
        base={"graph": "random-grounded-tree", "protocol": "tree-broadcast", **base},
        axes={"graph_params.num_internal": [6], "seed": [0, 1]},
        aggregator="min-mean-max",
        aggregator_params={"metric": "total_bits"},
    )


def test_registry_has_grids_and_drivers():
    assert CAMPAIGN_ENGINE == "fastpath"
    assert "e13" in GRIDS
    assert len(GRIDS) >= 10 and DRIVERS


def test_run_spec_default_stays_on_the_reference_loop():
    assert RunSpec(graph="random-grounded-tree", protocol="tree-broadcast").engine == "async"


@pytest.mark.parametrize("name", GRIDS)
def test_default_rows_equal_reference_loop_rows(name):
    default = CampaignRunner(scale="quick").run(name)
    reference = CampaignRunner(scale="quick", engine="async").run(name)
    assert default.rows, name
    assert default.rows == reference.rows, name
    assert default.applied_engine == "fastpath"
    assert reference.applied_engine == "async"
    assert {s.engine for s in default.specs} == {"fastpath"}
    assert {s.engine for s in reference.specs} == {"async"}


def test_e13_follows_the_engine_rule():
    e13 = EXPERIMENTS.get("e13")
    for engine, expected in ((None, "fastpath"), ("async", "async"), ("batch", "batch")):
        specs = e13.expand(scale="quick", engine=engine)
        assert {s.engine for s in specs} == {expected}
        assert {s.scheduler for s in specs} == {"rounds"}
        assert CampaignRunner(engine=engine)._applied_engine(e13) == expected


@pytest.mark.parametrize("name", DRIVERS)
def test_drivers_report_no_engine(name):
    driver = EXPERIMENTS.get(name)
    for engine in (None, "async", "fastpath"):
        assert CampaignRunner(engine=engine)._applied_engine(driver) is None


def test_unlocked_grid_defaults_to_fastpath():
    spec = inline_spec()
    assert {s.engine for s in spec.expand()} == {"fastpath"}
    result = CampaignRunner().run(spec)
    assert result.applied_engine == "fastpath"
    assert {r.spec.engine for r in result.records} == {"fastpath"}


def test_base_engine_wins_over_the_default():
    spec = inline_spec(engine="async")
    assert {s.engine for s in spec.expand()} == {"async"}
    result = CampaignRunner().run(spec)
    assert result.applied_engine == "async"
    assert {r.spec.engine for r in result.records} == {"async"}


def test_override_wins_over_the_base_engine():
    spec = inline_spec(engine="async")
    assert {s.engine for s in spec.expand(engine="batch")} == {"batch"}
    assert CampaignRunner(engine="batch")._applied_engine(spec) == "batch"


def test_engine_axis_wins_over_the_default():
    spec = ExperimentSpec(
        name="axis",
        base={"graph": "random-grounded-tree", "protocol": "tree-broadcast"},
        axes={"engine": ["async", "fastpath"], "seed": [0]},
    )
    assert [s.engine for s in spec.expand()] == ["async", "fastpath"]
