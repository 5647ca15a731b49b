"""Tests for the campaign layer: ExperimentSpec grids + CampaignRunner."""

import json

import pytest

from repro.api import (
    AGGREGATORS,
    EXPERIMENTS,
    CampaignRunner,
    DriverExperiment,
    ExperimentSpec,
    SpecError,
    ensure_registered,
    run_experiment,
)


def demo_spec(**overrides) -> ExperimentSpec:
    payload = dict(
        name="demo",
        title="demo sweep",
        base={"graph": "random-grounded-tree", "protocol": "tree-broadcast"},
        axes={"graph_params.num_internal": [8, 12], "seed": [0, 1, 2]},
        aggregator="min-mean-max",
        aggregator_params={"metric": "total_bits"},
        scales={"quick": {"seed": [0]}},
    )
    payload.update(overrides)
    return ExperimentSpec(**payload)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = demo_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = demo_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_every_registered_grid_round_trips(self):
        ensure_registered()
        for name in EXPERIMENTS.names():
            experiment = EXPERIMENTS.get(name)
            if isinstance(experiment, ExperimentSpec):
                assert ExperimentSpec.from_dict(experiment.to_dict()) == experiment

    def test_unknown_field_rejected(self):
        payload = demo_spec().to_dict()
        payload["gird"] = {}
        with pytest.raises(SpecError, match="unknown experiment field"):
            ExperimentSpec.from_dict(payload)

    def test_title_not_part_of_identity(self):
        a = demo_spec(title="one")
        b = demo_spec(title="two")
        assert a.experiment_id == b.experiment_id
        assert a != b  # equality still sees the title; the id does not

    def test_tuple_axes_normalise_to_lists(self):
        spec = demo_spec(axes={"seed": (0, 1)})
        assert spec.axes == {"seed": [0, 1]}


class TestValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="non-empty list"):
            demo_spec(axes={"seed": []}, scales={})

    def test_patch_axis_values_must_be_dicts(self):
        with pytest.raises(SpecError, match="patch axis"):
            demo_spec(axes={"@workload": [1, 2]}, scales={})

    def test_scale_overriding_unknown_axis_rejected(self):
        with pytest.raises(SpecError, match="unknown axes"):
            demo_spec(scales={"quick": {"nope": [1]}})

    def test_unknown_scale_rejected_at_expand(self):
        with pytest.raises(SpecError, match="no scale"):
            demo_spec().expand(scale="galactic")


class TestExpansion:
    def test_deterministic_order(self):
        spec = demo_spec()
        first = spec.expand()
        second = spec.expand()
        assert first == second
        assert [s.spec_id for s in first] == [s.spec_id for s in second]

    def test_first_axis_outermost(self):
        spec = demo_spec()
        runs = [(s.graph_params["num_internal"], s.seed) for s in spec.expand()]
        assert runs == [(n, seed) for n in (8, 12) for seed in (0, 1, 2)]

    def test_expansion_order_survives_json(self):
        spec = demo_spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        assert [s.spec_id for s in clone.expand()] == [
            s.spec_id for s in spec.expand()
        ]

    def test_scale_overrides_axes(self):
        specs = demo_spec().expand(scale="quick")
        assert [s.seed for s in specs] == [0, 0]

    def test_patch_axis_sets_fields_together(self):
        spec = demo_spec(
            axes={
                "@workload": [
                    {"graph": "random-dag", "protocol": "dag-broadcast"},
                    {"graph": "random-digraph", "protocol": "general-broadcast"},
                ],
                "seed": [7],
            },
            scales={},
        )
        expanded = spec.expand()
        assert [(s.graph, s.protocol, s.seed) for s in expanded] == [
            ("random-dag", "dag-broadcast", 7),
            ("random-digraph", "general-broadcast", 7),
        ]

    def test_engine_override(self):
        specs = demo_spec().expand(engine="fastpath")
        assert all(s.engine == "fastpath" for s in specs)

    def test_result_reports_applied_engine(self):
        result = CampaignRunner(engine="fastpath", parallel=False).run(
            demo_spec(scales={}, axes={"graph_params.num_internal": [8], "seed": [0]})
        )
        assert result.engine == "fastpath"
        assert result.applied_engine == "fastpath"

    def test_engine_locked_is_an_unknown_field(self):
        payload = {**demo_spec().to_dict(), "engine_locked": True}
        with pytest.raises(SpecError, match="engine_locked"):
            ExperimentSpec.from_dict(payload)

    def test_with_overrides_replaces_axes_and_patches_base(self):
        derived = demo_spec().with_overrides(
            axes={"seed": [9]}, base={"graph_params.num_internal": 5}
        )
        specs = derived.expand()
        # The size axis still overrides the patched base value; the seed
        # axis was replaced wholesale.
        assert {s.seed for s in specs} == {9}
        assert derived.base["graph_params"]["num_internal"] == 5


class TestCampaignRunner:
    def test_rows_via_named_aggregator(self):
        result = CampaignRunner(parallel=False).run(demo_spec())
        assert [row["n_internal"] for row in result.rows] == [8, 12]
        for row in result.rows:
            assert row["runs"] == 3
            assert row["total_bits_min"] <= row["total_bits_mean"] <= row["total_bits_max"]

    def test_runs_registered_experiment_by_name(self):
        result = run_experiment("e05", scale="quick", parallel=False)
        assert result.stats.total == len(result.records) == len(result.rows)

    def test_resume_is_zero_reexecution(self, tmp_path):
        runner = CampaignRunner(parallel=False, out_dir=str(tmp_path))
        first = runner.run(demo_spec())
        assert first.stats.executed == 6 and first.stats.reused == 0
        again = CampaignRunner(parallel=False, out_dir=str(tmp_path)).run(demo_spec())
        assert again.stats.executed == 0 and again.stats.reused == 6
        assert [r.comparable_dict() for r in again.records] == [
            r.comparable_dict() for r in first.records
        ]

    def test_resume_from_partial_artifacts(self, tmp_path):
        runner = CampaignRunner(parallel=False, out_dir=str(tmp_path))
        runner.run(demo_spec())
        runs_path = tmp_path / "demo.runs.jsonl"
        lines = runs_path.read_text(encoding="utf-8").splitlines()
        # Simulate an interrupted campaign: drop two completed runs.
        runs_path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
        resumed = CampaignRunner(parallel=False, out_dir=str(tmp_path)).run(demo_spec())
        assert resumed.stats.executed == 2
        assert resumed.stats.reused == 4

    def test_no_resume_reexecutes(self, tmp_path):
        CampaignRunner(parallel=False, out_dir=str(tmp_path)).run(demo_spec())
        rerun = CampaignRunner(
            parallel=False, out_dir=str(tmp_path), resume=False
        ).run(demo_spec())
        assert rerun.stats.executed == 6

    def test_rows_artifact_written(self, tmp_path):
        CampaignRunner(parallel=False, out_dir=str(tmp_path)).run(demo_spec())
        payload = json.loads((tmp_path / "demo.rows.json").read_text(encoding="utf-8"))
        assert payload["experiment"]["name"] == "demo"
        assert len(payload["rows"]) == 2
        assert payload["stats"]["executed"] == 6

    def test_unknown_aggregator_fails(self):
        spec = demo_spec(aggregator="no-such-reduction")
        with pytest.raises(KeyError):
            CampaignRunner(parallel=False).run(spec)


class TestRegisteredExperiments:
    def test_all_nineteen_registered(self):
        ensure_registered()
        assert set(EXPERIMENTS.names()) == {f"e{i:02d}" for i in range(1, 20)}

    def test_grid_campaigns_expand(self):
        ensure_registered()
        for name in EXPERIMENTS.names():
            experiment = EXPERIMENTS.get(name)
            if isinstance(experiment, ExperimentSpec):
                assert experiment.expand(), name
                if "quick" in experiment.scales:
                    assert experiment.expand(scale="quick"), name

    def test_aggregators_registered(self):
        ensure_registered()
        for name in EXPERIMENTS.names():
            experiment = EXPERIMENTS.get(name)
            if isinstance(experiment, ExperimentSpec):
                assert experiment.aggregator in AGGREGATORS

    def test_driver_experiments_resolve(self):
        ensure_registered()
        drivers = [
            EXPERIMENTS.get(name)
            for name in EXPERIMENTS.names()
            if isinstance(EXPERIMENTS.get(name), DriverExperiment)
        ]
        assert {d.name for d in drivers} == {"e02", "e04", "e07", "e14", "e19"}
        for driver in drivers:
            assert callable(driver.resolve())

    def test_observing_campaign_resumes_from_its_records(self, tmp_path):
        cold = run_experiment("e06", scale="quick", parallel=False, out_dir=str(tmp_path))
        assert cold.rows and all(row["labels_disjoint"] for row in cold.rows)
        assert cold.stats.executed == cold.stats.total
        # the observables are in the records, so the runs file resumes them
        warm = run_experiment("e06", scale="quick", parallel=False, out_dir=str(tmp_path))
        assert warm.stats.executed == 0 and warm.stats.reused == cold.stats.total
        assert warm.rows == cold.rows

    def test_driver_experiment_quick_scale(self):
        result = run_experiment("e02", scale="quick")
        assert [row["n"] for row in result.rows] == [4, 8, 16]
        assert result.stats.total == 0 and result.records == []
