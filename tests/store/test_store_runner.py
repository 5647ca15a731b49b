"""BatchRunner/CampaignRunner + store wiring: O(pending) resume semantics."""

import pytest

from repro.api import BatchRunner, CampaignRunner, load_records
from repro.api.campaign import ExperimentSpec
from repro.store import ResultStore

from .test_store import make_spec


def grid_specs(n=4):
    return [make_spec(seed=s) for s in range(n)]


class TestBatchRunnerStore:
    def test_cold_run_publishes_every_record(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        runner = BatchRunner(parallel=False, store=store)
        specs = grid_specs()
        runner.run(specs)
        assert runner.stats.store_hits == 0
        assert runner.stats.store_misses == len(specs)
        assert store.stats().records == len(specs)

    def test_warm_run_executes_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        specs = grid_specs()
        cold = BatchRunner(parallel=False, store=store).run(specs)
        warm_runner = BatchRunner(parallel=False, store=store)
        warm = warm_runner.run(specs)
        assert warm_runner.stats.executed == 0
        assert warm_runner.stats.store_hits == len(specs)
        assert [r.to_json() for r in warm] == [r.to_json() for r in cold]

    def test_warm_resume_does_not_parse_jsonl(self, tmp_path, monkeypatch):
        """O(pending): a fully store-served batch never reads the JSONL file."""
        store = ResultStore(str(tmp_path / "store"))
        specs = grid_specs()
        out = str(tmp_path / "out.jsonl")
        BatchRunner(parallel=False, store=store).run(specs, output_path=out)

        def explode(path):
            raise AssertionError("load_records called on a fully store-served batch")

        monkeypatch.setattr("repro.api.runner.load_records", explode)
        runner = BatchRunner(parallel=False, store=store)
        fresh_out = str(tmp_path / "fresh.jsonl")
        records = runner.run(specs, output_path=fresh_out)
        assert runner.stats.executed == 0
        # the output file is still (re)written from the served records
        assert len(load_records(fresh_out)) == len(specs)
        assert [r.spec for r in records] == specs

    def test_warm_parallel_run_never_builds_a_pool(self, tmp_path, monkeypatch):
        """Acceptance bar: cache-served batches spawn no worker processes."""
        store = ResultStore(str(tmp_path / "store"))
        specs = grid_specs()
        BatchRunner(parallel=False, store=store).run(specs)

        class PoolBomb:
            def __init__(self, *args, **kwargs):
                raise AssertionError("ProcessPoolExecutor built for a warm batch")

        monkeypatch.setattr("repro.api.runner.ProcessPoolExecutor", PoolBomb)
        runner = BatchRunner(parallel=True, max_workers=2, store=store)
        records = runner.run(specs)
        assert runner.stats.executed == 0
        assert len(records) == len(specs)

    def test_legacy_jsonl_absorbed_into_store(self, tmp_path):
        """Old artifact dirs migrate into the store the first time they resume."""
        specs = grid_specs()
        out = str(tmp_path / "legacy.jsonl")
        BatchRunner(parallel=False).run(specs, output_path=out)  # no store: JSONL only

        store = ResultStore(str(tmp_path / "store"))
        runner = BatchRunner(parallel=False, store=store)
        runner.run(specs, output_path=out)
        assert runner.stats.executed == 0  # served by the file...
        assert store.stats().records == len(specs)  # ...and absorbed

        # second resume is now served by the store index
        runner2 = BatchRunner(parallel=False, store=store)
        runner2.run(specs, output_path=out)
        assert runner2.stats.store_hits == len(specs)

    def test_no_resume_skips_store_reads_but_still_publishes(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        specs = grid_specs(2)
        BatchRunner(parallel=False, store=store).run(specs)
        runner = BatchRunner(parallel=False, store=store)
        runner.run(specs, resume=False)
        assert runner.stats.executed == len(specs)
        assert runner.stats.store_hits == 0 and runner.stats.store_misses == 0


class TestCampaignRunnerStore:
    def campaign(self):
        return ExperimentSpec(
            name="store-wiring",
            base={
                "graph": "random-grounded-tree",
                "graph_params": {"num_internal": 8},
                "protocol": "tree-broadcast",
            },
            axes={"seed": [0, 1, 2]},
        )

    def test_grid_campaign_resolves_via_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        runner = CampaignRunner(store=store)
        cold = runner.run(self.campaign())
        assert cold.stats.store_misses == 3
        warm = CampaignRunner(store=store).run(self.campaign())
        assert warm.stats.executed == 0
        assert warm.stats.store_hits == 3
        assert warm.rows == cold.rows

    def test_store_spans_artifact_dirs(self, tmp_path):
        """Different out_dirs, same store: the second campaign is all hits."""
        store = ResultStore(str(tmp_path / "store"))
        CampaignRunner(store=store, out_dir=str(tmp_path / "a")).run(self.campaign())
        runner = CampaignRunner(store=store, out_dir=str(tmp_path / "b"))
        result = runner.run(self.campaign())
        assert result.stats.executed == 0
        assert result.stats.store_hits == 3
        assert (tmp_path / "b" / "store-wiring.rows.json").exists()
