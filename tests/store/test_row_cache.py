"""The store's row cache: a warm campaign runs no spec and calls no driver."""

import functools
import importlib
import json
import os
import sqlite3

import pytest

from repro.api import (
    AGGREGATORS,
    EXPERIMENTS,
    BatchRunner,
    CampaignRunner,
    DriverExperiment,
    ExperimentSpec,
    ensure_registered,
)
from repro.store import ResultStore


def tiny_campaign(aggregator="records"):
    return ExperimentSpec(
        name="row-cache",
        base={
            "graph": "random-grounded-tree",
            "graph_params": {"num_internal": 8},
            "protocol": "tree-broadcast",
        },
        axes={"seed": [0, 1, 2]},
        aggregator=aggregator,
    )


def user_driver():
    """A driver defined outside the fingerprinted tree."""
    return [{"answer": 42}]


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "store")) as store:
        yield store


def counting(monkeypatch, owner, attr):
    """Wrap ``owner.attr`` so calls are counted; return the call list."""
    calls = []
    raw = getattr(owner, attr)

    @functools.wraps(raw)
    def spy(*args, **kwargs):
        calls.append(args)
        return raw(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)
    return calls


class TestWarmCampaigns:
    def test_warm_pass_over_every_experiment_runs_nothing(self, store, monkeypatch):
        ensure_registered()
        names = EXPERIMENTS.names()
        cold = {name: CampaignRunner(scale="quick", store=store).run(name) for name in names}
        assert not any(result.rows_cached for result in cold.values())

        batches = counting(monkeypatch, BatchRunner, "run")
        driver_calls = []
        for name in names:
            experiment = EXPERIMENTS.get(name)
            if isinstance(experiment, DriverExperiment):
                module, _, attr = experiment.driver.partition(":")
                driver_calls.append(counting(monkeypatch, importlib.import_module(module), attr))

        runner = CampaignRunner(scale="quick", store=store)
        warm = {name: runner.run(name) for name in names}
        assert batches == []
        assert len(driver_calls) >= 5 and all(calls == [] for calls in driver_calls)
        for name in names:
            assert warm[name].rows_cached, name
            assert warm[name].rows == cold[name].rows, name
            assert warm[name].stats.total == cold[name].stats.total, name
        assert store.stats().row_entries == len(names)

    def test_hit_result_and_stats(self, store):
        cold = CampaignRunner(store=store).run(tiny_campaign())
        warm = CampaignRunner(store=store).run(tiny_campaign())
        assert not cold.rows_cached and warm.rows_cached
        assert warm.rows == cold.rows
        assert warm.specs == [] and warm.records == []
        stats = warm.stats
        assert (stats.total, stats.executed, stats.reused) == (3, 0, 3)
        assert (stats.store_hits, stats.store_misses) == (3, 0)

    def test_hit_keeps_row_column_order(self, store):
        cold = CampaignRunner(store=store).run(tiny_campaign())
        warm = CampaignRunner(store=store).run(tiny_campaign())
        assert [list(row) for row in warm.rows] == [list(row) for row in cold.rows]

    def test_hit_writes_rows_and_leaves_runs_file(self, store, tmp_path):
        out = tmp_path / "a"
        CampaignRunner(store=store, out_dir=str(out)).run(tiny_campaign())
        runs = (out / "row-cache.runs.jsonl").read_bytes()
        (out / "row-cache.rows.json").unlink()

        warm = CampaignRunner(store=store, out_dir=str(out)).run(tiny_campaign())
        assert warm.rows_cached
        assert (out / "row-cache.runs.jsonl").read_bytes() == runs
        assert json.loads((out / "row-cache.rows.json").read_text())["rows"] == warm.rows
        assert warm.runs_path == str(out / "row-cache.runs.jsonl")

        fresh = CampaignRunner(store=store, out_dir=str(tmp_path / "b")).run(tiny_campaign())
        assert fresh.rows_cached and fresh.runs_path is None
        assert (tmp_path / "b" / "row-cache.rows.json").exists()
        assert not (tmp_path / "b" / "row-cache.runs.jsonl").exists()


class TestInvalidation:
    def test_corrupt_payload_is_recomputed(self, store):
        cold = CampaignRunner(store=store).run(tiny_campaign())
        conn = sqlite3.connect(os.path.join(store.root, "index.sqlite"))
        with conn:
            conn.execute("UPDATE rows SET payload = replace(payload, '\"steps\"', '\"stepz\"')")
        conn.close()
        report = store.verify()
        assert not report.clean and len(report.corrupt_rows) == 1

        again = CampaignRunner(store=store).run(tiny_campaign())
        assert not again.rows_cached and again.rows == cold.rows
        assert store.verify().clean
        assert CampaignRunner(store=store).run(tiny_campaign()).rows_cached

    def test_other_code_version_misses(self, store):
        CampaignRunner(store=store).run(tiny_campaign())
        other = ResultStore(store.root, code_version="other")
        result = CampaignRunner(store=other).run(tiny_campaign())
        assert not result.rows_cached
        assert result.stats.executed == 3  # records are partitioned the same way
        assert other.stats().row_entries_by_code_version == {
            store.code_version: 1,
            "other": 1,
        }

    @pytest.mark.parametrize("change", ["scale", "engine", "axes"])
    def test_digest_covers_the_campaign(self, store, change):
        campaign = ExperimentSpec.from_dict(
            dict(tiny_campaign().to_dict(), scales={"quick": {"seed": [0]}})
        )
        base = CampaignRunner(store=store)
        if change == "scale":
            other, variant = CampaignRunner(store=store, scale="quick"), campaign
        elif change == "engine":
            # Grids run on fastpath by default; the reference loop is another engine.
            other, variant = CampaignRunner(store=store, engine="async"), campaign
        else:
            other, variant = base, campaign.with_overrides(axes={"seed": [2, 1, 0]})
        assert base.rows_digest(campaign) != other.rows_digest(variant)

    def test_digest_keys_on_the_engine_that_ran(self, store):
        # The default and an explicit fastpath run the same specs, so they
        # share rows; so do a base that names async and an async override.
        campaign = tiny_campaign()
        default = CampaignRunner(store=store).rows_digest(campaign)
        assert default == CampaignRunner(store=store, engine="fastpath").rows_digest(campaign)
        on_async = ExperimentSpec.from_dict(
            dict(campaign.to_dict(), base=dict(campaign.base, engine="async"))
        )
        assert CampaignRunner(store=store).rows_digest(on_async) == CampaignRunner(
            store=store, engine="async"
        ).rows_digest(on_async)


class TestBypass:
    def test_trace_neither_reads_nor_writes(self, store, monkeypatch):
        CampaignRunner(store=store).run(tiny_campaign())
        reads = counting(monkeypatch, ResultStore, "get_rows")
        writes = counting(monkeypatch, ResultStore, "put_rows")
        result = CampaignRunner(store=store, trace="sample:1").run(tiny_campaign())
        assert not result.rows_cached
        assert reads == [] and writes == []

    def test_no_resume_skips_the_read_but_publishes(self, store, monkeypatch):
        CampaignRunner(store=store).run(tiny_campaign())
        reads = counting(monkeypatch, ResultStore, "get_rows")
        writes = counting(monkeypatch, ResultStore, "put_rows")
        result = CampaignRunner(store=store, resume=False).run(tiny_campaign())
        assert not result.rows_cached and result.stats.executed == 3
        assert reads == [] and len(writes) == 1
        assert store.stats().row_entries == 1

    def test_no_store_no_cache(self):
        result = CampaignRunner().run(tiny_campaign())
        assert not result.rows_cached
        assert CampaignRunner().rows_digest(tiny_campaign()) is None

    def test_user_aggregator_rows_are_not_cached(self, store, monkeypatch):
        def user_rows(records):
            return [{"steps": record.metrics["steps"]} for record in records]

        monkeypatch.setitem(AGGREGATORS._factories, "user-rows", user_rows)
        CampaignRunner(store=store).run(tiny_campaign("user-rows"))
        warm = CampaignRunner(store=store).run(tiny_campaign("user-rows"))
        assert not warm.rows_cached
        assert warm.stats.store_hits == 3  # records are still cached
        assert store.stats().row_entries == 0

    def test_user_driver_rows_are_not_cached(self, store):
        experiment = DriverExperiment(name="user", driver=f"{__name__}:user_driver")
        CampaignRunner(store=store).run(experiment)
        warm = CampaignRunner(store=store).run(experiment)
        assert not warm.rows_cached and warm.rows == user_driver()
        assert store.stats().row_entries == 0


class TestRowStore:
    def test_round_trip(self, store):
        payload = {"total": 2, "rows": [{"b": 1, "a": [1.5, None, "x"]}]}
        assert store.put_rows("d1", payload)
        fetched = store.get_rows("d1")
        assert fetched == payload and list(fetched["rows"][0]) == ["b", "a"]
        assert store.get_rows("missing") is None

    @pytest.mark.parametrize(
        "rows",
        [[{"pair": (1, 2)}], [{1: "int key"}], [{"x": float("nan")}], [{"x": object()}]],
        ids=["tuple", "int-key", "nan", "object"],
    )
    def test_payloads_that_do_not_round_trip_are_refused(self, store, rows):
        assert not store.put_rows("d", {"total": 1, "rows": rows})
        assert store.get_rows("d") is None

    def test_gc_expires_rows_by_age(self, store):
        store.put_rows("old", {"total": 0, "rows": []})
        store.put_rows("new", {"total": 0, "rows": []})
        conn = sqlite3.connect(os.path.join(store.root, "index.sqlite"))
        with conn:
            conn.execute("UPDATE rows SET created_at = created_at - 10 * 86400 WHERE digest = 'old'")
        conn.close()
        report = store.gc(keep_days=5)
        assert report.removed_rows == 1
        assert store.get_rows("old") is None and store.get_rows("new") is not None

    def test_gc_drops_corrupt_rows(self, store):
        store.put_rows("d", {"total": 0, "rows": [{"a": 1}]})
        conn = sqlite3.connect(os.path.join(store.root, "index.sqlite"))
        with conn:
            conn.execute("UPDATE rows SET payload = replace(payload, '1', '2')")
        conn.close()
        assert store.verify().corrupt_rows == ["d"]
        assert store.gc().removed_rows == 1
        assert store.verify().clean and store.stats().row_entries == 0

    @pytest.mark.parametrize("days", [-1, float("nan"), float("inf")])
    def test_gc_rejects_bad_keep_days(self, store, days):
        from repro.store import StoreError

        store.put_rows("d", {"total": 0, "rows": []})
        with pytest.raises(StoreError, match="finite number >= 0"):
            store.gc(keep_days=days)
        assert store.get_rows("d") is not None
