"""Tests for the BatchRunner: ordering, determinism, persistence, resume."""

import json

import pytest

from repro.api import BatchRunner, RunSpec, load_records, run_specs


def tree_specs(n: int, size: int = 10):
    return [
        RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": size},
            protocol="tree-broadcast",
            seed=seed,
        )
        for seed in range(n)
    ]


def strip_timing(line: str) -> str:
    payload = json.loads(line)
    payload.pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestOrderingAndDeterminism:
    def test_records_in_input_order(self):
        specs = tree_specs(5)
        records = BatchRunner(parallel=False).run(specs)
        assert [r.spec for r in records] == specs

    def test_serial_and_parallel_agree_modulo_timing(self):
        specs = tree_specs(6)
        serial = BatchRunner(parallel=False).run(specs)
        parallel = BatchRunner(max_workers=2, chunksize=2).run(specs)
        assert [r.comparable_dict() for r in serial] == [
            r.comparable_dict() for r in parallel
        ]

    def test_jsonl_byte_identical_modulo_timing(self, tmp_path):
        specs = tree_specs(6)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        BatchRunner(parallel=False).run(specs, output_path=str(out_a))
        BatchRunner(max_workers=2).run(specs, output_path=str(out_b))
        lines_a = out_a.read_text(encoding="utf-8").splitlines()
        lines_b = out_b.read_text(encoding="utf-8").splitlines()
        assert len(lines_a) == len(lines_b) == len(specs)
        assert [strip_timing(l) for l in lines_a] == [strip_timing(l) for l in lines_b]


class TestPersistenceAndResume:
    def test_output_file_parses_back(self, tmp_path):
        specs = tree_specs(4)
        out = tmp_path / "out.jsonl"
        records = BatchRunner(parallel=False).run(specs, output_path=str(out))
        loaded = load_records(str(out))
        assert [r.comparable_dict() for r in loaded] == [
            r.comparable_dict() for r in records
        ]

    def test_resume_skips_finished_specs(self, tmp_path):
        specs = tree_specs(8)
        out = tmp_path / "out.jsonl"
        runner = BatchRunner(parallel=False)

        # Simulate a batch killed after 3 specs: keep only 3 output lines.
        runner.run(specs[:3], output_path=str(out))
        assert runner.stats.executed == 3

        records = runner.run(specs, output_path=str(out))
        assert runner.stats.executed == 5
        assert runner.stats.reused == 3
        assert len(records) == 8
        assert [r.spec for r in records] == specs

        # A third run recomputes nothing at all.
        again = runner.run(specs, output_path=str(out))
        assert runner.stats.executed == 0
        assert runner.stats.reused == 8
        assert [r.comparable_dict() for r in again] == [
            r.comparable_dict() for r in records
        ]

    def test_resume_tolerates_truncated_final_line(self, tmp_path):
        specs = tree_specs(4)
        out = tmp_path / "out.jsonl"
        runner = BatchRunner(parallel=False)
        runner.run(specs, output_path=str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        # Chop the last record in half, as a mid-write crash would.
        out.write_text("\n".join(lines[:3] + [lines[3][: len(lines[3]) // 2]]) + "\n")
        records = runner.run(specs, output_path=str(out))
        assert runner.stats.executed == 1
        assert runner.stats.reused == 3
        assert len(records) == 4
        # The rewritten file is whole again.
        assert len(load_records(str(out))) == 4

    def test_subset_rerun_preserves_other_records(self, tmp_path):
        specs = tree_specs(6)
        out = tmp_path / "out.jsonl"
        runner = BatchRunner(parallel=False)
        runner.run(specs, output_path=str(out))

        subset_records = runner.run(specs[2:4], output_path=str(out))
        assert runner.stats.executed == 0
        assert len(subset_records) == 2
        # The four records outside the subset batch survive in the file.
        kept = load_records(str(out))
        assert len(kept) == 6
        assert {r.spec.spec_id for r in kept} == {s.spec_id for s in specs}

    def test_no_resume_forces_recompute(self, tmp_path):
        specs = tree_specs(3)
        out = tmp_path / "out.jsonl"
        runner = BatchRunner(parallel=False)
        runner.run(specs, output_path=str(out))
        runner.run(specs, output_path=str(out), resume=False)
        assert runner.stats.executed == 3

    def test_resume_keyed_by_content_not_label(self, tmp_path):
        specs = tree_specs(3)
        out = tmp_path / "out.jsonl"
        runner = BatchRunner(parallel=False)
        runner.run(specs, output_path=str(out))
        relabeled = [
            RunSpec.from_dict({**s.to_dict(), "label": f"run-{i}"})
            for i, s in enumerate(specs)
        ]
        runner.run(relabeled, output_path=str(out))
        assert runner.stats.executed == 0


class TestEdges:
    def test_duplicate_specs_executed_once(self):
        spec = tree_specs(1)[0]
        runner = BatchRunner(parallel=False)
        records = runner.run([spec, spec, spec])
        assert runner.stats.executed == 1
        assert len(records) == 3
        assert records[0] == records[1] == records[2]

    def test_empty_batch(self, tmp_path):
        out = tmp_path / "out.jsonl"
        runner = BatchRunner(parallel=False)
        assert runner.run([], output_path=str(out)) == []
        assert runner.stats.executed == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_progress_callback(self):
        seen = []
        runner = BatchRunner(parallel=False)
        runner.run(
            tree_specs(3),
            progress=lambda done, total, record: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_run_specs_convenience(self):
        records = run_specs(tree_specs(2), parallel=False)
        assert len(records) == 2
        assert all(r.terminated for r in records)

    def test_bad_constructor_args(self):
        with pytest.raises(ValueError):
            BatchRunner(max_workers=0)
        with pytest.raises(ValueError):
            BatchRunner(chunksize=0)


def batch_specs(n: int, **overrides):
    """A seed-group for the ``batch`` engine: same shape, seeds 0..n-1."""
    base = dict(
        graph="path-network",
        graph_params={"length": 6},
        protocol="flooding",
        scheduler="random",
        engine="batch",
    )
    base.update(overrides)
    return [RunSpec(seed=seed, **base) for seed in range(n)]


class TestSeedGrouping:
    """Batching-capable engines get their pending work grouped by shape
    (spec id modulo seed) and dispatched through ``run_many``."""

    def test_groups_counted_and_records_match_fastpath(self):
        pytest.importorskip("numpy")
        import dataclasses

        from repro.api import execute_spec

        specs = batch_specs(6)
        runner = BatchRunner(parallel=False, min_group_size=2)
        records = runner.run(specs)
        assert runner.stats.batched_groups == 1
        assert runner.stats.executed == 6
        assert runner.stats.batch_fallbacks == {}
        for record, spec in zip(records, specs):
            twin = execute_spec(dataclasses.replace(spec, engine="fastpath"))
            got, expected = record.comparable_dict(), twin.comparable_dict()
            got["spec"].pop("engine"), expected["spec"].pop("engine")
            assert got == expected

    def test_distinct_shapes_form_distinct_groups(self):
        pytest.importorskip("numpy")
        specs = batch_specs(3) + batch_specs(3, graph_params={"length": 8})
        runner = BatchRunner(parallel=False, min_group_size=2)
        runner.run(specs)
        assert runner.stats.batched_groups == 2

    def test_non_batching_engines_never_group(self):
        runner = BatchRunner(parallel=False)
        runner.run(batch_specs(4, engine="fastpath"))
        assert runner.stats.batched_groups == 0
        assert runner.stats.executed == 4

    def test_singleton_group_skips_run_many(self):
        runner = BatchRunner(parallel=False)
        runner.run(batch_specs(1))
        assert runner.stats.batched_groups == 0
        assert runner.stats.executed == 1

    def test_serial_and_parallel_groups_agree_modulo_timing(self):
        pytest.importorskip("numpy")
        specs = batch_specs(8) + tree_specs(3)
        serial_runner = BatchRunner(parallel=False)
        serial = serial_runner.run(specs)
        parallel_runner = BatchRunner(max_workers=2)
        parallel = parallel_runner.run(specs)
        assert [r.comparable_dict() for r in serial] == [
            r.comparable_dict() for r in parallel
        ]
        assert serial_runner.stats.batched_groups == 1
        assert parallel_runner.stats.batched_groups == 1

    def test_store_hit_inside_group_is_not_reexecuted(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.store import ResultStore

        specs = batch_specs(5)
        store = ResultStore(str(tmp_path / "store"))
        # Pre-populate the store with the *middle* member of the group.
        seeded = BatchRunner(parallel=False, store=store)
        seeded.run([specs[2]])
        runner = BatchRunner(parallel=False, store=store, min_group_size=2)
        records = runner.run(specs)
        assert runner.stats.store_hits == 1
        assert runner.stats.executed == 4  # the hit shrank the group
        assert runner.stats.batched_groups == 1
        assert [r.spec for r in records] == specs

    def test_jsonl_resume_shrinks_group(self, tmp_path):
        pytest.importorskip("numpy")
        specs = batch_specs(5)
        out = tmp_path / "records.jsonl"
        BatchRunner(parallel=False).run(specs[:2], output_path=str(out))
        runner = BatchRunner(parallel=False, min_group_size=2)
        records = runner.run(specs, output_path=str(out))
        assert runner.stats.reused == 2
        assert runner.stats.executed == 3
        assert runner.stats.batched_groups == 1
        assert len(records) == 5


class TestMinGroupSize:
    """Seed-groups below ``min_group_size`` run per-spec (SoA set-up
    overhead beats the speedup at tiny K) and are tallied as fallbacks."""

    def test_default_threshold_turns_small_groups_away(self):
        import dataclasses

        from repro.api import execute_spec
        from repro.api.runner import DEFAULT_MIN_GROUP_SIZE

        specs = batch_specs(DEFAULT_MIN_GROUP_SIZE - 1)
        runner = BatchRunner(parallel=False)
        records = runner.run(specs)
        assert runner.stats.batched_groups == 0
        assert runner.stats.batch_fallbacks == {"small_group": len(specs)}
        # The fallback path is the fastpath engine: records still match.
        for record, spec in zip(records, specs):
            twin = execute_spec(dataclasses.replace(spec, engine="fastpath"))
            got, expected = record.comparable_dict(), twin.comparable_dict()
            got["spec"].pop("engine"), expected["spec"].pop("engine")
            assert got == expected

    def test_default_threshold_batches_at_exactly_eight(self):
        pytest.importorskip("numpy")
        from repro.api.runner import DEFAULT_MIN_GROUP_SIZE

        specs = batch_specs(DEFAULT_MIN_GROUP_SIZE)
        runner = BatchRunner(parallel=False)
        runner.run(specs)
        assert runner.stats.batched_groups == 1
        assert runner.stats.batch_fallbacks == {}

    def test_threshold_override(self):
        pytest.importorskip("numpy")
        specs = batch_specs(3)
        runner = BatchRunner(parallel=False, min_group_size=3)
        runner.run(specs)
        assert runner.stats.batched_groups == 1

        strict = BatchRunner(parallel=False, min_group_size=50)
        strict.run(batch_specs(3, graph_params={"length": 7}))
        assert strict.stats.batched_groups == 0
        assert strict.stats.batch_fallbacks == {"small_group": 3}

    def test_threshold_floor_is_two(self):
        # min_group_size=1 cannot force singleton groups through run_many:
        # there is nothing to batch a singleton with.
        runner = BatchRunner(parallel=False, min_group_size=1)
        runner.run(batch_specs(1))
        assert runner.stats.batched_groups == 0
        assert runner.stats.batch_fallbacks == {}

    def test_singletons_are_not_counted_as_fallbacks(self):
        runner = BatchRunner(parallel=False)
        runner.run(batch_specs(1))
        assert runner.stats.batch_fallbacks == {}

    def test_bad_min_group_size(self):
        with pytest.raises(ValueError):
            BatchRunner(min_group_size=0)


class TestBatchFallbackCounters:
    """``BatchStats.batch_fallbacks`` surfaces why eligible specs ran
    per-seed instead of vectorized."""

    def test_no_kernel_counted_per_spec(self):
        pytest.importorskip("numpy")
        # general-broadcast has no batch kernel: the whole group falls
        # back and every spec is tallied.
        specs = batch_specs(8, protocol="general-broadcast")
        runner = BatchRunner(parallel=False)
        runner.run(specs)
        assert runner.stats.batched_groups == 0  # every seed fell back
        assert runner.stats.batch_fallbacks == {"no_kernel": 8}

    def test_trace_shape_counted(self, tmp_path):
        pytest.importorskip("numpy")
        specs = batch_specs(8, record_trace=True)
        runner = BatchRunner(parallel=False)
        from repro.tracing import capture_traces

        with capture_traces(directory=str(tmp_path)):
            runner.run(specs)
        assert runner.stats.batch_fallbacks == {"trace": 8}

    def test_parallel_pool_merges_worker_fallbacks(self):
        pytest.importorskip("numpy")
        specs = batch_specs(8, protocol="general-broadcast")
        runner = BatchRunner(max_workers=2)
        runner.run(specs)
        assert runner.stats.batch_fallbacks == {"no_kernel": 8}

    def test_vectorized_group_reports_nothing(self):
        pytest.importorskip("numpy")
        runner = BatchRunner(parallel=False)
        runner.run(batch_specs(8))
        assert runner.stats.batched_groups == 1
        assert runner.stats.batch_fallbacks == {}


class TestSerialPooledEquivalence:
    """Serial and pooled runs map the same units through the same worker,
    so they agree on records and on every counter."""

    def test_mixed_workload_records_and_stats_agree(self, tmp_path):
        pytest.importorskip("numpy")
        import dataclasses

        from repro.store import ResultStore

        hit = tree_specs(1, size=12)[0]
        specs = (
            batch_specs(8)  # vectorised group
            + batch_specs(8, protocol="general-broadcast")  # no_kernel group
            + batch_specs(3, graph_params={"length": 8})  # small_group
            + [dataclasses.replace(s, engine="fastpath") for s in tree_specs(4)]
            + [hit]  # served from the store
        )

        def run(name, **kwargs):
            store = ResultStore(str(tmp_path / name))
            BatchRunner(parallel=False, store=store).run([hit])
            runner = BatchRunner(store=store, **kwargs)
            return runner.run(specs), runner.stats

        serial, serial_stats = run("serial", parallel=False)
        pooled, pooled_stats = run("pooled", max_workers=2)
        assert [r.comparable_dict() for r in serial] == [
            r.comparable_dict() for r in pooled
        ]
        assert serial_stats.batched_groups == 1
        assert serial_stats.batch_fallbacks == {"no_kernel": 8, "small_group": 3}
        assert serial_stats.store_hits == 1
        # Topology caches are per process (forked workers inherit the
        # parent's), so only the number of cache events must agree.
        counters = [serial_stats.counters(), pooled_stats.counters()]
        lookups = [c.pop("cache_hits") + c.pop("cache_misses") for c in counters]
        assert lookups[0] == lookups[1]
        assert counters[0] == counters[1]


def test_stats_merge_sums_every_counter():
    from repro.api import BatchStats

    a = BatchStats(
        total=3, executed=2, reused=1, cache_hits=1, batched_groups=1,
        batch_fallbacks={"no_kernel": 2},
    )
    b = BatchStats(
        total=4, executed=4, reused=0, store_hits=2,
        batch_fallbacks={"no_kernel": 1, "budget": 3},
    )
    assert BatchStats.merge([a, b]) == BatchStats(
        total=7, executed=6, reused=1, cache_hits=1, store_hits=2, batched_groups=1,
        batch_fallbacks={"no_kernel": 3, "budget": 3},
    )
    assert a.batch_fallbacks == {"no_kernel": 2}
    assert BatchStats.merge([]) == BatchStats(total=0, executed=0, reused=0)


def counting(fget):
    """``fget`` wrapped to count its calls (as tracing tools wrap a property)."""

    def wrapped(spec):
        wrapped.calls += 1
        return fget(spec)

    wrapped.calls = 0
    return wrapped


class TestStorePublishing:
    """Fresh records reach the store in ``put_many`` chunks, also on errors."""

    def test_rewrapped_spec_id_keeps_seed_groups(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        from repro.store import ResultStore

        expected = BatchRunner(parallel=False).run(batch_specs(8))
        fget = counting(RunSpec.spec_id.fget)
        monkeypatch.setattr(RunSpec, "spec_id", property(fget))
        runner = BatchRunner(parallel=False, store=ResultStore(str(tmp_path / "store")))
        records = runner.run(batch_specs(8))
        assert fget.calls > 0
        assert runner.stats.batched_groups == 1
        assert [r.comparable_dict() for r in records] == [
            r.comparable_dict() for r in expected
        ]

    def test_cold_batch_publishes_in_chunks(self, tmp_path, monkeypatch):
        import math

        from repro.api import runner as runner_module
        from repro.store import ResultStore

        chunk = 4
        monkeypatch.setattr(runner_module, "PUBLISH_CHUNK", chunk)
        store = ResultStore(str(tmp_path / "store"))
        sizes = []
        put_many = store.put_many

        def spy(records, **kwargs):
            records = list(records)
            sizes.append(len(records))
            return put_many(records, **kwargs)

        def no_put(*args, **kwargs):
            raise AssertionError("BatchRunner must publish through put_many")

        monkeypatch.setattr(store, "put_many", spy)
        monkeypatch.setattr(store, "put", no_put)
        specs = tree_specs(10)
        BatchRunner(parallel=False, store=store).run(specs)
        assert len(sizes) <= math.ceil(len(specs) / chunk)
        assert sum(sizes) == len(specs)
        assert store.contains_many(specs) == {spec.spec_id for spec in specs}

    def test_error_mid_batch_publishes_what_was_computed(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(str(tmp_path / "store"))
        specs = tree_specs(7)
        k = 3

        def progress(done, total, record):
            if done == k:
                raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            BatchRunner(parallel=False, store=store).run(specs, progress=progress)
        assert len(store.contains_many(specs)) == k
        runner = BatchRunner(parallel=False, store=store)
        runner.run(specs)
        assert runner.stats.store_hits == k
        assert runner.stats.executed == len(specs) - k


def counting_fresh_hashes(fget):
    """``fget`` wrapped to record each id it computes afresh (no memo yet)."""

    def wrapped(spec):
        if "_spec_id" not in vars(spec):
            wrapped.fresh.append(fget(spec))
        return fget(spec)

    wrapped.fresh = []
    return wrapped


class TestReturnedRecordsAreNotRehashed:
    """Records come back carrying the caller's own, already hashed, specs."""

    def run_counted(self, monkeypatch, runner, specs):
        for spec in specs:
            spec.spec_id  # prehash, as a caller keying its specs would
        fget = counting_fresh_hashes(RunSpec.spec_id.fget)
        monkeypatch.setattr(RunSpec, "spec_id", property(fget))
        records = runner.run(specs)
        monkeypatch.undo()
        ids = {spec.spec_id for spec in specs}
        assert [spec_id for spec_id in fget.fresh if spec_id in ids] == []
        assert all(record.spec is spec for record, spec in zip(records, specs))
        return records

    def test_pooled_run(self, monkeypatch, tmp_path):
        from repro.store import ResultStore

        specs = tree_specs(6)
        store = ResultStore(str(tmp_path / "store"))
        runner = BatchRunner(max_workers=2, chunksize=2, store=store)
        records = self.run_counted(monkeypatch, runner, specs)
        expected = BatchRunner(parallel=False).run(tree_specs(6))
        assert [r.comparable_dict() for r in records] == [
            r.comparable_dict() for r in expected
        ]
        assert runner.stats.executed == 6 and runner.stats.store_misses == 6
        assert store.contains_many(specs) == {spec.spec_id for spec in specs}

    def test_serial_batched_seed_group(self, monkeypatch):
        pytest.importorskip("numpy")
        specs = [
            RunSpec.from_dict({**spec.to_dict(), "label": f"member-{spec.seed}"})
            for spec in batch_specs(8)
        ]
        runner = BatchRunner(parallel=False)
        records = self.run_counted(monkeypatch, runner, specs)
        assert runner.stats.batched_groups == 1
        assert runner.stats.batch_fallbacks == {}
        # each member's record carries its own label, not the group's first
        assert [r.spec.label for r in records] == [s.label for s in specs]
