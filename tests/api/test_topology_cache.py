"""Tests for the process-local compiled-topology cache.

The cache keys on the spec's graph-defining fields (graph, effective
params with the injected seed, transform chain); runs differing only in
protocol/scheduler/seed-of-a-seedless-graph must share one entry, runs
with different graphs must not, and the counters must surface through
:class:`~repro.api.runner.BatchStats` and the CLI summary lines.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.api import (
    BatchRunner,
    RunSpec,
    TopologyCacheStats,
    clear_topology_cache,
    execute_spec_full,
    topology_cache_stats,
)
from repro.api.spec import _TOPOLOGY_CACHE, cached_network, compiled_topology


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def spec_with(**overrides) -> RunSpec:
    payload = dict(
        graph="random-digraph",
        graph_params={"num_internal": 5},
        protocol="general-broadcast",
        seed=3,
    )
    payload.update(overrides)
    return RunSpec(**payload)


class TestNetworkCache:
    def test_same_topology_shares_one_network_object(self):
        _, _, net_a = execute_spec_full(spec_with(protocol="general-broadcast"))
        _, _, net_b = execute_spec_full(spec_with(protocol="label-assignment"))
        assert net_a is net_b
        stats = topology_cache_stats()
        assert stats.misses == 1
        assert stats.hits == 1

    def test_scheduler_axis_shares_the_entry(self):
        execute_spec_full(spec_with(scheduler="fifo"))
        execute_spec_full(spec_with(scheduler="lifo"))
        execute_spec_full(spec_with(scheduler="random"))
        assert topology_cache_stats() == TopologyCacheStats(hits=2, misses=1)

    def test_different_seed_is_a_different_random_graph(self):
        _, _, net_a = execute_spec_full(spec_with(seed=1))
        _, _, net_b = execute_spec_full(spec_with(seed=2))
        assert net_a is not net_b
        assert topology_cache_stats().misses == 2

    def test_seedless_graph_family_shares_across_seeds(self):
        # path-network takes no seed, so the injected-seed key normalises
        # away and a seed sweep hits one entry.
        base = dict(
            graph="path-network",
            graph_params={"length": 4},
            protocol="flooding",
        )
        _, _, net_a = execute_spec_full(RunSpec(**base, seed=1))
        _, _, net_b = execute_spec_full(RunSpec(**base, seed=2))
        assert net_a is net_b
        assert topology_cache_stats() == TopologyCacheStats(hits=1, misses=1)

    def test_transform_chain_is_part_of_the_key(self):
        _, _, plain = execute_spec_full(spec_with())
        _, _, transformed = execute_spec_full(
            spec_with(graph_transforms=("with-dead-end-vertex",))
        )
        assert plain is not transformed
        assert topology_cache_stats().misses == 2

    def test_cached_network_matches_uncached_build(self):
        spec = spec_with()
        _, _, cached = execute_spec_full(spec)
        fresh = spec.build_graph()
        assert fresh.edges == cached.edges
        assert fresh.num_vertices == cached.num_vertices

    def test_bounded_eviction(self):
        for seed in range(_TOPOLOGY_CACHE.maxsize + 5):
            execute_spec_full(spec_with(seed=seed))
        assert len(_TOPOLOGY_CACHE._entries) == _TOPOLOGY_CACHE.maxsize


class TestCompiledCache:
    def test_fastpath_reuses_one_compiled_network(self):
        spec = spec_with(engine="fastpath")
        _, _, network = execute_spec_full(spec)
        compiled_a = compiled_topology(network)
        compiled_b = compiled_topology(network)
        assert compiled_a is compiled_b
        assert compiled_a.network is network

    def test_foreign_network_gets_fresh_uncached_compilation(self):
        spec = spec_with(engine="fastpath")
        execute_spec_full(spec)
        foreign = spec.build_graph()  # bypasses the cache: distinct object
        compiled = compiled_topology(foreign)
        assert compiled.network is foreign
        # The cached entry was not poisoned.
        cached_net = cached_network(spec)
        assert compiled_topology(cached_net).network is cached_net

    def test_never_serves_another_networks_compilation(self):
        def check(network):
            compiled = compiled_topology(network)
            assert compiled.network is network
            assert list(zip(compiled.edge_tail, compiled.edge_head)) == list(network.edges)

        kept = []
        for seed in range(_TOPOLOGY_CACHE.maxsize + 8):
            _, _, network = execute_spec_full(spec_with(engine="fastpath", seed=seed))
            check(network)
            kept.append(network)
        # Evicted entries' networks (still alive here) compile afresh.
        for network in kept:
            check(network)
        clear_topology_cache()
        for network in kept[:3]:
            check(network)
        _, _, rebuilt = execute_spec_full(spec_with(engine="fastpath", seed=0))
        assert rebuilt is not kept[0]
        check(rebuilt)
        assert compiled_topology(rebuilt) is compiled_topology(rebuilt)
        assert compiled_topology(kept[0]) is not compiled_topology(kept[0])

    def test_fastpath_and_async_records_agree_through_the_cache(self):
        async_rec = spec_with(engine="async").run()
        fast_rec = spec_with(engine="fastpath").run()
        a, f = async_rec.comparable_dict(), fast_rec.comparable_dict()
        a["spec"].pop("engine")
        f["spec"].pop("engine")
        assert a == f


class TestBatchCounters:
    def specs(self):
        return [
            spec_with(protocol=protocol, scheduler=scheduler, engine="fastpath")
            for protocol in ("general-broadcast", "tree-broadcast")
            for scheduler in ("fifo", "lifo", "random")
        ]

    def test_serial_batch_reports_cache_hits(self):
        runner = BatchRunner(parallel=False)
        runner.run(self.specs())
        stats = runner.stats
        assert stats.cache_misses == 1
        assert stats.cache_hits == 5

    def test_parallel_batch_ships_counters_from_workers(self):
        runner = BatchRunner(max_workers=2)
        runner.run(self.specs())
        stats = runner.stats
        # Each worker process compiles the topology at most once; every
        # remaining run in that worker is a hit.
        assert stats.cache_hits + stats.cache_misses == 6
        assert 1 <= stats.cache_misses <= 2
        assert stats.cache_hits >= 4

    def test_batch_summary_line_carries_cache_counters(self, tmp_path):
        from repro.api import dump_specs
        from repro.cli import main

        spec_file = tmp_path / "specs.json"
        dump_specs(self.specs(), str(spec_file))
        stream = io.StringIO()
        assert main(["batch", str(spec_file), "--serial"], stream=stream) == 0
        lines = [
            line
            for line in stream.getvalue().splitlines()
            if line.startswith("BATCH_SUMMARY ")
        ]
        assert len(lines) == 1
        summary = json.loads(lines[0][len("BATCH_SUMMARY ") :])
        assert summary["cache_misses"] == 1
        assert summary["cache_hits"] == 5


class TestChunksizeAutotune:
    def test_autotune_floor_is_four(self):
        assert BatchRunner(max_workers=4).effective_chunksize(10) == 4

    def test_autotune_scales_with_batch_size(self):
        runner = BatchRunner(max_workers=4)
        assert runner.effective_chunksize(3200) == 100
