"""Result-store micro-benchmarks: put / contains / get at 10k records.

The pytest-benchmark twin of the ``store`` block ``repro bench`` records
into ``BENCH_engines.json``: the same synthetic records (distinct seeds,
full RunSpecs — representative hashing, serialization and payload sizes),
the same three operations a warm campaign resume exercises, measured at
:data:`~repro.analysis.benchmark.STORE_BENCH_RECORDS` records.  The
closing test asserts the same integrity bar the CI floor file gates:
every record just stored must come back from ``get_many`` byte-identical
(the ``store.cache_hit_rate`` rule).
"""

from __future__ import annotations

import pytest

from repro.analysis.benchmark import STORE_BENCH_RECORDS, synthetic_store_records
from repro.store import ResultStore

N_RECORDS = STORE_BENCH_RECORDS


@pytest.fixture(scope="module")
def records():
    return synthetic_store_records(N_RECORDS)


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, records):
    """A store already holding every benchmark record (read-side suites)."""
    store = ResultStore(str(tmp_path_factory.mktemp("store-bench-warm")))
    store.put_many(records)
    return store


def test_bench_store_put_many(benchmark, tmp_path_factory, records):
    def populate():
        store = ResultStore(str(tmp_path_factory.mktemp("store-bench-put")))
        return store.put_many(records)

    stored = benchmark.pedantic(populate, rounds=1, iterations=1)
    assert stored == N_RECORDS
    benchmark.extra_info["n_records"] = N_RECORDS
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["put_per_sec"] = N_RECORDS / benchmark.stats["mean"]


def test_bench_store_contains_many(benchmark, warm_store, records):
    specs = [record.spec for record in records]
    found = benchmark(lambda: warm_store.contains_many(specs))
    assert len(found) == N_RECORDS
    benchmark.extra_info["n_records"] = N_RECORDS
    if benchmark.stats is not None:
        benchmark.extra_info["contains_per_sec"] = N_RECORDS / benchmark.stats["mean"]


def test_bench_store_get_many(benchmark, warm_store, records):
    specs = [record.spec for record in records]
    got = benchmark(lambda: warm_store.get_many(specs))
    assert len(got) == N_RECORDS
    benchmark.extra_info["n_records"] = N_RECORDS
    if benchmark.stats is not None:
        benchmark.extra_info["get_per_sec"] = N_RECORDS / benchmark.stats["mean"]


def test_store_cache_hit_rate_floor(warm_store, records):
    """The integrity bar behind the store.cache_hit_rate rule: everything stored
    is retrievable, and retrieval is exact (same JSON, timing fields and all
    — synthetic records carry fixed timings, so equality is total)."""
    got = warm_store.get_many(record.spec for record in records)
    hit_rate = len(got) / N_RECORDS
    assert hit_rate >= 0.95, f"cache hit rate {hit_rate:.3f} below 0.95"
    by_id = {record.spec.spec_id: record for record in records}
    for spec_id, fetched in got.items():
        assert fetched.to_json() == by_id[spec_id].to_json()
