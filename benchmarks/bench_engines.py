"""Engine throughput suite: async vs fastpath.

The spec-level twin of ``repro bench``: measures steps/sec for each
execution engine on the E5 general-broadcast workload under
pytest-benchmark (so the numbers land in the same bench log as the
experiment suites), and asserts the same bars the CI floor file gates —
the fast path must beat the reference engine by ≥2× at n = 64 while
producing the identical record.
"""

from __future__ import annotations

import pytest

from repro.analysis.benchmark import bench_spec
from repro.api import execute_spec

SIZES = (16, 64)
ENGINES = ("async", "fastpath")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("bench_engine", ENGINES)
def test_bench_engine_general_broadcast(benchmark, bench_engine, n):
    spec = bench_spec(n, bench_engine)
    record = benchmark(lambda: execute_spec(spec))
    assert record.terminated
    steps = record.metrics["steps"]
    benchmark.extra_info["engine"] = bench_engine
    benchmark.extra_info["n"] = n
    benchmark.extra_info["steps"] = steps
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["steps_per_sec"] = steps / benchmark.stats["mean"]


@pytest.mark.parametrize("n", SIZES)
def test_fastpath_at_least_twice_async(benchmark, n):
    """The PR acceptance bar, asserted in-suite as well as by the CI gate."""
    from repro.analysis.benchmark import measure_spec

    def compare():
        fast = measure_spec(bench_spec(n, "fastpath"), repeats=2)
        slow = measure_spec(bench_spec(n, "async"), repeats=2)
        return fast["steps_per_sec"] / slow["steps_per_sec"]

    ratio = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["fastpath_vs_async"] = ratio
    floor = 2.0 if n >= 64 else 1.5
    assert ratio >= floor, f"fastpath only {ratio:.2f}x async at n={n}"
