"""Micro-benchmarks for the hot paths under every experiment.

Unlike the E-benches (one measured run of a whole experiment), these use
pytest-benchmark's repeated timing to track the throughput of the exact
arithmetic and the simulator — the costs that bound how large the paper's
graph families can be pushed.
"""

from repro.api import BatchRunner, RunSpec
from repro.core.dyadic import Dyadic
from repro.core.general_broadcast import GeneralBroadcastProtocol
from repro.core.intervals import Interval, IntervalUnion, canonical_partition
from repro.core.labeling import LabelAssignmentProtocol
from repro.core.tree_broadcast import TreeBroadcastProtocol
from repro.graphs.generators import random_digraph, random_grounded_tree
from repro.network.simulator import run_protocol


def _fragmented_union(pieces: int) -> IntervalUnion:
    intervals = []
    for i in range(pieces):
        lo = Dyadic(4 * i, 10)
        hi = Dyadic(4 * i + 2, 10)
        intervals.append(Interval(lo, hi))
    return IntervalUnion(intervals)


def test_micro_union_algebra(benchmark):
    a = _fragmented_union(64)
    b = _fragmented_union(64)
    shifted = IntervalUnion(
        [Interval(iv.lo + Dyadic(1, 10), iv.hi + Dyadic(1, 10)) for iv in b]
    )

    def ops():
        a.union(shifted)
        a.intersection(shifted)
        a.difference(shifted)

    benchmark(ops)


def test_micro_canonical_partition(benchmark):
    alpha = _fragmented_union(32)
    benchmark(lambda: canonical_partition(alpha, 8))


def test_micro_tree_broadcast_500(benchmark):
    net = random_grounded_tree(500, seed=0)

    def run():
        result = run_protocol(net, TreeBroadcastProtocol())
        assert result.terminated

    benchmark(run)


def test_micro_general_broadcast_30(benchmark):
    net = random_digraph(30, seed=0)

    def run():
        result = run_protocol(net, GeneralBroadcastProtocol())
        assert result.terminated

    benchmark(run)


def test_micro_labeling_30(benchmark):
    net = random_digraph(30, seed=0)

    def run():
        result = run_protocol(net, LabelAssignmentProtocol())
        assert result.terminated

    benchmark(run)


# ----------------------------------------------------------------------
# BatchRunner throughput — the perf guard for the run-spec layer.
#
# Later scaling PRs (sharding, caching, multi-backend) all express
# themselves as "a thing that consumes RunSpecs", so specs/sec through the
# BatchRunner is the baseline they must not regress.  The serial bench
# isolates the spec layer's own overhead (registry resolution, graph
# rebuild, record construction); the pool bench adds process dispatch.
# ----------------------------------------------------------------------

_BATCH_SPECS = [
    RunSpec(
        graph="random-grounded-tree",
        graph_params={"num_internal": 60},
        protocol="tree-broadcast",
        seed=seed,
    )
    for seed in range(16)
]


def _assert_batch(benchmark, records):
    assert len(records) == len(_BATCH_SPECS)
    assert all(record.terminated for record in records)
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["specs_per_sec"] = round(
            len(_BATCH_SPECS) / benchmark.stats["mean"], 1
        )


def test_micro_batchrunner_serial_16(benchmark):
    runner = BatchRunner(parallel=False)
    records = benchmark(lambda: runner.run(_BATCH_SPECS))
    _assert_batch(benchmark, records)


def test_micro_batchrunner_pool_16(benchmark):
    runner = BatchRunner(max_workers=2)
    records = benchmark.pedantic(
        lambda: runner.run(_BATCH_SPECS), rounds=3, iterations=1
    )
    _assert_batch(benchmark, records)
