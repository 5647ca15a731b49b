"""Differential equivalence: the ``batch`` engine vs per-seed fastpath.

The batch engine's contract is *result identity per (spec, seed)*: a
seed-group dispatched through ``run_many`` must yield, run for run,
exactly the record the ``fastpath`` engine produces for the same spec
with that seed — same outcome, same step and message counts, every
metric equal — modulo the wall-clock :data:`~repro.api.spec.TIMING_FIELDS`
and the ``engine`` field itself.  That holds both when the group truly
vectorizes (every flat-kernel protocol under a stock random scheduler:
one state tensor, RNG words taken from CPython's own generator) and
when it falls back to per-spec execution (non-random schedulers,
protocols without a batch kernel, graphs a kernel declines, budgets that
cut runs short, early stops at termination), so callers never need to
know which path ran.  The protocol axis is registry-driven:
every registered protocol outside
:data:`~repro.network.batchpath.BATCH_KERNEL_EXEMPT` is swept, so a new
protocol joins this matrix (and the batch completeness gate below)
automatically.

The words come from ``random.Random`` itself; only ``_randbelow``'s
top-bits rejection walk is re-implemented, and that claim is load-bearing
enough to test directly: :class:`~repro.network.batchpath.MTStreams` is
compared draw for draw against ``random.Random`` over adversarial call
patterns (rejection stragglers, buffer-boundary refills) and seeds of
every size and sign.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

np = pytest.importorskip("numpy")

from repro.api import ENGINES, PROTOCOLS, RunSpec, ensure_registered, execute_spec
from repro.network.batchpath import (
    BATCH_KERNEL_EXEMPT,
    MTStreams,
    run_many_batched,
)

ensure_registered()

#: One representative per registered graph family (every topology shape
#: the batch kernel's padded scatter must handle: paths, stars-on-a-spine,
#: trees, DAGs, cyclic digraphs, geometric fields).  Stochastic families
#: pin their *graph* seed so a seed-group shares one topology (and so the
#: splitting kernels actually vectorize instead of shattering into
#: singleton fallbacks).
GRAPH_FAMILIES = (
    ("path-network", {"length": 6}),
    ("caterpillar-gn", {"n": 5}),
    ("random-grounded-tree", {"num_internal": 7, "seed": 5}),
    ("random-dag", {"num_internal": 7, "seed": 3}),
    ("random-digraph", {"num_internal": 7, "seed": 3}),
    ("layered-diamond-dag", {"depth": 3}),
    ("geometric-sensor-field", {"num_sensors": 12, "seed": 1}),
    ("full-tree-with-terminal", {"degree": 2, "height": 3}),
)

#: Every protocol with a batch kernel, straight from the registry; graphs
#: a kernel declines (e.g. the splitting kernels on cyclic digraphs)
#: exercise the per-spec fallback path within the same matrix.
PROTOCOLS_UNDER_TEST = tuple(
    name for name in sorted(PROTOCOLS.names()) if name not in BATCH_KERNEL_EXEMPT
)

#: One exempt protocol to pin the no-kernel fallback path explicitly.
EXEMPT_PROTOCOL = "general-broadcast"

SEEDS = list(range(9))


def comparable(record):
    """The record as a dict, modulo timing and the engine tag."""
    payload = record.comparable_dict()
    payload["spec"].pop("engine")
    return payload


def fastpath_twin(spec: RunSpec, seed) -> dict:
    return comparable(
        execute_spec(dataclasses.replace(spec, engine="fastpath", seed=seed))
    )


def run_group(spec: RunSpec, seeds):
    records = run_many_batched(spec, seeds)
    assert [r.spec.seed for r in records] == list(seeds), "input order lost"
    assert all(r.spec.engine == spec.engine for r in records)
    return records


@pytest.mark.parametrize("graph,graph_params", GRAPH_FAMILIES)
@pytest.mark.parametrize("protocol", PROTOCOLS_UNDER_TEST)
def test_batch_matches_fastpath(protocol, graph, graph_params):
    spec = RunSpec(
        graph=graph,
        graph_params=graph_params,
        protocol=protocol,
        scheduler="random",
        engine="batch",
        max_steps=4000,
    )
    for record, seed in zip(run_group(spec, SEEDS), SEEDS):
        assert comparable(record) == fastpath_twin(spec, seed), (
            f"batch != fastpath for {protocol} on {graph} seed {seed}"
        )


@pytest.mark.parametrize("scheduler", ["fifo", "lifo", "terminal-first"])
def test_non_random_schedulers_fall_back_and_still_match(scheduler):
    spec = RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": 7, "seed": 3},
        protocol="flooding",
        scheduler=scheduler,
        engine="batch",
        max_steps=4000,
    )
    for record, seed in zip(run_group(spec, SEEDS[:4]), SEEDS[:4]):
        assert comparable(record) == fastpath_twin(spec, seed)


def test_pinned_scheduler_seed_still_matches():
    """All runs share one scheduler stream seed; records must still agree."""
    spec = RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": 7, "seed": 3},
        protocol="flooding",
        scheduler="random",
        scheduler_params={"seed": 1234},
        engine="batch",
        max_steps=4000,
    )
    for record, seed in zip(run_group(spec, SEEDS[:5]), SEEDS[:5]):
        assert comparable(record) == fastpath_twin(spec, seed)


def test_bounded_budget_falls_back_and_matches():
    """A binding ``max_steps`` takes the per-spec fallback; identity holds."""
    spec = RunSpec(
        graph="geometric-sensor-field",
        graph_params={"num_sensors": 12, "seed": 1},
        protocol="flooding",
        scheduler="random",
        engine="batch",
        max_steps=30,
    )
    fallbacks = {}
    records = run_many_batched(spec, SEEDS, fallbacks)
    assert fallbacks == {"budget": len(SEEDS)}
    for record, seed in zip(records, SEEDS):
        record_dict = comparable(record)
        assert record_dict == fastpath_twin(spec, seed)
        assert record_dict["metrics"]["steps"] <= 30


#: One tree and one DAG family on which every batch kernel compiles.
BOUNDARY_FAMILIES = (GRAPH_FAMILIES[2], GRAPH_FAMILIES[3])


@pytest.mark.parametrize("graph,graph_params", BOUNDARY_FAMILIES)
@pytest.mark.parametrize("protocol", PROTOCOLS_UNDER_TEST)
def test_budget_boundary_matches(protocol, graph, graph_params):
    """At ``max_steps`` = S-1 the budget binds and the group falls back;
    at S and S+1 every run drains and the group vectorizes.  S, the
    structural step count, is read off full-budget fastpath runs."""
    seeds = SEEDS[:6]
    full = RunSpec(
        graph=graph,
        graph_params=graph_params,
        protocol=protocol,
        scheduler="random",
        engine="batch",
        max_steps=4000,
    )
    drained = {fastpath_twin(full, seed)["metrics"]["steps"] for seed in seeds}
    assert len(drained) == 1, drained
    (structural,) = drained
    for max_steps in (structural - 1, structural, structural + 1):
        spec = dataclasses.replace(full, max_steps=max_steps)
        fallbacks = {}
        records = run_many_batched(spec, seeds, fallbacks)
        expected = {"budget": len(seeds)} if max_steps < structural else {}
        assert fallbacks == expected, (protocol, max_steps)
        for record, seed in zip(records, seeds):
            assert comparable(record) == fastpath_twin(spec, seed), (
                f"batch != fastpath for {protocol} at max_steps={max_steps}"
            )


@pytest.mark.parametrize("protocol", PROTOCOLS_UNDER_TEST)
def test_k1_group_is_exactly_one_fastpath_run(protocol):
    spec = RunSpec(
        graph="path-network",
        graph_params={"length": 6},
        protocol=protocol,
        scheduler="random",
        engine="batch",
    )
    (record,) = run_group(spec, [7])
    assert comparable(record) == fastpath_twin(spec, 7)


@pytest.mark.parametrize("protocol", PROTOCOLS_UNDER_TEST)
def test_stop_at_termination_matches(protocol):
    """An early stop falls back per spec exactly where runs terminate;
    shapes that never terminate (flooding) still vectorize."""
    spec = RunSpec(
        graph=GRAPH_FAMILIES[2][0],
        graph_params=GRAPH_FAMILIES[2][1],
        protocol=protocol,
        scheduler="random",
        engine="batch",
        stop_at_termination=True,
        max_steps=4000,
    )
    fallbacks = {}
    records = run_many_batched(spec, SEEDS, fallbacks)
    twins = [fastpath_twin(spec, seed) for seed in SEEDS]
    terminated = {twin["terminated"] for twin in twins}
    assert len(terminated) == 1, terminated
    expected = {"early_stop": len(SEEDS)} if terminated.pop() else {}
    if protocol == "flooding":
        assert expected == {}
    if protocol == "tree-broadcast":
        assert expected == {"early_stop": len(SEEDS)}
    assert fallbacks == expected
    for record, twin, seed in zip(records, twins, SEEDS):
        assert comparable(record) == twin, (
            f"stop_at_termination mismatch for {protocol} seed {seed}"
        )


def test_exempt_protocol_falls_back_and_still_matches():
    """A protocol with no batch kernel runs per-spec, record-identical."""
    spec = RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": 7, "seed": 3},
        protocol=EXEMPT_PROTOCOL,
        scheduler="random",
        engine="batch",
        max_steps=4000,
    )
    fallbacks = {}
    records = run_many_batched(spec, SEEDS[:4], fallbacks)
    assert fallbacks == {"no_kernel": 4}
    for record, seed in zip(records, SEEDS[:4]):
        assert comparable(record) == fastpath_twin(spec, seed)


@pytest.mark.parametrize("protocol", PROTOCOLS_UNDER_TEST)
def test_ragged_group_with_none_and_duplicate_seeds(protocol):
    """A ``None`` seed leaves the scheduler at its default seed 0, so it
    batches and matches its fastpath twin like any other member;
    duplicates must each get their own identical record."""
    spec = RunSpec(
        graph="path-network",
        graph_params={"length": 6},
        protocol=protocol,
        scheduler="random",
        engine="batch",
    )
    seeds = [3, 5, 3, None, 8]
    records = run_many_batched(spec, seeds)
    assert [r.spec.seed for r in records[:3]] == [3, 5, 3]
    assert comparable(records[0]) == comparable(records[2]) == fastpath_twin(spec, 3)
    assert comparable(records[1]) == fastpath_twin(spec, 5)
    assert comparable(records[4]) == fastpath_twin(spec, 8)
    assert records[3].spec.seed is None
    assert comparable(records[3]) == fastpath_twin(spec, None)


@pytest.mark.parametrize("protocol", PROTOCOLS_UNDER_TEST)
def test_seeds_of_any_size_and_sign_vectorize(protocol):
    """Seeds past 32 bits and negative seeds batch with no fallback."""
    spec = RunSpec(
        graph="random-dag",
        graph_params={"num_internal": 7, "seed": 3},
        protocol=protocol,
        scheduler="random",
        engine="batch",
        max_steps=4000,
    )
    seeds = [2**40 + k for k in range(8)] + [-3, -4, 2**100]
    fallbacks = {}
    records = run_many_batched(spec, seeds, fallbacks)
    assert fallbacks == {}
    for record, seed in zip(records, seeds):
        assert comparable(record) == fastpath_twin(spec, seed), (
            f"batch != fastpath for {protocol} seed {seed}"
        )


def test_records_round_trip_through_json():
    from repro.api import RunRecord

    spec = RunSpec(
        graph="random-dag",
        graph_params={"num_internal": 7, "seed": 3},
        protocol="flooding",
        scheduler="random",
        engine="batch",
        max_steps=4000,
    )
    for record in run_group(spec, SEEDS[:3]):
        clone = RunRecord.from_dict(record.to_dict())
        assert comparable(clone) == comparable(record)


def test_engine_registry_dispatches_run_many():
    info = ENGINES.get("batch")
    spec = RunSpec(
        graph="path-network",
        graph_params={"length": 6},
        protocol="flooding",
        scheduler="random",
        engine="batch",
    )
    records = info.run_many(spec, SEEDS[:4])
    for record, seed in zip(records, SEEDS[:4]):
        assert comparable(record) == fastpath_twin(spec, seed)


# ---------------------------------------------------------------------------
# Registry-driven batch-kernel completeness (mirrors the fastpath gate in
# test_kernel_completeness.py): every registered protocol must either
# return a working compile_batch kernel or be explicitly listed in
# BATCH_KERNEL_EXEMPT — a protocol silently losing its batch kernel would
# pass every differential test above while quietly running per-seed.
# ---------------------------------------------------------------------------


def small_compiled():
    from repro.network.fastpath import CompiledNetwork
    from repro.network.graph import DirectedNetwork

    net = DirectedNetwork(4, [(0, 1), (0, 2), (1, 3), (2, 3)], root=0, terminal=3)
    return CompiledNetwork(net)


class TestBatchKernelCompleteness:
    def test_exempt_names_are_registered(self):
        assert set(BATCH_KERNEL_EXEMPT) <= set(PROTOCOLS.names())

    def test_exempt_set_is_exactly_the_object_state_protocols(self):
        # The three protocols whose per-vertex state is an arbitrary
        # Python object (sets of vertex ids, label tables) rather than a
        # flat token; widening this set is a reviewable decision here.
        assert BATCH_KERNEL_EXEMPT == frozenset(
            {"general-broadcast", "label-assignment", "topology-mapping"}
        )

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
    def test_every_protocol_compiles_a_batch_kernel_or_is_exempt(self, protocol):
        kernel = PROTOCOLS.create(protocol).compile_batch(small_compiled())
        if kernel is None:
            assert protocol in BATCH_KERNEL_EXEMPT, (
                f"protocol {protocol!r} returns no compile_batch kernel "
                "and is not listed in BATCH_KERNEL_EXEMPT"
            )
            return
        assert protocol not in BATCH_KERNEL_EXEMPT, (
            f"protocol {protocol!r} compiles a batch kernel but is listed "
            "in BATCH_KERNEL_EXEMPT — remove the stale exemption"
        )
        assert callable(getattr(kernel, "run", None)), protocol

    @pytest.mark.parametrize("protocol", PROTOCOLS_UNDER_TEST)
    def test_subclasses_do_not_inherit_the_batch_kernel(self, protocol):
        # Exact-type guard: a subclass may override deliver()/emissions,
        # which the compiled kernel would silently ignore.
        cls = PROTOCOLS.get(protocol)

        class Tweaked(cls):  # type: ignore[misc, valid-type]
            name = f"tweaked-{protocol}"

        assert Tweaked().compile_batch(small_compiled()) is None


# ---------------------------------------------------------------------------
# MTStreams vs random.Random: draw-for-draw parity
# ---------------------------------------------------------------------------


class TestMTStreamsParity:
    def _references(self, seeds):
        return [random.Random(s) for s in seeds]

    def test_dense_walk_matches_cpython(self):
        seeds = [0, 1, 2**31, 2**32 - 1, 12345, 424242, 7, 99]
        seeds += [-5, 2**32, 2**40 + 3, 2**100]
        streams = MTStreams(seeds)
        refs = self._references(seeds)
        rng = random.Random(2027)
        for _ in range(3000):
            # mixed magnitudes, including powers of two and n=1
            n = np.array(
                [rng.choice([1, 2, 3, 7, 8, 100, 2**16, 2**31 - 1]) for _ in refs],
                dtype=np.int64,
            )
            got = streams.randbelow_dense(n)
            expected = [ref._randbelow(int(m)) for ref, m in zip(refs, n)]
            assert got.tolist() == expected

    def test_tiny_n_straggler_storm(self):
        """n=3 rejects ~25% of draws: the straggler path dominates."""
        seeds = list(range(16))
        streams = MTStreams(seeds)
        refs = self._references(seeds)
        n = np.full(16, 3, dtype=np.int64)
        for _ in range(2000):
            got = streams.randbelow_dense(n)
            expected = [ref._randbelow(3) for ref in refs]
            assert got.tolist() == expected

    def test_same_seeds_draw_same_words(self):
        """Two instances over the same seeds draw identical sequences."""
        a = MTStreams([1, 2])
        n = np.full(2, 5, dtype=np.int64)
        first = [a.randbelow_dense(n).tolist() for _ in range(10)]
        b = MTStreams([1, 2])
        second = [b.randbelow_dense(n).tolist() for _ in range(10)]
        assert first == second
