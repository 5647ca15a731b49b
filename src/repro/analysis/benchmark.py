"""Engine throughput benchmarks with machine-readable output and floors.

This is the harness behind ``repro bench`` and the CI perf gate.  The
bench is a registry of suites, :data:`BENCH_SUITES`, each a
``measure(quick) -> block`` callable.  The headline suite measures
*delivery steps per second* — the simulator-native throughput unit — for
each execution engine on the E5 general-broadcast workload (the paper's
main protocol, and the heaviest per-step transition in the repository)
across graph sizes.  ``repro bench`` runs every suite in order and emits
one JSON document (``BENCH_engines.json``) keyed by suite name::

    {
      "environment": {"python": "3.11.7", "platform": "..."},
      "engines": {
        "workload": {"graph": "random-digraph", "protocol": "general-broadcast", ...},
        "results": [
          {"engine": "fastpath", "n": 64, "steps": 7472, "best_seconds": ...,
           "steps_per_sec": ..., "outcome": "terminated", ...},
          ...
        ],
        "comparisons": [{"n": 64, "fastpath_vs_async": 9.1, ...}, ...]
      },
      "protocols": {...}, "store": {...}, "batch": {...},
      "batch_protocols": {...}, "trace": {...}, "schedules": {...}
    }

Floors (``benchmarks/floors.json``) gate regressions in CI.  The file is
a list of path rules checked by :func:`check_floors`: an absolute
steps/sec floor catches catastrophic slowdowns without being flaky across
heterogeneous runners (it is set an order of magnitude below a laptop
run), and ratio floors — machine-independent, both arms run on the same
box — enforce that the fast paths stay genuinely fast.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..api import PROTOCOLS, RunSpec, ensure_registered, execute_spec

__all__ = [
    "BENCH_ENGINES",
    "BENCH_SUITES",
    "QUICK_SIZES",
    "FULL_SIZES",
    "PROTOCOL_BENCH_GRAPHS",
    "PROTOCOL_MATRIX_N",
    "STORE_BENCH_RECORDS",
    "BATCH_BENCH_KS",
    "BATCH_BENCH_GATED_K",
    "BATCH_PROTOCOL_GRAPH_SEED",
    "bench_environment",
    "bench_spec",
    "protocol_bench_spec",
    "batch_bench_spec",
    "batch_protocol_spec",
    "measure_spec",
    "synthetic_store_records",
    "run_engine_benchmarks",
    "run_protocol_matrix",
    "run_store_benchmarks",
    "run_batch_benchmarks",
    "run_batch_protocol_matrix",
    "run_trace_benchmarks",
    "run_schedule_benchmarks",
    "SCHEDULE_BENCH_GRAPH",
    "SCHEDULE_BENCH_PARAMS",
    "SCHEDULE_BENCH_PROTOCOL",
    "TRACE_BENCH_N",
    "TRACE_BENCH_SAMPLE_K",
    "write_benchmarks",
    "load_floors",
    "check_floors",
    "render_bench_table",
]

#: Engines the suite compares, in report order.
BENCH_ENGINES = ("async", "fastpath", "synchronous")

#: Graph sizes (|V|) for `repro bench --quick` — must include the gated n=64.
QUICK_SIZES = (16, 64)

#: Graph sizes for a full `repro bench`.
FULL_SIZES = (16, 32, 64, 128)

#: The graph family each protocol is benchmarked on (its natural habitat:
#: the family where the protocol terminates and does representative work).
#: Protocols not listed run on the general ``random-digraph`` workload.
PROTOCOL_BENCH_GRAPHS: Dict[str, str] = {
    "tree-broadcast": "random-grounded-tree",
    "naive-tree-broadcast": "random-grounded-tree",
    "dag-broadcast": "random-dag",
    "eager-dag-broadcast": "random-dag",
}

#: The size at which the per-protocol kernel coverage matrix is measured
#: (and at which the per-protocol ratio floors are gated).
PROTOCOL_MATRIX_N = 64

#: Record count for the result-store micro-benchmark in a full
#: ``repro bench`` (``--quick`` uses a fifth of it; the per-record cost is
#: flat well past this point, so quick runs measure the same thing).
STORE_BENCH_RECORDS = 10_000

#: Seed-group sizes for the batch-engine suite.  K=16 shows the break-even
#: region, K=64 is the gated size, K=256 the asymptotic regime.
BATCH_BENCH_KS = (16, 64, 256)

#: The group size at which the per-protocol batch matrix is measured.
BATCH_BENCH_GATED_K = 64

#: The pinned *graph* seed for the per-protocol batch coverage matrix.
#: Pinning it in ``graph_params`` makes all K runs share one topology, so
#: the whole seed-group reaches the vectorized kernel (an unpinned graph
#: seed would shatter the group into K singleton topologies and measure
#: nothing but fallback dispatch).  Seed 1 also keeps the eager-DAG
#: split's compile-time message enumeration under the kernel's cap at the
#: gated size.
BATCH_PROTOCOL_GRAPH_SEED = 1

#: Graph size for the trace-capture overhead suite (the gated workload).
TRACE_BENCH_N = 64

#: Sampling rate for the suite's ``sample:k`` arm.
TRACE_BENCH_SAMPLE_K = 8


def _best_of_rounds(
    arms: Dict[str, Callable[[], Any]], rounds: int, *, inner_loops: int = 1
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Time every arm once per round, interleaved; keep each arm's best round.

    Best-of-N is the standard noise filter for single-process CPU-bound
    benchmarks: the minimum is the run least disturbed by the OS, and
    interleaving the arms round by round means no arm gets the
    thermally-throttled half of the measurement window.  ``inner_loops``
    amortises timer resolution for sub-millisecond runs: each timed sample
    calls the arm that many times and reports the mean per-call time.
    Returns the best seconds per arm and each arm's last return value.
    """
    if rounds < 1:
        raise ValueError("repeats must be >= 1")
    if inner_loops < 1:
        raise ValueError("inner_loops must be >= 1")
    best = {name: float("inf") for name in arms}
    last: Dict[str, Any] = {}
    for _ in range(rounds):
        for name, run in arms.items():
            start = time.perf_counter()
            for _ in range(inner_loops):
                last[name] = run()
            best[name] = min(best[name], (time.perf_counter() - start) / inner_loops)
    return best, last


def _per_sec(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def bench_environment() -> Dict[str, str]:
    """The interpreter and platform a payload was measured on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def bench_spec(
    n: int,
    engine: str,
    *,
    protocol: str = "general-broadcast",
    seed: int = 1,
) -> RunSpec:
    """The canonical benchmark workload at ``|V| = n`` for one engine.

    ``random-digraph`` with ``num_internal = n - 2`` yields exactly ``n``
    vertices; seed 1 terminates at every benchmarked size, so all engines
    do the full drain-to-quiescence work.
    """
    return RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": n - 2},
        protocol=protocol,
        engine=engine,
        seed=seed,
        label=f"bench-{protocol}-n{n}-{engine}",
    )


def protocol_bench_spec(
    protocol: str,
    n: int,
    engine: str,
    *,
    seed: int = 1,
    max_steps: int = 200_000,
) -> RunSpec:
    """The coverage-matrix workload for one protocol × engine at ``|V| = n``.

    Each protocol runs on its :data:`PROTOCOL_BENCH_GRAPHS` family; the
    explicit ``max_steps`` cap bounds intentionally explosive baselines
    (the eager-DAG split's path multiplicity) without affecting the
    well-matched protocols, and applies identically to every engine.
    """
    return RunSpec(
        graph=PROTOCOL_BENCH_GRAPHS.get(protocol, "random-digraph"),
        graph_params={"num_internal": n - 2},
        protocol=protocol,
        engine=engine,
        seed=seed,
        max_steps=max_steps,
        label=f"bench-{protocol}-n{n}-{engine}",
    )


def measure_spec(
    spec: RunSpec, *, repeats: int = 3, inner_loops: int = 1
) -> Dict[str, Any]:
    """Execute ``spec`` ``repeats`` times; report best-time throughput.

    ``inner_loops`` amortises timer resolution for sub-millisecond runs
    (the work is deterministic, so every inner execution is identical).
    """
    best, last = _best_of_rounds(
        {"run": lambda: execute_spec(spec)}, repeats, inner_loops=inner_loops
    )
    record = last["run"]
    steps = int(record.metrics["steps"])
    return {
        "engine": spec.engine,
        "protocol": spec.protocol,
        "graph": spec.graph,
        "n": record.num_vertices,
        "num_edges": record.num_edges,
        "seed": spec.seed,
        "outcome": record.outcome,
        "steps": steps,
        "repeats": repeats,
        "inner_loops": inner_loops,
        "best_seconds": best["run"],
        "steps_per_sec": _per_sec(steps, best["run"]),
    }


def _vs_async(by_engine: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """``<engine>_vs_async`` throughput ratios for one comparison row."""
    base = by_engine.get("async")
    if base is None or base["steps_per_sec"] <= 0:
        return {}
    return {
        f"{engine}_vs_async": row["steps_per_sec"] / base["steps_per_sec"]
        for engine, row in by_engine.items()
        if engine != "async"
    }


def run_engine_benchmarks(
    *,
    sizes: Sequence[int] = FULL_SIZES,
    engines: Sequence[str] = BENCH_ENGINES,
    repeats: int = 3,
    protocol: str = "general-broadcast",
    seed: int = 1,
) -> Dict[str, Any]:
    """Measure every engine × size; return the ``engines`` block."""
    results: List[Dict[str, Any]] = []
    comparisons: List[Dict[str, Any]] = []
    for n in sizes:
        by_engine = {
            engine: measure_spec(
                bench_spec(n, engine, protocol=protocol, seed=seed), repeats=repeats
            )
            for engine in engines
        }
        results.extend(by_engine.values())
        comparisons.append({"n": n, **_vs_async(by_engine)})
    return {
        "workload": {
            "graph": "random-digraph",
            "protocol": protocol,
            "seed": seed,
            "sizes": list(sizes),
            "repeats": repeats,
        },
        "results": results,
        "comparisons": comparisons,
    }


def run_protocol_matrix(
    *,
    n: int = PROTOCOL_MATRIX_N,
    engines: Sequence[str] = ("async", "fastpath"),
    repeats: int = 2,
    min_seconds: float = 0.05,
    seed: int = 1,
) -> Dict[str, Any]:
    """Measure every *registered* protocol under each engine at ``|V| = n``.

    The matrix is registry-driven — :data:`~repro.api.registry.PROTOCOLS`
    is enumerated at run time, so a newly registered protocol is benched
    automatically and the ``covers: protocols`` floor (see
    :func:`check_floors`) fails CI if one were ever skipped.  Each
    protocol × engine cell gets one uncounted warmup/calibration run
    (which also primes the topology cache, as campaign traffic would),
    and sub-``min_seconds`` runs are amortised over inner loops.
    """
    ensure_registered()
    results: List[Dict[str, Any]] = []
    comparisons: List[Dict[str, Any]] = []
    for protocol in sorted(PROTOCOLS.names()):
        by_engine: Dict[str, Dict[str, Any]] = {}
        for engine in engines:
            spec = protocol_bench_spec(protocol, n, engine, seed=seed)
            start = time.perf_counter()
            execute_spec(spec)  # warmup / calibration (uncounted)
            calibration = time.perf_counter() - start
            inner_loops = 1
            if calibration < min_seconds:
                inner_loops = min(
                    256, max(1, int(min_seconds / max(calibration, 1e-7)))
                )
            by_engine[engine] = measure_spec(
                spec, repeats=repeats, inner_loops=inner_loops
            )
        results.extend(by_engine.values())
        comparisons.append({"protocol": protocol, "n": n, **_vs_async(by_engine)})
    return {
        "n": n,
        "seed": seed,
        "repeats": repeats,
        "engines": list(engines),
        "results": results,
        "comparisons": comparisons,
    }


def batch_bench_spec() -> RunSpec:
    """The seed-group template the batch suite sweeps K seeds over.

    Flooding on a dense geometric sensor field: the heaviest stock
    random-scheduler workload per spec (every edge floods once, ~30 steps
    per vertex), and — critically — the graph seed is **pinned** in
    ``graph_params``, so every run in the group shares one compiled
    topology and the whole group reaches the kernel as a single state
    tensor.  An unpinned graph seed would shatter the group into K
    singleton topologies and measure nothing but fallback dispatch.
    """
    return RunSpec(
        graph="geometric-sensor-field",
        graph_params={"num_sensors": 48, "seed": 0, "base_range": 0.5},
        protocol="flooding",
        scheduler="random",
        engine="batch",
        label="bench-batch-flooding",
    )


def _time_seed_group(
    template: RunSpec, k: int, rounds: int, fallbacks: Optional[Dict[str, int]] = None
) -> Dict[str, Any]:
    """One ``run_many`` K-seed group against K per-seed fastpath runs.

    The same (spec, seed) pairs execute once through the batch engine's
    ``run_many`` and once as K individual fastpath runs, interleaved round
    by round with the best round of each kept.  The ratio is
    machine-independent: both engines run on the same box, same workload,
    same records.  The untimed warmup compiles everything and fills
    ``fallbacks`` with the group's fallback reasons.
    """
    from ..api import ENGINES

    run_many = ENGINES.get("batch").run_many
    seeds = list(range(k))
    fast_specs = [replace(template, engine="fastpath", seed=seed) for seed in seeds]
    records = run_many(template, seeds, fallbacks)  # warmup + probe
    execute_spec(fast_specs[0])
    steps = sum(int(record.metrics["steps"]) for record in records)
    best, _ = _best_of_rounds(
        {
            "batch": lambda: run_many(template, seeds),
            "fastpath": lambda: [execute_spec(spec) for spec in fast_specs],
        },
        rounds,
    )
    return {
        "k": k,
        "steps": steps,
        "batch_seconds": best["batch"],
        "fastpath_seconds": best["fastpath"],
        "batch_steps_per_sec": _per_sec(steps, best["batch"]),
        "fastpath_steps_per_sec": _per_sec(steps, best["fastpath"]),
        "ratio": _per_sec(best["fastpath"], best["batch"]),
    }


def run_batch_benchmarks(
    *,
    ks: Sequence[int] = BATCH_BENCH_KS,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure ``run_many`` seed-groups against per-seed fastpath runs.

    One row per group size K on the :func:`batch_bench_spec` workload.
    """
    template = batch_bench_spec()
    rounds = repeats + 2
    return {
        "workload": {
            "graph": template.graph,
            "graph_params": dict(template.graph_params),
            "protocol": template.protocol,
            "scheduler": template.scheduler,
        },
        "ks": list(ks),
        "rounds": rounds,
        "results": [_time_seed_group(template, k, rounds) for k in ks],
    }


def batch_protocol_spec(protocol: str, n: int = PROTOCOL_MATRIX_N) -> RunSpec:
    """The seed-group template for one protocol's batch coverage row.

    Same natural-habitat graph family as :func:`protocol_bench_spec`, but
    with the *graph* seed pinned to :data:`BATCH_PROTOCOL_GRAPH_SEED` in
    ``graph_params`` (see that constant's rationale) and the ``batch``
    engine selected.  The explicit ``max_steps`` cap bounds the eager-DAG
    split's path multiplicity identically on both engines.
    """
    return RunSpec(
        graph=PROTOCOL_BENCH_GRAPHS.get(protocol, "random-digraph"),
        graph_params={"num_internal": n - 2, "seed": BATCH_PROTOCOL_GRAPH_SEED},
        protocol=protocol,
        scheduler="random",
        engine="batch",
        max_steps=200_000,
        label=f"bench-batch-{protocol}-n{n}",
    )


def run_batch_protocol_matrix(
    *,
    n: int = PROTOCOL_MATRIX_N,
    k: int = BATCH_BENCH_GATED_K,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure every *batchable* protocol's ``run_many`` speedup at K=``k``.

    The registry-driven companion of :func:`run_protocol_matrix` for the
    batch engine: every protocol registered in
    :data:`~repro.api.registry.PROTOCOLS` and not listed in
    :data:`~repro.network.batchpath.BATCH_KERNEL_EXEMPT` gets one row
    comparing a K-seed ``run_many`` group against K per-seed fastpath
    runs (same discipline as :func:`run_batch_benchmarks`).  Each row also
    records the group's ``fallbacks`` counters — a non-empty dict means
    the workload silently degraded to per-seed execution and the measured
    ratio is dispatch overhead, not kernel speedup, so it shows up next to
    the number it explains.  The ``covers: batchable`` floor (see
    :func:`check_floors`) fails CI if a registered batchable protocol were
    ever missing from this matrix.
    """
    from ..network.batchpath import BATCH_KERNEL_EXEMPT

    ensure_registered()
    rounds = repeats + 2
    results: List[Dict[str, Any]] = []
    for protocol in sorted(PROTOCOLS.names()):
        if protocol in BATCH_KERNEL_EXEMPT:
            continue
        template = batch_protocol_spec(protocol, n)
        fallbacks: Dict[str, int] = {}
        row = _time_seed_group(template, k, rounds, fallbacks)
        results.append(
            {
                "protocol": protocol,
                "graph": template.graph,
                "n": n,
                **row,
                "fallbacks": dict(fallbacks),
            }
        )
    return {
        "n": n,
        "k": k,
        "rounds": rounds,
        "graph_seed": BATCH_PROTOCOL_GRAPH_SEED,
        "results": results,
    }


def run_trace_benchmarks(
    *,
    n: int = TRACE_BENCH_N,
    sample_k: int = TRACE_BENCH_SAMPLE_K,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure trace-capture overhead at ``|V| = n``.

    A traced run always executes on the reference loop
    (:func:`~repro.network.simulator.run_protocol`; the fastpath engine
    routes it there too, since the trace must see the real payloads), so
    the fair overhead baseline is the same loop without a sink.  Four
    arms over the canonical benchmark workload, interleaved round by
    round with the best round kept per arm:

    * ``kernel`` — the fastpath kernel, no sink (context: what an
      untraced production run costs);
    * ``untraced`` — the reference loop, no sink (the baseline trace
      overhead is measured against);
    * ``traced-full`` — the reference loop recording every event to a
      real ``.rtrace`` file, capture setup and finalize included;
    * ``traced-sample:k`` — the same with 1-in-``sample_k`` sampling.

    The gated number is ``overhead.traced_full_vs_untraced`` — wall time
    of the traced arm over the untraced reference arm — which a ``max``
    rule in ``benchmarks/floors.json`` bounds (machine-independent: both
    arms run on the same box).
    """
    from ..api.spec import compiled_topology
    from ..network.fastpath import run_protocol_fastpath
    from ..network.simulator import run_protocol
    from ..tracing.capture import TraceCapture

    template = bench_spec(n, "fastpath")
    network = template.build_graph()
    protocol = template.build_protocol()
    compiled = compiled_topology(network)
    full_spec = replace(template, trace="full")
    sample_spec = replace(template, trace=f"sample:{sample_k}")
    sample_arm = f"traced-sample:{sample_k}"

    def kernel() -> Any:
        return run_protocol_fastpath(
            network,
            protocol,
            template.build_scheduler(),
            max_steps=template.max_steps,
            stop_at_termination=template.stop_at_termination,
            compiled=compiled,
        )

    def reference(sink: Optional[Any]) -> Any:
        result = run_protocol(
            network,
            protocol,
            template.build_scheduler(),
            max_steps=template.max_steps,
            stop_at_termination=template.stop_at_termination,
            trace_sink=sink,
        )
        if sink is not None:
            sink.finalize(result)
        return result

    tmp = tempfile.mkdtemp(prefix="repro-trace-bench-")
    try:
        full_path = f"{tmp}/full.rtrace"
        sample_path = f"{tmp}/sample.rtrace"
        arms = {
            "kernel": kernel,
            "untraced": lambda: reference(None),
            "traced-full": lambda: reference(
                TraceCapture(full_spec, network, full_path)
            ),
            sample_arm: lambda: reference(
                TraceCapture(sample_spec, network, sample_path)
            ),
        }
        # warmup (also yields the step count — tracing never changes it)
        warmup = [run() for run in arms.values()]
        steps = int(warmup[0].metrics.steps)
        trace_bytes_full = os.path.getsize(full_path)
        trace_bytes_sample = os.path.getsize(sample_path)
        rounds = repeats + 2
        best, _ = _best_of_rounds(arms, rounds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    untraced = best["untraced"]
    return {
        "workload": {
            "graph": template.graph,
            "protocol": template.protocol,
            "seed": template.seed,
        },
        "n": n,
        "sample_k": sample_k,
        "rounds": rounds,
        "results": [
            {
                "arm": name,
                "n": n,
                "steps": steps,
                "best_seconds": seconds,
                "steps_per_sec": _per_sec(steps, seconds),
            }
            for name, seconds in best.items()
        ],
        "overhead": {
            "traced_full_vs_untraced": (
                best["traced-full"] / untraced if untraced > 0 else float("inf")
            ),
            f"traced_sample{sample_k}_vs_untraced": (
                best[sample_arm] / untraced if untraced > 0 else float("inf")
            ),
            "untraced_vs_kernel": (
                untraced / best["kernel"] if best["kernel"] > 0 else float("inf")
            ),
            "trace_bytes_full": trace_bytes_full,
            "trace_bytes_sample": trace_bytes_sample,
        },
    }


#: The pinned workload for the schedule-search suite: the largest random
#: DAG whose schedule tree the exhaustive explorer drains in well under a
#: second (1 877 nodes, worst execution 13 deliveries deep), so the gate
#: compares a *completed* enumeration against the guided search's
#: time-to-incumbent rather than two truncation artifacts.
SCHEDULE_BENCH_GRAPH = "random-dag"
SCHEDULE_BENCH_PARAMS = {"num_internal": 3, "seed": 0}
SCHEDULE_BENCH_PROTOCOL = "general-broadcast"


def run_schedule_benchmarks(*, repeats: int = 3) -> Dict[str, Any]:
    """Guided vs. exhaustive schedule search on the pinned workload.

    Both searches run to completion on the same schedule tree (best of
    ``repeats`` timed rounds each).  The gated number is
    ``node_speedup`` — exhaustive nodes expanded over guided nodes
    expanded *when the incumbent reached the true worst* — which a
    ``min`` rule in ``benchmarks/floors.json`` bounds.  Node counts are
    deterministic, so the gate is machine-independent like the other
    ratio floors.  Wall-clock times ride along, and so does search
    throughput (``*_nodes_per_sec``): the guided rate has an absolute
    floor, which catches a per-node slowdown (say, snapshots that stop
    hashing cheaply) that the node-count ratio cannot see.  ``agrees``
    asserts the searches saw the same outcome set and the guided
    incumbent matched the exhaustive maximum — a bench that gated a
    speedup while the answers diverged would reward a broken search.
    """
    from ..lowerbounds.guided import search_schedules
    from ..lowerbounds.schedules import explore_all_schedules

    ensure_registered()
    spec = RunSpec(
        graph=SCHEDULE_BENCH_GRAPH,
        graph_params=dict(SCHEDULE_BENCH_PARAMS),
        protocol=SCHEDULE_BENCH_PROTOCOL,
        seed=0,
    )
    network = spec.build_graph()
    best, last = _best_of_rounds(
        {
            "exhaustive": lambda: explore_all_schedules(
                network, spec.build_protocol, max_steps_total=2_000_000
            ),
            "guided": lambda: search_schedules(
                network, spec.build_protocol, objective="max-steps", max_nodes=2_000_000
            ),
        },
        repeats,
    )
    exhaustive, guided = last["exhaustive"], last["guided"]
    agrees = (
        not exhaustive.truncated
        and not guided.truncated
        and guided.outcomes == exhaustive.outcomes
        and guided.best_depth == exhaustive.max_depth
    )
    nodes_at_best = max(1, guided.nodes_at_best or 0)
    # Per-node cost is flat across the walk, so time-to-incumbent is the
    # full guided wall time prorated by the node counter at the incumbent.
    seconds_to_best = best["guided"] * nodes_at_best / max(1, guided.nodes)
    return {
        "workload": {
            "graph": SCHEDULE_BENCH_GRAPH,
            "graph_params": dict(SCHEDULE_BENCH_PARAMS),
            "protocol": SCHEDULE_BENCH_PROTOCOL,
        },
        "rounds": repeats,
        "exhaustive_nodes": exhaustive.steps,
        "exhaustive_seconds": best["exhaustive"],
        "worst_steps": exhaustive.max_depth,
        "guided_nodes": guided.nodes,
        "guided_nodes_to_best": guided.nodes_at_best,
        "guided_seconds": best["guided"],
        "guided_seconds_to_best": seconds_to_best,
        "exhaustive_nodes_per_sec": _per_sec(exhaustive.steps, best["exhaustive"]),
        "guided_nodes_per_sec": _per_sec(guided.nodes, best["guided"]),
        "node_speedup": exhaustive.steps / nodes_at_best,
        "agrees": agrees,
    }


def synthetic_store_records(n_records: int) -> List[Any]:
    """``n_records`` distinct, cheap :class:`~repro.api.spec.RunRecord`\\ s.

    Synthesized rather than executed — the store bench measures store
    throughput, not engine throughput — but shaped exactly like real
    records (a full RunSpec with a distinct seed per record), so hashing,
    serialization and payload sizes are representative.
    """
    from ..api.spec import RunRecord

    base = RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": 8},
        protocol="general-broadcast",
        label="store-bench",
    )
    return [
        RunRecord(
            spec=replace(base, seed=i),
            outcome="terminated",
            terminated=True,
            num_vertices=10,
            num_edges=27,
            metrics={"steps": 100 + i, "total_messages": 300, "total_bits": 8000},
            elapsed_seconds=0.001,
        )
        for i in range(n_records)
    ]


def run_store_benchmarks(
    *,
    n_records: int = STORE_BENCH_RECORDS,
    root: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure result-store put/contains/get throughput at ``n_records``.

    Populates a fresh :class:`~repro.store.store.ResultStore` (a temp
    directory unless ``root`` is given) with synthetic records, then times
    the three operations a warm campaign resume exercises: ``put_many``
    (publishing), ``contains_many`` (index probes) and ``get_many`` (full
    record retrieval with hash verification).  ``cache_hit_rate`` is the
    fraction of just-stored records ``get_many`` returned intact — 1.0 on
    a healthy store, and the number the store's integrity floor gates (a
    retrieval or hash-check bug shows up here, not as a perf regression).
    """
    from ..store import ResultStore

    records = synthetic_store_records(n_records)
    specs = [record.spec for record in records]
    tmp = None
    if root is None:
        tmp = root = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        store = ResultStore(root)
        start = time.perf_counter()
        store.put_many(records)
        put_seconds = time.perf_counter() - start
        start = time.perf_counter()
        found = store.contains_many(specs)
        contains_seconds = time.perf_counter() - start
        start = time.perf_counter()
        got = store.get_many(specs)
        get_seconds = time.perf_counter() - start
        return {
            "n_records": n_records,
            "put_seconds": put_seconds,
            "contains_seconds": contains_seconds,
            "get_seconds": get_seconds,
            "put_per_sec": _per_sec(n_records, put_seconds),
            "contains_per_sec": _per_sec(n_records, contains_seconds),
            "get_per_sec": _per_sec(n_records, get_seconds),
            "indexed": len(found),
            "retrieved": len(got),
            "cache_hit_rate": len(got) / n_records if n_records else 0.0,
        }
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


#: The suites ``repro bench`` runs, in order: suite name →
#: ``measure(quick) -> block``.  Each block lands under its suite name in
#: the payload, where the path rules of ``benchmarks/floors.json`` find it.
BENCH_SUITES: Dict[str, Callable[[bool], Dict[str, Any]]] = {
    "engines": lambda quick: run_engine_benchmarks(
        sizes=QUICK_SIZES if quick else FULL_SIZES, repeats=2 if quick else 3
    ),
    "protocols": lambda quick: run_protocol_matrix(repeats=2),
    "store": lambda quick: run_store_benchmarks(
        n_records=STORE_BENCH_RECORDS // 5 if quick else STORE_BENCH_RECORDS
    ),
    "batch": lambda quick: run_batch_benchmarks(repeats=2 if quick else 3),
    "batch_protocols": lambda quick: run_batch_protocol_matrix(repeats=2),
    "trace": lambda quick: run_trace_benchmarks(repeats=2 if quick else 3),
    "schedules": lambda quick: run_schedule_benchmarks(repeats=2 if quick else 3),
}


def write_benchmarks(payload: Dict[str, Any], path: str) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_floors(path: str) -> List[Dict[str, Any]]:
    """Read a floors file (see ``benchmarks/floors.json``)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _row_label(row: Any) -> str:
    """A ``[*]`` row named by its string fields (e.g. its protocol), so a
    violation says which row broke the bound."""
    if not isinstance(row, dict):
        return ""
    return ",".join(
        f"{field}={value}"
        for field, value in sorted(row.items())
        if isinstance(value, str)
    )


_SEGMENT = re.compile(r"(?P<key>[^.\[\]]+)(?:\[(?P<select>[^\]]*)\])?")


def _resolve(payload: Any, path: str) -> Tuple[List[Tuple[str, Any]], List[str]]:
    """Every ``(location, value)`` a floor path reaches, and every dead end.

    A path is dotted keys; ``key[*]`` fans out over every element of a
    list and ``key[field=value,...]`` over the rows whose fields print as
    those values.  A missing key, an empty ``[*]`` and a selector that
    matches no row are all dead ends.
    """
    found: List[Tuple[str, Any]] = [("", payload)]
    dead: List[str] = []
    for segment in path.split("."):
        match = _SEGMENT.fullmatch(segment)
        if match is None:
            raise ValueError(f"malformed floor path {path!r}")
        key, select = match.group("key"), match.group("select")
        wanted = None
        if select not in (None, "*"):
            wanted = [part.split("=", 1) for part in select.split(",")]
            if any(len(pair) != 2 for pair in wanted):
                raise ValueError(f"malformed row selector [{select}] in {path!r}")
        reached: List[Tuple[str, Any]] = []
        for where, node in found:
            where = f"{where}.{key}" if where else key
            if not isinstance(node, dict) or key not in node:
                dead.append(where)
                continue
            node = node[key]
            if select is None:
                reached.append((where, node))
                continue
            rows = node if isinstance(node, list) else []
            if wanted is not None:
                rows = [
                    row
                    for row in rows
                    if isinstance(row, dict)
                    and all(str(row.get(field)) == value for field, value in wanted)
                ]
            if not rows:
                dead.append(f"{where}[{select}]")
            for index, row in enumerate(rows):
                label = _row_label(row) if select == "*" else select
                reached.append((f"{where}[{label or index}]", row))
        found = reached
    return found, dead


def _covered_names(kind: Any) -> List[str]:
    """The registry names a ``covers`` rule requires."""
    ensure_registered()
    names = set(PROTOCOLS.names())
    if kind == "batchable":
        from ..network.batchpath import BATCH_KERNEL_EXEMPT

        names -= set(BATCH_KERNEL_EXEMPT)
    elif kind != "protocols":
        raise ValueError(f"unknown covers set {kind!r}")
    return sorted(names)


def check_floors(payload: Dict[str, Any], floors: List[Dict[str, Any]]) -> List[str]:
    """Return every floor violation (empty list = gate passes).

    ``floors`` is a list of rules, each a ``path`` (see :func:`_resolve`)
    plus exactly one check:

    * ``{"path": ..., "min": v}`` — every value reached is ``>= v``;
    * ``{"path": ..., "max": v}`` — every value reached is ``<= v``;
    * ``{"path": ..., "equals": v}`` — every value reached equals ``v``;
    * ``{"path": ..., "covers": "protocols" | "batchable"}`` — every
      registered protocol (or every one outside
      :data:`~repro.network.batchpath.BATCH_KERNEL_EXEMPT`) is among the
      values reached, so registering a protocol without benching it fails.

    A path that reaches nothing is a violation — a gate that silently
    skips is no gate — and so is a malformed rule.  Any ``why`` field is
    documentation and is ignored.
    """
    violations: List[str] = []
    for rule in floors:
        if not isinstance(rule, dict):
            rule = {}
        path = rule.get("path")
        checks = [key for key in ("min", "max", "equals", "covers") if key in rule]
        if not isinstance(path, str) or len(checks) != 1:
            violations.append(
                f"malformed floor rule {rule!r}: need a path and exactly one of "
                "min, max, equals, covers"
            )
            continue
        check = checks[0]
        bound = rule[check]
        try:
            required = _covered_names(bound) if check == "covers" else None
            found, dead = _resolve(payload, path)
        except ValueError as exc:
            violations.append(f"malformed floor rule {rule!r}: {exc}")
            continue
        violations.extend(f"{path}: nothing at {where}" for where in dead)
        if required is not None:
            present = {value for _, value in found}
            violations.extend(
                f"{path}: registered protocol {name!r} is missing ({bound} coverage)"
                for name in required
                if name not in present
            )
            continue
        for where, value in found:
            if check == "equals":
                if value != bound:
                    violations.append(f"{where} is {value!r}, expected {bound!r}")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                violations.append(f"{where} is {value!r}, not a number")
            elif check == "min" and value < bound:
                violations.append(f"{where} is {value:.4g}, below the floor of {bound}")
            elif check == "max" and value > bound:
                violations.append(
                    f"{where} is {value:.4g}, above the ceiling of {bound}"
                )
    return violations


def _render_engines(block: Dict[str, Any]) -> List[str]:
    lines = [f"{'engine':<12} {'n':>5} {'steps':>8} {'best_s':>9} {'steps/sec':>12}"]
    for row in block["results"]:
        lines.append(
            f"{row['engine']:<12} {row['n']:>5} {row['steps']:>8} "
            f"{row['best_seconds']:>9.4f} {row['steps_per_sec']:>12.0f}"
        )
    for comparison in block["comparisons"]:
        ratios = ", ".join(
            f"{key} = {value:.2f}x" for key, value in comparison.items() if key != "n"
        )
        if ratios:
            lines.append(f"n={comparison['n']}: {ratios}")
    return lines


def _render_protocols(block: Dict[str, Any]) -> List[str]:
    lines = [f"protocol kernel coverage at n={block['n']} (fastpath vs async):"]
    for comparison in sorted(block["comparisons"], key=lambda c: c["protocol"]):
        ratio = comparison.get("fastpath_vs_async")
        shown = f"{ratio:.2f}x" if ratio is not None else "n/a"
        lines.append(f"  {comparison['protocol']:<24} {shown:>8}")
    return lines


def _render_store(block: Dict[str, Any]) -> List[str]:
    return [
        f"result store at {block['n_records']} records: "
        f"put {block['put_per_sec']:.0f}/s, "
        f"contains {block['contains_per_sec']:.0f}/s, "
        f"get {block['get_per_sec']:.0f}/s, "
        f"hit rate {block['cache_hit_rate']:.3f}"
    ]


def _render_batch(block: Dict[str, Any]) -> List[str]:
    workload = block["workload"]
    lines = [
        f"batch engine seed-groups on {workload['graph']}/{workload['protocol']} "
        "(run_many vs per-seed fastpath):",
        f"{'K':>6} {'steps':>9} {'batch/s':>12} {'fastpath/s':>12} {'ratio':>8}",
    ]
    for row in block["results"]:
        lines.append(
            f"{row['k']:>6} {row['steps']:>9} "
            f"{row['batch_steps_per_sec']:>12.0f} "
            f"{row['fastpath_steps_per_sec']:>12.0f} "
            f"{row['ratio']:>7.2f}x"
        )
    return lines


def _render_batch_protocols(block: Dict[str, Any]) -> List[str]:
    lines = [
        f"batch kernel coverage at n={block['n']}, K={block['k']} "
        "(run_many vs per-seed fastpath):"
    ]
    for row in block["results"]:
        note = ""
        if row.get("fallbacks"):
            tally = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(row["fallbacks"].items())
            )
            note = f"  [fell back: {tally}]"
        lines.append(f"  {row['protocol']:<24} {row['ratio']:>7.2f}x{note}")
    return lines


def _render_trace(block: Dict[str, Any]) -> List[str]:
    lines = [
        f"trace capture overhead at n={block['n']} (reference loop):",
        f"{'arm':<20} {'steps':>8} {'best_s':>9} {'steps/sec':>12}",
    ]
    for row in block["results"]:
        lines.append(
            f"{row['arm']:<20} {row['steps']:>8} "
            f"{row['best_seconds']:>9.4f} {row['steps_per_sec']:>12.0f}"
        )
    overhead = block["overhead"]
    lines.append(
        f"full capture overhead: {overhead['traced_full_vs_untraced']:.2f}x "
        f"untraced ({overhead['trace_bytes_full']} bytes written)"
    )
    return lines


def _render_schedules(block: Dict[str, Any]) -> List[str]:
    workload = block["workload"]
    return [
        f"schedule search on {workload['graph']}/{workload['protocol']} "
        f"(worst execution: {block['worst_steps']} steps):",
        f"  exhaustive: {block['exhaustive_nodes']} nodes in "
        f"{block['exhaustive_seconds']:.3f}s; guided incumbent "
        f"at node {block['guided_nodes_to_best']} "
        f"(~{block['guided_seconds_to_best']:.4f}s) — "
        f"{block['node_speedup']:.1f}x fewer nodes"
        + ("" if block["agrees"] else "  [DISAGREES]"),
        f"  throughput: exhaustive {block['exhaustive_nodes_per_sec']:.0f} nodes/s, "
        f"guided {block['guided_nodes_per_sec']:.0f} nodes/s",
    ]


_RENDERERS: Dict[str, Callable[[Dict[str, Any]], List[str]]] = {
    "engines": _render_engines,
    "protocols": _render_protocols,
    "store": _render_store,
    "batch": _render_batch,
    "batch_protocols": _render_batch_protocols,
    "trace": _render_trace,
    "schedules": _render_schedules,
}


def render_bench_table(payload: Dict[str, Any]) -> str:
    """Human-readable summary of every suite block present in ``payload``."""
    sections = [
        "\n".join(render(payload[name]))
        for name, render in _RENDERERS.items()
        if name in payload
    ]
    return "\n\n".join(sections)
