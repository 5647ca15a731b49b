"""Traced runs: in-memory spans around the program's public functions.

During a traced run only, :func:`instrument` wraps the public functions of
each layer (spec identity, graph build, fastpath compile, engines, batch
``run_many``, record serialisation, store I/O, the batch runner, campaigns,
aggregators and the lower-bound harnesses) from this file, and restores
them afterwards.  Spans are kept in memory -- name, start, end, parent and
the id of the run (root span) they belong to -- and written out at the end.
:func:`derive` turns them into the per-layer ledger declared in
``meta.json``; a layer's self time is its span time minus the time its
child spans cover.  Only spans inside the traced cycle's timed passes
("pass" spans) count, and in an in-process workload their layers must
cover at least ``MIN_COVERAGE`` of the passes' wall time.  Pool workers
and the serve subprocess are not traced: their layers come from untraced
timings and HTTP job snapshots.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
from typing import Any, Callable, Dict, Iterator, List

from repro.api import (
    ENGINES,
    EXPERIMENTS,
    BatchRunner,
    CampaignRunner,
    DriverExperiment,
    RunRecord,
    RunSpec,
    TopologyCacheStats,
)
from repro.api import campaign as campaign_module
from repro.analysis import experiments as experiments_module
from repro.lowerbounds import certificates as certificates_module
from repro.network.fastpath import CompiledNetwork
from repro.store import ResultStore

import workloads
from spans import Span, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Share of the timed passes' wall time the named layers must cover.
MIN_COVERAGE = 0.9


def load_meta() -> Dict[str, Any]:
    with open(os.path.join(HERE, "meta.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------


def _note_engine(span: Span, result: Any, *args: Any) -> None:
    span.attrs["steps"] = result[0].metrics.steps


def _note_run_many(span: Span, records: Any, spec: Any, seeds: Any, fallbacks: Any = None) -> None:
    span.attrs["seeds"] = len(seeds)
    span.attrs["steps"] = sum(record.metrics["steps"] for record in records)


def _note_runner(span: Span, records: Any, runner: Any, *args: Any, **kwargs: Any) -> None:
    stats = runner.stats
    span.attrs.update(
        store_hits=stats.store_hits,
        store_misses=stats.store_misses,
        batched_groups=stats.batched_groups,
        fallbacks=dict(stats.batch_fallbacks),
    )


def _note_json_out(span: Span, text: str, *args: Any) -> None:
    span.attrs["bytes"] = len(text)


def _note_json_in(span: Span, result: Any, cls: Any, text: str) -> None:
    span.attrs["bytes"] = len(text)


def _note_search(span: Span, result: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["nodes"] = result[0].nodes


def _note_explore(span: Span, result: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["nodes"] = result.steps


def _campaign_kind(experiment: Any) -> str:
    if isinstance(experiment, str):
        experiment = EXPERIMENTS.get(experiment)
    if isinstance(experiment, DriverExperiment):
        return "driver"
    aggregate = campaign_module.AGGREGATORS.get(experiment.aggregator)
    return "whitebox" if getattr(aggregate, "white_box", False) else "grid"


class _TracedAggregators:
    """Stands in for the AGGREGATORS registry inside the campaign module."""

    def __init__(self, registry: Any, tracer: Tracer) -> None:
        self._registry = registry
        self._tracer = tracer

    def get(self, name: str) -> Any:
        return self._tracer.wrap("campaign.aggregate", self._registry.get(name))

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._registry, attr)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer's public functions for the duration of the block."""
    restore: List[Callable[[], None]] = []

    def patch_attr(owner: Any, attr: str, name: str, note: Any = None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, property):
            new: Any = property(tracer.wrap(name, raw.fget, note))
        elif isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(name, raw.__func__, note))
        else:
            new = tracer.wrap(name, raw, note)
        setattr(owner, attr, new)
        restore.append(lambda: setattr(owner, attr, raw))

    def patch_frozen(obj: Any, attr: str, name: str, note: Any) -> None:
        raw = getattr(obj, attr)
        object.__setattr__(obj, attr, tracer.wrap(name, raw, note))
        restore.append(lambda: object.__setattr__(obj, attr, raw))

    def campaign_run(raw: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(raw)
        def traced(runner: Any, experiment: Any) -> Any:
            name = experiment if isinstance(experiment, str) else experiment.name
            with tracer.span(f"campaign.{_campaign_kind(experiment)}") as span:
                span.attrs["experiment"] = name
                return raw(runner, experiment)

        return traced

    try:
        patch_attr(RunSpec, "spec_id", "spec.identity")
        patch_attr(RunSpec, "to_dict", "spec.identity")
        patch_attr(RunSpec, "build_graph", "graphs.build")
        patch_attr(CompiledNetwork, "__init__", "fastpath.compile")
        patch_attr(RunRecord, "to_dict", "record.serialise")
        patch_attr(RunRecord, "from_dict", "record.serialise")
        patch_attr(RunRecord, "to_json", "record.serialise", _note_json_out)
        patch_attr(RunRecord, "from_json", "record.serialise", _note_json_in)
        patch_attr(ResultStore, "get_many", "store.get_many")
        patch_attr(ResultStore, "put", "store.put")
        patch_attr(ResultStore, "put_many", "store.put")
        patch_attr(BatchRunner, "run", "runner.run", _note_runner)
        patch_attr(certificates_module, "search_and_certify", "lowerbounds.search", _note_search)
        patch_attr(experiments_module, "explore_all_schedules", "lowerbounds.explore", _note_explore)
        raw_run = CampaignRunner.__dict__["run"]
        CampaignRunner.run = campaign_run(raw_run)
        restore.append(lambda: setattr(CampaignRunner, "run", raw_run))
        raw_timed = workloads.timed
        workloads.timed = lambda fn: raw_timed(tracer.wrap("pass", fn))
        restore.append(lambda: setattr(workloads, "timed", raw_timed))
        registry = campaign_module.AGGREGATORS
        campaign_module.AGGREGATORS = _TracedAggregators(registry, tracer)
        restore.append(lambda: setattr(campaign_module, "AGGREGATORS", registry))
        for engine in ENGINES.names():
            info = ENGINES.get(engine)
            patch_frozen(info, "run_one", "engine.run_one", _note_engine)
            if info.run_many is not None:
                patch_frozen(info, "run_many", "batch.run_many", _note_run_many)
        yield
    finally:
        for undo in reversed(restore):
            undo()


# ----------------------------------------------------------------------
# the per-layer ledger
# ----------------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (nearest-rank); 0 without samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[rank]


def derive(
    tracer: Tracer,
    traced_wall: float,
    untraced_wall: float,
    cycle: Any,
    untraced_cycle: Any,
    pool: Any = None,
) -> Dict[str, Any]:
    """Per-layer metrics (every name in meta.json) plus the layers' coverage."""
    meta = load_meta()
    own = self_times(tracer.spans)
    by_id = {span.id: span for span in tracer.spans}
    # Only spans inside the timed passes ("pass" spans) count: the harness's
    # bookkeeping between passes calls some wrapped functions too.
    in_pass: Dict[int, bool] = {}
    for span in tracer.spans:
        parent = by_id[span.parent] if span.parent is not None else None
        in_pass[span.id] = parent is not None and (parent.name == "pass" or in_pass[parent.id])
    spans = [span for span in tracer.spans if in_pass[span.id]]
    passes = [span for span in tracer.spans if span.name == "pass"]
    passes_wall = sum(span.duration for span in passes)
    values: Dict[str, float] = {entry["name"]: 0.0 for entry in meta["per_layer"]}

    def self_of(name: str) -> float:
        return sum(own[s.id] for s in spans if s.name == name)

    def nested_in(span: Span, name: str) -> bool:
        return any(by_id[parent].name == name for parent in _ancestors(span, by_id))

    def outermost(name: str) -> List[Span]:
        """Spans of ``name`` not nested inside another span of the same name."""
        return [span for span in spans if span.name == name and not nested_in(span, name)]

    records = max(1, cycle.extra.get("records", 0))
    cache = cycle.extra.get("cache") or TopologyCacheStats(hits=0, misses=0)
    runner_spans = outermost("runner.run")
    hits = sum(s.attrs.get("store_hits", 0) for s in runner_spans)
    misses = sum(s.attrs.get("store_misses", 0) for s in runner_spans)
    fallbacks: Dict[str, int] = {}
    for span in runner_spans:
        for reason, count in span.attrs.get("fallbacks", {}).items():
            fallbacks[reason] = fallbacks.get(reason, 0) + count

    many_spans = outermost("batch.run_many")
    top_engine = [s for s in outermost("engine.run_one") if not nested_in(s, "batch.run_many")]
    engine_wall = sum(s.duration for s in top_engine) + sum(s.duration for s in many_spans)
    steps = sum(s.attrs.get("steps", 0) for s in top_engine) + sum(
        s.attrs.get("steps", 0) for s in many_spans
    )

    values.update(
        {
            "spec.identity_s": self_of("spec.identity"),
            "spec.identity_calls_per_record": sum(s.name == "spec.identity" for s in spans) / records,
            "spec.topology_hit_ratio": _ratio(cache.hits, cache.hits + cache.misses),
            "graphs.build_s": self_of("graphs.build"),
            "graphs.builds": float(sum(s.name == "graphs.build" for s in spans)),
            "fastpath.compile_s": self_of("fastpath.compile"),
            "engine.run_one_s": self_of("engine.run_one"),
            "engine.kernel_share": _ratio(engine_wall, passes_wall),
            "engine.deliveries_per_s": _ratio(steps, engine_wall),
            "batch.run_many_s": self_of("batch.run_many"),
            "batch.groups": float(sum(s.attrs.get("batched_groups", 0) for s in runner_spans)),
            "record.serialise_s": self_of("record.serialise"),
            "record.bytes": float(sum(s.attrs.get("bytes", 0) for s in spans if s.name == "record.serialise")),
            "store.get_many_s": self_of("store.get_many"),
            "store.put_s": self_of("store.put"),
            "store.put_calls": float(len(outermost("store.put"))),
            "store.hit_ratio": _ratio(hits, hits + misses),
            "store.bytes_written": float(cycle.extra.get("store_bytes", 0)),
            "campaign.aggregate_s": self_of("campaign.aggregate"),
            "lowerbounds.search_s": self_of("lowerbounds.search"),
            "lowerbounds.explore_s": self_of("lowerbounds.explore"),
            "lowerbounds.nodes": float(
                sum(s.attrs.get("nodes", 0) for s in spans if s.name.startswith("lowerbounds."))
            ),
            "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        }
    )

    # Batching: vectorised seeds over every seed eligible for run_many.
    seeds = sum(s.attrs.get("seeds", 0) for s in many_spans)
    engine_fallbacks = sum(v for k, v in fallbacks.items() if k != "small_group")
    eligible = seeds + fallbacks.get("small_group", 0)
    values["batch.batched_share"] = _ratio(seeds - engine_fallbacks, eligible)
    for reason, count in fallbacks.items():
        key = f"batch.fallbacks.{reason}"
        if key in values:
            values[key] = float(count)

    # Campaigns: inclusive wall per experiment and per kind.
    for kind in ("grid", "whitebox", "driver"):
        kind_spans = [s for s in spans if s.name == f"campaign.{kind}"]
        values[f"campaign.{kind}_s"] = sum(s.duration for s in kind_spans)
        for span in kind_spans:
            key = f"campaign.{span.attrs['experiment']}_s"
            if key in values:
                values[key] += span.duration

    # Pool layer, from untraced passes (workers are not traced).
    if pool is not None:
        extra = pool.extra
        values["runner.pool_s"] = extra["pool_s"]
        values["runner.specs_per_s"] = _ratio(extra["records"], extra["serial_s"])
        values["runner.ipc_s"] = extra["pool_s"] - extra["serial_s"] / extra["workers"]
        values["runner.ipc_bytes"] = float(extra["ipc_bytes"])

    # Service layer, from the client's timings and the jobs' snapshots.
    jobs = [job for job in untraced_cycle.extra.get("jobs", []) if job.ok]
    if jobs:
        latencies = [job.latency_s * 1000 for job in jobs]
        runs = [(job.snapshot["finished_at"] - job.snapshot["started_at"]) * 1000 for job in jobs]
        values.update(
            {
                "service.submit_ms": _median([job.submit_s * 1000 for job in jobs]),
                "service.queue_wait_ms": _median(
                    [(job.snapshot["started_at"] - job.snapshot["created_at"]) * 1000 for job in jobs]
                ),
                "service.run_ms": _median(runs),
                "service.http_overhead_ms": _median([lat - run for lat, run in zip(latencies, runs)]),
                "service.latency_p50_ms": _quantile(latencies, 50),
                "service.latency_p95_ms": _quantile(latencies, 95),
                "service.latency_samples": float(len(latencies)),
                "service.jobs_per_s": _ratio(len(jobs), untraced_cycle.extra["wall_s"]),
            }
        )
        summaries = [job.snapshot.get("summary", {}) for job in jobs]
        store_hits = sum(s.get("store_hits", 0) for s in summaries)
        store_misses = sum(s.get("store_misses", 0) for s in summaries)
        values["store.hit_ratio"] = _ratio(store_hits, store_hits + store_misses)
        cache_hits = sum(s.get("cache_hits", 0) for s in summaries)
        cache_misses = sum(s.get("cache_misses", 0) for s in summaries)
        values["spec.topology_hit_ratio"] = _ratio(cache_hits, cache_hits + cache_misses)

    # Coverage: the named layers' self times over the passes' wall; a
    # pass's own self time is what no layer covers.
    layers: Dict[str, float] = {}
    for span in spans:
        layers[span.name] = layers.get(span.name, 0.0) + own[span.id]
    covered = sum(layers.values())
    values["trace.unspanned_share"] = 1.0 - _ratio(covered, passes_wall)
    return {
        "metrics": values,
        "self_time_s": layers,
        "unspanned_s": sum(own[span.id] for span in passes),
        "covered_s": covered,
        "passes_wall_s": passes_wall,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "coverage": _ratio(covered, passes_wall),
    }


def _ancestors(span: Span, by_id: Dict[int, Span]) -> Iterator[int]:
    parent = span.parent
    while parent is not None:
        yield parent
        parent = by_id[parent].parent


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
