"""Execution engines as structured registry entries.

An *engine* is the thing that actually drives a protocol over a network:
the reference asynchronous simulator, the compiled fast-path loop, or the
vectorized multi-run batch engine.  What order messages arrive in —
lockstep rounds included — is the scheduler's business, and what the
network does wrong is the fault model's, not the engine's: every engine
takes every spec.  Each engine is registered in
:data:`~repro.api.registry.ENGINES` as an :class:`EngineInfo`::

    info = ENGINES.get("fastpath")
    result, extra = info.run_one(spec, network, protocol)
    if info.run_many is not None:
        records = info.run_many(spec, seeds)

``run_one`` has the signature ``(spec, network, protocol) ->
(result, extra_metrics)`` where ``result`` is the engine's native result
object (it must expose ``outcome``, ``terminated`` and ``metrics``) and
``extra_metrics`` is a dict of additions folded into the
:class:`~repro.api.spec.RunRecord` metrics: the scheduler's
:meth:`~repro.network.scheduler.Scheduler.extras` (the ``rounds``
scheduler's ``rounds`` and ``termination_round``) and the fault and
trace counters.

``run_many`` is optional: ``run_many(spec, seeds)`` executes one spec
shape across many seeds in a single call and returns input-ordered
:class:`~repro.api.spec.RunRecord` objects (an optional third
``fallbacks`` counter dict collects per-seed fallback reasons).  The
:class:`~repro.api.runner.BatchRunner` groups pending work by "spec minus
seed" for every engine that has it and dispatches whole seed-groups
through it.

The heavy engine modules are imported lazily inside each adapter so that
importing :mod:`repro.api` stays cheap (and so the ``batch`` engine's
numpy dependency is only required when the batch engine actually runs).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .registry import ENGINES

__all__ = ["ENGINES", "EngineInfo"]


@dataclass(frozen=True)
class EngineInfo:
    """One registered execution engine.

    Parameters
    ----------
    name:
        The registry name (``"async"``, ``"fastpath"``, ...).
    run_one:
        ``(spec, network, protocol) -> (result, extra_metrics)`` — the
        single-run adapter every engine must provide.
    run_many:
        Optional ``(spec, seeds, fallbacks=None) -> list[RunRecord]``
        executing one spec shape across many seeds in a single call
        (input-ordered records).  ``fallbacks`` is an optional mutable
        counter dict the engine increments per spec that silently took a
        per-seed fallback, keyed by reason (surfaced as
        ``batch_fallbacks`` in :class:`~repro.api.runner.BatchStats`).

    Every engine accepts every spec: fault models and trace capture
    included.
    """

    name: str
    run_one: Callable[[Any, Any, Any], Tuple[Any, Dict[str, Any]]]
    run_many: Optional[Callable[[Any, Sequence[Any]], List[Any]]] = None


def _trace_capture(spec: Any, network: Any) -> Optional[Any]:
    """The run's trace sink, or ``None`` (the overwhelmingly common case)."""
    if getattr(spec, "trace", None) is None:
        return None
    from ..tracing.capture import open_capture

    return open_capture(spec, network)


def _extra_metrics(
    scheduler: Any, result: Any, faults: Any, capture: Any
) -> Dict[str, Any]:
    """Fold the scheduler's extras (e.g. ``rounds``) and the fault and
    trace counters into the record's engine extras."""
    extra: Dict[str, Any] = scheduler.extras(result.metrics)
    if faults is not None:
        extra.update(faults.counters())
    if capture is not None:
        extra.update(capture.counters())
    return extra


def _trace_extras(trace: Any, network: Any) -> Dict[str, Any]:
    """The trace-profile scalars a record's metrics lack (the in-memory
    trace itself never reaches the record)."""
    loads = Counter(network.edge_head(delivery.edge_id) for delivery in trace.deliveries)
    return {
        "distinct_message_sizes": len({delivery.bits for delivery in trace.deliveries}),
        "max_vertex_load": max(loads.values(), default=0),
    }


def _run_loop(
    run: Callable[..., Any], spec: Any, network: Any, protocol: Any, **extra: Any
) -> Tuple[Any, Dict[str, Any]]:
    """Drive ``run`` (``run_protocol`` or ``run_protocol_fastpath``) with
    the spec's scheduler, run options, fault injector and trace capture;
    a ``record_trace`` run also reports :func:`_trace_extras`."""
    faults = spec.build_faults(network)
    scheduler = spec.build_scheduler(network)
    capture = _trace_capture(spec, network)
    try:
        result = run(
            network,
            protocol,
            scheduler,
            max_steps=spec.max_steps,
            record_trace=spec.record_trace,
            track_state_bits=spec.track_state_bits,
            stop_at_termination=spec.stop_at_termination,
            faults=faults,
            trace_sink=capture,
            **extra,
        )
    except BaseException:
        if capture is not None:
            capture.abort()
        raise
    if capture is not None:
        capture.finalize(result)
    metrics = _extra_metrics(scheduler, result, faults, capture)
    if spec.record_trace:
        metrics.update(_trace_extras(result.trace, network))
    return result, metrics


def _run_async(spec: Any, network: Any, protocol: Any) -> Tuple[Any, Dict[str, Any]]:
    """The paper's adversarial model: per-event delivery under a scheduler."""
    from ..network.simulator import run_protocol

    return _run_loop(run_protocol, spec, network, protocol)


def _run_fastpath(spec: Any, network: Any, protocol: Any) -> Tuple[Any, Dict[str, Any]]:
    """Compiled flat-state engine; bit-identical to ``async``, much faster.

    The ``O(|V| + |E|)`` topology compilation is served from the
    process-local cache keyed by the spec's graph-defining fields, so
    campaign grids that sweep protocol/scheduler/seed axes over one
    topology compile it once per worker instead of once per run.

    A spec with a crash or churn schedule or a trace runs on the reference
    loop (the ``async`` engine's
    :func:`~repro.network.simulator.run_protocol`), which
    :func:`~repro.network.fastpath.run_protocol_fastpath` calls with the
    same arguments — such runs are engine-identical by construction.
    """
    from ..network.fastpath import run_protocol_fastpath
    from .spec import compiled_topology

    return _run_loop(
        run_protocol_fastpath,
        spec,
        network,
        protocol,
        compiled=compiled_topology(network),
    )


def _run_batch_many(
    spec: Any,
    seeds: Sequence[Any],
    fallbacks: Optional[Dict[str, int]] = None,
) -> List[Any]:
    """Structure-of-arrays multi-run execution (see :mod:`repro.network.batchpath`)."""
    from ..network.batchpath import run_many_batched

    return run_many_batched(spec, seeds, fallbacks)


ENGINES.register("async", EngineInfo(name="async", run_one=_run_async))
ENGINES.register("fastpath", EngineInfo(name="fastpath", run_one=_run_fastpath))
# The batch engine executes single runs through the fastpath adapter (its
# vectorized path only pays off across a seed-group), so run_one results
# are fastpath-identical by construction; run_many vectorizes seed-groups
# and falls back to per-spec fastpath execution for anything its kernels
# cannot express — faulty and traced specs included, which are never
# vectorized (kernels use flat payload representations the trace format
# must not see), so fault and trace support come along via the fallback.
ENGINES.register(
    "batch", EngineInfo(name="batch", run_one=_run_fastpath, run_many=_run_batch_many)
)
