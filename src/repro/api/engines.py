"""Execution engines as structured registry entries.

An *engine* is the thing that actually drives a protocol over a network:
the reference asynchronous simulator, the compiled fast-path loop, or the
vectorized multi-run batch engine.  What order messages arrive in —
lockstep rounds included — is the scheduler's business, not the engine's.
Each engine is registered in :data:`~repro.api.registry.ENGINES` as an
:class:`EngineInfo` — a capability contract instead of a bare callable::

    info = ENGINES.get("fastpath")
    result, extra = info.run_one(spec, network, protocol)
    if info.supports_batching:
        records = info.run_many(spec, seeds)

``run_one`` keeps the historical callable signature
``(spec, network, protocol) -> (result, extra_metrics)`` where ``result``
is the engine's native result object (it must expose ``outcome``,
``terminated`` and ``metrics``) and ``extra_metrics`` is a dict of
additions folded into the :class:`~repro.api.spec.RunRecord` metrics:
the scheduler's :meth:`~repro.network.scheduler.Scheduler.extras` (the
``rounds`` scheduler's ``rounds`` and ``termination_round``) and the
fault and trace counters.  :class:`EngineInfo` instances are themselves
callable with that signature, so legacy ``engine(spec, network,
protocol)`` call sites keep working unchanged.

``run_many`` is the batching capability: ``run_many(spec, seeds)``
executes one spec shape across many seeds in a single call and returns
input-ordered :class:`~repro.api.spec.RunRecord` objects (an optional
third ``fallbacks`` counter dict collects per-seed fallback reasons).
Only engines with ``supports_batching=True`` provide it; the
:class:`~repro.api.runner.BatchRunner` groups pending work by
"spec minus seed" and dispatches whole seed-groups through it.

``supports_faults`` replaces the old ad-hoc function attribute of the
same name: :class:`~repro.api.spec.RunSpec` validation consults it, so a
spec carrying a fault model on a non-fault engine fails at construction
with a one-line error listing the engines that do support faults.

The heavy engine modules are imported lazily inside each adapter so that
importing :mod:`repro.api` stays cheap (and so the ``batch`` engine's
numpy dependency is only required when the batch engine actually runs).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .registry import ENGINES

__all__ = [
    "ENGINES",
    "EngineInfo",
    "fault_capable_engines",
]


@dataclass(frozen=True)
class EngineInfo:
    """Capability contract for one registered execution engine.

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
        Must be present exactly when ``supports_batching`` is set.
    supports_faults:
        Whether specs carrying a :class:`~repro.network.faults.FaultSpec`
        may select this engine.
    supports_batching:
        Whether :class:`~repro.api.runner.BatchRunner` may dispatch whole
        seed-groups through :attr:`run_many`.

    Every engine accepts trace capture (see :mod:`repro.tracing`).
    """

    name: str
    run_one: Callable[[Any, Any, Any], Tuple[Any, Dict[str, Any]]]
    run_many: Optional[Callable[[Any, Sequence[Any]], List[Any]]] = None
    supports_faults: bool = False
    supports_batching: bool = False

    def __post_init__(self) -> None:
        if self.supports_batching != (self.run_many is not None):
            raise ValueError(
                f"engine {self.name!r}: supports_batching must match the "
                "presence of run_many"
            )

    def __call__(self, spec: Any, network: Any, protocol: Any) -> Tuple[Any, Dict[str, Any]]:
        """Legacy callable form; delegates to :attr:`run_one`."""
        return self.run_one(spec, network, protocol)

    def capabilities(self) -> Tuple[str, ...]:
        """The declared capability tags, for ``repro registry`` and tests."""
        tags = ["run_one"]
        if self.run_many is not None:
            tags.append("run_many")
        if self.supports_faults:
            tags.append("faults")
        if self.supports_batching:
            tags.append("batching")
        return tuple(tags)


def fault_capable_engines() -> Tuple[str, ...]:
    """Registry names of every engine with ``supports_faults=True``."""
    return tuple(
        name for name in ENGINES.names() if ENGINES.get(name).supports_faults
    )


def _faults_and_scheduler(spec: Any, network: Any) -> Tuple[Any, Any]:
    """The run's fault injector (or ``None``) and its effective scheduler.

    A fault spec naming an adversarial strategy replaces the run spec's
    scheduler with it — the strategy *is* the delivery adversary.  The
    engines wrap it in the injector's loss, duplication and delay.
    """
    injector = spec.build_faults(network)
    if injector is not None and injector.adversary is not None:
        return injector, injector.adversary
    return injector, spec.build_scheduler()


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
    faults, scheduler = _faults_and_scheduler(spec, network)
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


ENGINES.register(
    "async", EngineInfo(name="async", run_one=_run_async, supports_faults=True)
)
ENGINES.register(
    "fastpath",
    EngineInfo(name="fastpath", run_one=_run_fastpath, supports_faults=True),
)
# The batch engine executes single runs through the fastpath adapter (its
# vectorized path only pays off across a seed-group), so run_one results
# are fastpath-identical by construction; run_many vectorizes seed-groups
# and falls back to per-spec fastpath execution for anything its kernels
# cannot express — including traced specs, which are never vectorized
# (kernels use flat payload representations the trace format must not
# see), so trace support comes along via the fallback.
ENGINES.register(
    "batch",
    EngineInfo(
        name="batch",
        run_one=_run_fastpath,
        run_many=_run_batch_many,
        supports_batching=True,
    ),
)
