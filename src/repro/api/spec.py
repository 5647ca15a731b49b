"""Serializable run specifications and structured run results.

The simulator's promise — *"every experiment is exactly reproducible from
(graph, protocol, scheduler, seed)"* — becomes a first-class object here.
A :class:`RunSpec` is a frozen, JSON-round-trippable description of one
execution: which graph to build (by registry name, with parameters), which
protocol to run on it, under which scheduler, with what step budget, seed
and tracing flags.  ``RunSpec.from_dict(spec.to_dict()) == spec`` always
holds, so specs can live in files, travel across process boundaries, and
key caches.

Executing a spec yields a :class:`RunRecord` — the spec plus outcome,
graph size and the full :class:`~repro.network.metrics.RunMetrics` as a
plain dict — which is itself JSON-round-trippable and is the unit the
:class:`~repro.api.runner.BatchRunner` persists to JSONL.

Two entry points:

* :func:`execute_spec` — spec in, record out; safe to call in worker
  processes.
* :func:`execute_spec_full` — additionally returns the live
  :class:`~repro.network.simulator.RunResult` and the constructed network
  (per-vertex states, protocol output, graph structure).

Facts read off the final vertex states reach the record only through
the protocol's ``observe`` hook, for specs that set ``observe=True``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from collections import OrderedDict
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Dict, Iterable, Optional, Set, Tuple, Union

from .engines import ENGINES
from .registry import GRAPH_TRANSFORMS, GRAPHS, PROTOCOLS, SCHEDULERS, UnknownNameError

__all__ = [
    "RunSpec",
    "RunRecord",
    "SpecError",
    "MetricValue",
    "TIMING_FIELDS",
    "TopologyCacheStats",
    "execute_spec",
    "execute_spec_full",
    "compiled_topology",
    "topology_key",
    "cached_network",
    "topology_cache_stats",
    "clear_topology_cache",
    "ensure_registered",
    "check_registered_names",
    "load_specs",
    "dump_specs",
]

#: One entry of :attr:`RunRecord.metrics`.  Most metrics are floats (or
#: ``None`` where a quantity is undefined for a run), but engines may fold
#: in integer extras — the synchronous engine's ``rounds`` and
#: ``termination_round`` — and JSON round-trips preserve the distinction,
#: so the union is the honest type.
MetricValue = Union[int, float, None]

#: RunRecord fields that vary between identical runs (wall-clock noise).
#: Determinism comparisons — and the resume logic's byte-identity claims —
#: are always "modulo these fields".
TIMING_FIELDS: Tuple[str, ...] = ("elapsed_seconds",)


class SpecError(ValueError):
    """A spec is malformed (bad field, unknown key, wrong engine...)."""


def _check_fields(cls: Any, payload: Any, what: str) -> None:
    """Reject a ``from_dict`` payload for dataclass ``cls`` that is not a
    dict, carries unknown keys or lacks a field without a default."""
    if not isinstance(payload, dict):
        raise SpecError(f"{what} payload must be a dict, got {type(payload).__name__}")
    declared = fields(cls)
    unknown = set(payload) - {f.name for f in declared}
    if unknown:
        raise SpecError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    missing = [
        f.name
        for f in declared
        if f.name not in payload
        and f.default is MISSING
        and f.default_factory is MISSING
    ]
    if missing:
        raise SpecError(f"missing required {what} field(s): {', '.join(missing)}")


#: Set once :func:`ensure_registered` has imported every registering module.
_REGISTERED = False


def ensure_registered() -> None:
    """Import every module that registers spec-addressable components.

    Registration is an import side effect; a worker process (or a user who
    imported only :mod:`repro.api`) may not have pulled in the baselines
    yet.  Called automatically by every ``build_*`` method; public so tools
    that only *enumerate* the registries (e.g. ``repro registry``) can
    populate them first.  Idempotent; after the first successful call it
    is one flag check.
    """
    global _REGISTERED
    if _REGISTERED:
        return
    from .. import baselines, core, graphs  # noqa: F401
    from ..analysis import campaigns  # noqa: F401  (EXPERIMENTS entries)
    from ..network import faults, scheduler  # noqa: F401

    _REGISTERED = True


def check_registered_names(specs: Iterable["RunSpec"]) -> None:
    """Raise :class:`UnknownNameError` for the first unregistered name in ``specs``.

    Checks each distinct graph, graph-transform, protocol and scheduler
    name once; the error lists the registered names.  Front ends (spec
    files, service submissions) call this before anything runs.  It is
    deliberately not part of :meth:`RunSpec._validate`, which runs on
    every spec built and every record read back.
    """
    ensure_registered()
    seen: Set[Tuple[Any, str]] = set()
    for spec in specs:
        for registry, names in (
            (GRAPHS, (spec.graph,)),
            (GRAPH_TRANSFORMS, spec.graph_transforms),
            (PROTOCOLS, (spec.protocol,)),
            (SCHEDULERS, (spec.scheduler,)),
        ):
            for name in names:
                if (registry, name) not in seen:
                    seen.add((registry, name))
                    registry.get(name)


@lru_cache(maxsize=1024)
def _accepts_param(factory: Any, name: str) -> bool:
    """Whether calling ``factory`` accepts a keyword argument ``name``.

    Memoised: registry factories are a small fixed set, and the
    ``inspect.signature`` walk is ~60µs — a measurable fraction of a short
    run when campaigns execute thousands of specs.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - C callables etc.
        return False
    params = signature.parameters
    if name in params:
        return params[name].kind not in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.VAR_POSITIONAL,
        )
    return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())


def _copy_json(value: Any) -> Any:
    """A deep copy of a JSON value (dicts, lists and scalars only)."""
    if isinstance(value, dict):
        return {key: _copy_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_json(item) for item in value]
    return value


def _json_safe(value: Any, where: str) -> Any:
    """Round ``value`` through JSON so tuples normalise and bad types fail loudly."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where} is not JSON-serializable: {exc}") from None


#: The spec fields :func:`_json_safe` normalises.
_PARAM_FIELDS = ("graph_params", "protocol_params", "scheduler_params")


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified protocol execution, as plain data.

    Parameters
    ----------
    graph / graph_params:
        A :data:`~repro.api.registry.GRAPHS` name plus its keyword
        arguments (e.g. ``"random-digraph"``, ``{"num_internal": 40}``).
    graph_transforms:
        :data:`~repro.api.registry.GRAPH_TRANSFORMS` names applied to the
        generated network in order (e.g. ``("with-dead-end-vertex",)``).
    protocol / protocol_params:
        A :data:`~repro.api.registry.PROTOCOLS` name plus constructor
        keyword arguments.
    scheduler / scheduler_params:
        A :data:`~repro.api.registry.SCHEDULERS` name plus constructor
        keyword arguments; ignored by the synchronous engine.
    engine:
        A :data:`~repro.api.registry.ENGINES` name: ``"async"`` (the
        paper's adversarial model, default), ``"fastpath"`` (compiled
        flat-state engine, result-identical to ``"async"`` and much
        faster) or ``"synchronous"`` (lockstep rounds, E13).
    max_steps:
        Delivery budget (rounds budget under the synchronous engine);
        ``None`` uses each engine's generous default.
    seed:
        The run's reproducibility seed.  Injected as the ``seed`` keyword
        into the graph factory — and the scheduler factory — whenever the
        factory accepts one and the explicit params don't already set it.
    record_trace / track_state_bits / stop_at_termination:
        Forwarded to :func:`~repro.network.simulator.run_protocol`
        (async engine only; ``stop_at_termination`` also applies to the
        synchronous engine).
    faults:
        Optional fault model: a :class:`~repro.network.faults.FaultSpec`
        (or its dict form) describing message loss/duplication/delay,
        crash schedules, churn intervals and an optional adversarial
        scheduler strategy.  ``None`` — the default, and the paper's
        reliable model — leaves the engines' fault-free paths untouched
        and keeps :attr:`spec_id` byte-identical to pre-fault-layer specs.
    trace:
        Durable trace-capture policy: ``None`` (off, the default),
        ``"full"`` (every delivery), or ``"sample:k"`` (reproducible
        keep-1-in-``k`` selection; see :mod:`repro.tracing`).  ``None``
        is excluded from :attr:`spec_id` — the same trick as
        ``faults=None`` — so untraced specs keep their historical hashes.
        Off-spellings (``"off"``/``"none"``/``""``) normalise to ``None``
        and ``"sample:08"`` to ``"sample:8"``, so equal policies always
        hash equally.
    observe:
        Merge the protocol's observables
        (:meth:`~repro.core.model.AnonymousProtocol.observe`: label
        uniqueness, exact reconstruction, ...) into the record's
        metrics.  Off by default, since it builds the per-vertex states
        a fast-path run otherwise never builds; ``False`` is excluded
        from :attr:`spec_id` like ``faults=None``.
    label:
        Free-form human tag.  Not part of the spec's identity: two specs
        differing only in label share a :attr:`spec_id`.

    >>> spec = RunSpec(graph="random-grounded-tree", protocol="tree-broadcast", seed=1)
    >>> RunSpec.from_dict(spec.to_dict()) == spec
    True
    >>> spec.with_seed(2).seed
    2
    """

    graph: str
    protocol: str
    graph_params: Dict[str, Any] = field(default_factory=dict)
    protocol_params: Dict[str, Any] = field(default_factory=dict)
    graph_transforms: Tuple[str, ...] = ()
    scheduler: str = "fifo"
    scheduler_params: Dict[str, Any] = field(default_factory=dict)
    engine: str = "async"
    max_steps: Optional[int] = None
    seed: Optional[int] = None
    record_trace: bool = False
    track_state_bits: bool = False
    stop_at_termination: bool = False
    faults: Optional[Any] = None
    trace: Optional[str] = None
    observe: bool = False
    label: Optional[str] = None

    def __post_init__(self) -> None:
        self._validate()
        for key in _PARAM_FIELDS:
            object.__setattr__(self, key, dict(_json_safe(getattr(self, key), key)))

    def _validate(self) -> None:
        """Every check :meth:`__post_init__` makes but the ``_json_safe``
        round trips of the params; normalises ``graph_transforms`` to a
        tuple, ``faults`` to a ``FaultSpec`` and ``trace`` to its canonical
        policy in place."""
        for key in ("graph", "protocol", "scheduler"):
            value = getattr(self, key)
            if not isinstance(value, str) or not value:
                raise SpecError(f"{key} must be a non-empty registry name")
        if self.engine not in ENGINES:
            raise SpecError(
                f"engine must be one of {ENGINES.names()}, got {self.engine!r}"
            )
        transforms = getattr(self, "graph_transforms") or ()
        if isinstance(transforms, str):
            raise SpecError("graph_transforms must be a sequence of names, not a string")
        object.__setattr__(self, "graph_transforms", tuple(transforms))
        if self.faults is not None:
            # Imported lazily: repro.network.faults needs the scheduler
            # module, whose import in turn initialises this package.
            from ..network.faults import FaultSpec, FaultSpecError

            try:
                if isinstance(self.faults, dict):
                    object.__setattr__(self, "faults", FaultSpec.from_dict(self.faults))
                elif not isinstance(self.faults, FaultSpec):
                    raise SpecError(
                        "faults must be a FaultSpec, its dict form, or None; "
                        f"got {type(self.faults).__name__}"
                    )
            except FaultSpecError as exc:
                raise SpecError(f"invalid faults payload: {exc}") from None
            if not ENGINES.get(self.engine).supports_faults:
                from .engines import fault_capable_engines

                capable = "', '".join(fault_capable_engines())
                raise SpecError(
                    f"engine {self.engine!r} does not support fault injection; "
                    f"use '{capable}'"
                )
        if self.trace is not None:
            # Dependency-free policy module: safe to import eagerly, kept
            # lazy for symmetry with the faults block above.
            from ..tracing.policy import TracePolicyError, normalize_policy

            try:
                object.__setattr__(self, "trace", normalize_policy(self.trace))
            except TracePolicyError as exc:
                raise SpecError(f"invalid trace policy: {exc}") from None
            if self.trace is not None and not ENGINES.get(self.engine).supports_trace:
                from .engines import trace_capable_engines

                capable = "', '".join(trace_capable_engines())
                raise SpecError(
                    f"engine {self.engine!r} does not support trace capture; "
                    f"use '{capable}'"
                )

    # ------------------------------------------------------------------
    # identity & serialization
    # ------------------------------------------------------------------

    @property
    def spec_id(self) -> str:
        """Stable content hash identifying the run (label excluded).

        The :class:`~repro.api.runner.BatchRunner` keys resume-from-partial
        output on this, so re-labelling specs never invalidates results.
        ``faults=None`` is excluded from the hash: fault-free specs keep
        the spec_id they had before the fault layer existed, so legacy
        resume files and caches stay valid.  ``trace=None`` and
        ``observe=False`` are excluded the same way.

        Computed on first access and memoised on the instance (the spec is
        frozen), so a spec must never be mutated in place after that;
        :meth:`with_seed`, :func:`dataclasses.replace` and unpickling all
        build instances that hash afresh.
        """
        cached = self.__dict__.get("_spec_id")
        if cached is not None:
            return cached
        payload: Dict[str, Any] = {
            "graph": self.graph,
            "protocol": self.protocol,
            "graph_params": self.graph_params,
            "protocol_params": self.protocol_params,
            "graph_transforms": self.graph_transforms,
            "scheduler": self.scheduler,
            "scheduler_params": self.scheduler_params,
            "engine": self.engine,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "record_trace": self.record_trace,
            "track_state_bits": self.track_state_bits,
            "stop_at_termination": self.stop_at_termination,
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.trace is not None:
            payload["trace"] = self.trace
        if self.observe:
            payload["observe"] = True
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        spec_id = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        object.__setattr__(self, "_spec_id", spec_id)
        return spec_id

    def __hash__(self) -> int:
        return hash(self.spec_id)

    def __getstate__(self) -> Dict[str, Any]:
        # Pickles carry the fields only; the memoised id is recomputed.
        return {name: value for name, value in self.__dict__.items() if name != "_spec_id"}

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict with every field present (stable shape)."""
        return {
            "graph": self.graph,
            "protocol": self.protocol,
            "graph_params": _copy_json(self.graph_params),
            "protocol_params": _copy_json(self.protocol_params),
            "graph_transforms": list(self.graph_transforms),
            "scheduler": self.scheduler,
            "scheduler_params": _copy_json(self.scheduler_params),
            "engine": self.engine,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "record_trace": self.record_trace,
            "track_state_bits": self.track_state_bits,
            "stop_at_termination": self.stop_at_termination,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "trace": self.trace,
            "observe": self.observe,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; unknown or missing keys are an error."""
        _check_fields(cls, payload, "spec")
        return cls(**payload)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string (sorted keys, optional pretty-print)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from its :meth:`to_json` form."""
        return cls.from_dict(json.loads(text))

    def with_seed(self, seed: Optional[int]) -> "RunSpec":
        """A copy differing only in :attr:`seed` (sweep convenience)."""
        return replace(self, seed=seed)

    @classmethod
    def _unchecked(cls, fields: Dict[str, Any]) -> "RunSpec":
        """A spec holding ``fields`` as given, without :meth:`__post_init__`.

        Only for a checked spec's own fields under another seed (``seed``
        takes part in no check), or for fields that :meth:`_validate` is
        run on next (:meth:`RunRecord.from_json`).  ``fields`` must name
        every field; a memoised ``_spec_id`` among them is dropped, so the
        identity is hashed from the fields.
        """
        spec = object.__new__(cls)
        spec.__dict__.update(fields)
        spec.__dict__.pop("_spec_id", None)
        return spec

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def _params_with_seed(self, factory: Any, params: Dict[str, Any]) -> Dict[str, Any]:
        merged = dict(params)
        if self.seed is not None and "seed" not in merged and _accepts_param(factory, "seed"):
            merged["seed"] = self.seed
        return merged

    def build_graph(self):
        """Construct the network this spec describes (deterministic)."""
        ensure_registered()
        factory = GRAPHS.get(self.graph)
        network = factory(**self._params_with_seed(factory, self.graph_params))
        for transform in self.graph_transforms:
            network = GRAPH_TRANSFORMS.create(transform, network)
        return network

    def build_protocol(self):
        """A fresh protocol instance."""
        ensure_registered()
        return PROTOCOLS.create(self.protocol, **self.protocol_params)

    def build_scheduler(self):
        """A fresh scheduler instance (async engine only)."""
        ensure_registered()
        factory = SCHEDULERS.get(self.scheduler)
        return factory(**self._params_with_seed(factory, self.scheduler_params))

    def build_faults(self, network):
        """The run's :class:`~repro.network.faults.FaultInjector`, or ``None``.

        Needs the built network (fault schedules are validated against its
        vertex count); the run seed feeds the fault RNG unless the fault
        spec pins its own seed.  Build-time defects — a fault vertex the
        network doesn't have, an unregistered adversary name — surface as
        :class:`SpecError`, same as construction-time ones.
        """
        if self.faults is None:
            return None
        ensure_registered()
        from ..network.faults import FaultSpecError

        try:
            return self.faults.build(network, self.seed)
        except (FaultSpecError, UnknownNameError) as exc:
            raise SpecError(f"invalid faults payload: {exc}") from None

    def run(self) -> "RunRecord":
        """Execute this spec; shorthand for :func:`execute_spec`."""
        return execute_spec(self)


@dataclass(frozen=True)
class RunRecord:
    """Structured result of executing one :class:`RunSpec`.

    ``metrics`` is the flattened :class:`~repro.network.metrics.RunMetrics`
    (plus ``rounds`` / ``termination_round`` under the synchronous engine,
    fault and trace counters, and the protocol's observables when the spec
    sets ``observe``).  ``elapsed_seconds`` is the only non-deterministic
    field — see :data:`TIMING_FIELDS`.
    """

    spec: RunSpec
    outcome: str
    terminated: bool
    num_vertices: int
    num_edges: int
    metrics: Dict[str, MetricValue]
    elapsed_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict with the spec nested in its own dict form."""
        return {
            "spec": self.spec.to_dict(),
            "outcome": self.outcome,
            "terminated": self.terminated,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "metrics": dict(self.metrics),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict`."""
        data = dict(payload)
        data["spec"] = RunSpec.from_dict(data["spec"])
        return cls(**data)

    def to_json(self) -> str:
        """One deterministic JSONL line (keys sorted, compact)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Parse one :meth:`to_json` line back into a record.

        A spec object with exactly :class:`RunSpec`'s keys and dict params
        is checked by :meth:`RunSpec._validate` alone: the ``_json_safe``
        round trips :meth:`RunSpec.__post_init__` adds cannot change a
        value ``json.loads`` has just returned.  Any other payload goes
        through :meth:`from_dict`, so the same payloads are refused.
        """
        payload = json.loads(text)
        spec = payload.get("spec") if type(payload) is dict else None
        if (
            type(spec) is dict
            and spec.keys() == _SPEC_KEYS
            and all(type(spec[key]) is dict for key in _PARAM_FIELDS)
        ):
            payload["spec"] = RunSpec._unchecked(spec)
            payload["spec"]._validate()
            return cls(**payload)
        return cls.from_dict(payload)

    def comparable_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` minus :data:`TIMING_FIELDS` (determinism checks)."""
        payload = self.to_dict()
        for key in TIMING_FIELDS:
            payload.pop(key, None)
        return payload


#: The spec keys :meth:`RunRecord.from_json` checks with ``_validate`` alone.
_SPEC_KEYS = frozenset(f.name for f in fields(RunSpec))


# ----------------------------------------------------------------------
# compiled-topology cache
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyCacheStats:
    """Snapshot of the process-local topology cache counters."""

    hits: int
    misses: int


class _TopologyEntry:
    """One cached topology: the built network plus its lazy compilation."""

    __slots__ = ("network", "compiled")

    def __init__(self, network: Any) -> None:
        self.network = network
        self.compiled: Any = None


class _TopologyCache:
    """Bounded process-local LRU of built (and compiled) topologies.

    Campaign grids routinely sweep thousands of protocol/scheduler/seed
    combinations over a handful of graphs; rebuilding the
    :class:`~repro.network.graph.DirectedNetwork` — and, on the fastpath
    engine, re-flattening it into a
    :class:`~repro.network.fastpath.CompiledNetwork` — per run is pure
    waste, since networks are immutable.  Entries are keyed by the spec's
    *graph-defining* fields: graph name, effective graph params (with the
    run seed injected exactly as :meth:`RunSpec.build_graph` would inject
    it — so graph families that ignore the seed share one entry across a
    seed sweep), and the transform chain.

    The cache is deliberately process-local: each
    :class:`~repro.api.runner.BatchRunner` worker populates its own copy
    on first use, and the per-run hit/miss deltas are shipped back with
    each record so :class:`~repro.api.runner.BatchStats` can aggregate
    them across the pool.
    """

    __slots__ = ("maxsize", "_entries", "hits", "misses")

    def __init__(self, maxsize: int = 32) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, _TopologyEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _key(self, spec: "RunSpec") -> Any:
        ensure_registered()
        factory = GRAPHS.get(spec.graph)
        params = spec._params_with_seed(factory, spec.graph_params)
        return (
            spec.graph,
            json.dumps(params, sort_keys=True, separators=(",", ":")),
            spec.graph_transforms,
        )

    def entry(self, spec: "RunSpec") -> _TopologyEntry:
        key = self._key(spec)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = _TopologyEntry(spec.build_graph())
        self._entries[key] = entry
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def compiled(self, network: Any) -> Any:
        """The :class:`CompiledNetwork` for ``network``, cached per topology.

        Only the entry whose network *is* the given object may serve (or
        store) a compilation — a caller-built network bypassing the cache
        gets a fresh, uncached compilation instead of poisoning an entry.
        The search starts at the entry :meth:`entry` served last, the run's
        own, so a run's params are keyed once, not again here.
        """
        from ..network.fastpath import CompiledNetwork

        entries = reversed(self._entries.values())
        entry = next((e for e in entries if e.network is network), None)
        if entry is not None:
            if entry.compiled is None:
                entry.compiled = CompiledNetwork(network)
            return entry.compiled
        return CompiledNetwork(network)

    def stats(self) -> TopologyCacheStats:
        return TopologyCacheStats(hits=self.hits, misses=self.misses)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_TOPOLOGY_CACHE = _TopologyCache()


def topology_cache_stats() -> TopologyCacheStats:
    """Cumulative hit/miss counters of this process's topology cache."""
    return _TOPOLOGY_CACHE.stats()


def clear_topology_cache() -> None:
    """Drop every cached topology and reset the counters (test isolation)."""
    _TOPOLOGY_CACHE.clear()


def compiled_topology(network: Any) -> Any:
    """The cached :class:`~repro.network.fastpath.CompiledNetwork` for a run.

    Used by the fastpath engine adapter; see :meth:`_TopologyCache.compiled`
    for the safety rule.
    """
    return _TOPOLOGY_CACHE.compiled(network)


def topology_key(spec: RunSpec) -> Any:
    """The spec's graph-defining identity (hashable).

    Two specs with equal topology keys build the same network — this is
    the key the process-local topology cache uses, exposed so the batch
    engine can subdivide a seed-group wherever the seed actually changes
    the graph (seed-sensitive graph families) before vectorizing.
    """
    return _TOPOLOGY_CACHE._key(spec)


def cached_network(spec: RunSpec) -> Any:
    """The spec's network, served from the process-local topology cache."""
    return _TOPOLOGY_CACHE.entry(spec).network


def execute_spec(spec: RunSpec) -> RunRecord:
    """Execute ``spec`` and return only the serializable record."""
    return execute_spec_full(spec)[0]


def execute_spec_full(spec: RunSpec):
    """Execute ``spec``; return ``(record, result, network)``.

    ``result`` is the engine's native result object —
    :class:`~repro.network.simulator.RunResult` or
    :class:`~repro.network.synchronous.SynchronousRunResult` — carrying
    per-vertex states, protocol output and the optional trace, none of
    which survive serialization; ``network`` is the
    :class:`~repro.network.graph.DirectedNetwork` the run executed on (so
    callers need not rebuild it).  Callers that only need numbers should
    use :func:`execute_spec` (or the batch runner) instead.

    For a spec with ``observe=True`` the protocol's
    :meth:`~repro.core.model.AnonymousProtocol.observe` facts join the
    record's metrics; this is the one place the hook is called.

    The engine is resolved through :data:`~repro.api.registry.ENGINES`
    (see :mod:`repro.api.engines`), so ``engine="fastpath"`` — or any
    engine registered later — needs no changes here.

    The network comes from the process-local topology cache (networks are
    immutable, so sharing one object across runs is sound); see
    :class:`_TopologyCache` and :func:`topology_cache_stats`.
    """
    network = cached_network(spec)
    protocol = spec.build_protocol()
    engine = ENGINES.get(spec.engine)
    start = time.perf_counter()
    result, extra = engine.run_one(spec, network, protocol)
    elapsed = time.perf_counter() - start

    run_metrics = result.metrics
    metrics: Dict[str, MetricValue] = {
        f.name: getattr(run_metrics, f.name) for f in fields(run_metrics)
    }
    metrics.update(extra)
    if spec.observe:
        metrics.update(protocol.observe(result, network))
    record = RunRecord(
        spec=spec,
        outcome=result.outcome.value,
        terminated=result.terminated,
        num_vertices=network.num_vertices,
        num_edges=network.num_edges,
        metrics=metrics,
        elapsed_seconds=elapsed,
    )
    return record, result, network


# ----------------------------------------------------------------------
# spec files
# ----------------------------------------------------------------------


def load_specs(path: str) -> list:
    """Read specs from a file: a JSON list, a single JSON object, or JSONL."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if not text.strip():
        return []
    try:
        payloads = json.loads(text)
        if isinstance(payloads, dict):
            payloads = [payloads]
    except json.JSONDecodeError as whole_file_error:
        try:
            payloads = [json.loads(line) for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError:
            # Not valid JSONL either: the whole-file error points at the
            # actual defect (e.g. a trailing comma mid-list); re-raise it
            # rather than a misleading "line 1" error from the fallback.
            raise whole_file_error from None
    return [RunSpec.from_dict(p) for p in payloads]


def dump_specs(specs, path: str) -> None:
    """Write specs as a pretty-printed JSON list (the ``repro batch`` input)."""
    payload = [spec.to_dict() for spec in specs]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
