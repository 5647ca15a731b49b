"""Declarative experiment campaigns: grids of runs plus a named reduction.

PR 1 made a single run first-class data (:class:`~repro.api.spec.RunSpec`);
this module does the same for a whole *experiment*.  An
:class:`ExperimentSpec` is a frozen, JSON-round-trippable description of a
campaign:

* ``base`` — a RunSpec template as a plain dict;
* ``axes`` — an ordered mapping of grid axes.  A key is a dotted path into
  the template (``"graph_params.num_internal"``, ``"seed"``) and its value
  the list of settings to sweep.  A key starting with ``"@"`` is a *patch
  axis*: its values are dicts of dotted-path assignments applied together,
  for workloads where several fields move in lockstep (E13's
  graph/protocol/size triples);
* ``aggregator`` / ``aggregator_params`` — a name in
  :data:`~repro.api.registry.AGGREGATORS` turning the executed
  :class:`~repro.api.spec.RunRecord` list into the experiment's dict rows;
* ``scales`` — named axis overrides (``"quick"`` for CI smoke runs).

:meth:`ExperimentSpec.expand` produces the concrete ``RunSpec`` grid
deterministically — ``itertools.product`` over the axes in declaration
order, first axis outermost — so the same campaign file always yields the
same specs in the same order, which is what makes campaign output
resumable and differential-testable.

The :class:`CampaignRunner` executes a campaign through the
:class:`~repro.api.runner.BatchRunner` (spec_id-keyed resume, JSONL
persistence) and aggregates rows, writing per-experiment artifacts
(``<name>.runs.jsonl`` + ``<name>.rows.json``) when given an output
directory.  Experiments registered in
:data:`~repro.api.registry.EXPERIMENTS` (see
:mod:`repro.analysis.campaigns`) are addressable by name from the CLI:
``repro experiment e05 --engine fastpath --quick``.  Both front doors —
that command and ``POST /experiments`` on ``repro serve`` — turn what the
user asked for into a :class:`CampaignRequest` through one parser,
:meth:`CampaignRequest.parse`, before anything runs.

Experiments whose rows read facts off the final vertex states (label
uniqueness, exact reconstruction) set ``observe`` in their ``base``, so
those facts arrive in the records like any other metric.  One escape
hatch keeps the registry complete for experiments the grid cannot
express: :class:`DriverExperiment` wraps an imperative driver by dotted
name (the lower-bound and search harnesses E2/E4/E7/E14/E19).
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import itertools
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..store.store import StoreError
from .engines import ENGINES
from .registry import AGGREGATORS, EXPERIMENTS, UnknownNameError
from .runner import BatchRunner, BatchStats
from .spec import (
    RunRecord,
    RunSpec,
    SpecError,
    _check_fields,
    _json_safe,
    check_registered_names,
    ensure_registered,
)

__all__ = [
    "ExperimentSpec",
    "DriverExperiment",
    "CampaignRequest",
    "CampaignResult",
    "CampaignRunner",
    "register_experiment",
    "load_experiment",
    "run_experiment",
]


def _assign(payload: Dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted path inside a nested dict, creating intermediate dicts."""
    parts = path.split(".")
    target = payload
    for part in parts[:-1]:
        node = target.setdefault(part, {})
        if not isinstance(node, dict):
            raise SpecError(f"axis path {path!r} descends into non-dict {part!r}")
        target = node
    target[parts[-1]] = value


def _scale_overrides(
    experiment: Union["ExperimentSpec", "DriverExperiment"], scale: Optional[str]
) -> Dict[str, Any]:
    """What ``scale`` overrides in ``experiment`` (``{}`` for no scale).

    The one scale check: grid axes for an :class:`ExperimentSpec`, driver
    keyword arguments for a :class:`DriverExperiment`.
    """
    if scale is None:
        return {}
    if scale not in experiment.scales:
        known = ", ".join(sorted(experiment.scales)) or "<none defined>"
        raise SpecError(
            f"experiment {experiment.name!r} has no scale {scale!r}; known: {known}"
        )
    return experiment.scales[scale]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment campaign, as plain data.

    ``ExperimentSpec.from_dict(spec.to_dict()) == spec`` always holds, so
    campaigns live in JSON files and key artifact directories the same way
    :class:`~repro.api.spec.RunSpec` keys result lines.

    >>> campaign = ExperimentSpec(
    ...     name="sweep",
    ...     base={"graph": "random-digraph", "protocol": "general-broadcast"},
    ...     axes={"graph_params.num_internal": [10, 20], "seed": [0, 1]},
    ... )
    >>> ExperimentSpec.from_dict(campaign.to_dict()) == campaign
    True
    >>> [spec.seed for spec in campaign.expand()]  # first axis outermost
    [0, 1, 0, 1]
    """

    name: str
    title: str = ""
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    aggregator: str = "records"
    aggregator_params: Dict[str, Any] = field(default_factory=dict)
    scales: Dict[str, Dict[str, List[Any]]] = field(default_factory=dict)
    #: When true, the campaign's engine is part of its semantics (E13's
    #: synchronous rounds) and ``expand(engine=...)`` overrides are ignored.
    engine_locked: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("experiment name must be a non-empty string")
        if not isinstance(self.aggregator, str) or not self.aggregator:
            raise SpecError("aggregator must be a non-empty registry name")
        for key in ("base", "axes", "aggregator_params", "scales"):
            value = _json_safe(getattr(self, key), f"{self.name}.{key}")
            if not isinstance(value, dict):
                raise SpecError(f"{self.name}.{key} must be a dict")
            object.__setattr__(self, key, value)
        for scope, axes in [("axes", self.axes)] + [
            (f"scales[{scale!r}]", overrides) for scale, overrides in self.scales.items()
        ]:
            if not isinstance(axes, dict):
                raise SpecError(f"{self.name}.{scope} must be a dict of axes")
            for axis, values in axes.items():
                if not isinstance(values, list) or not values:
                    raise SpecError(
                        f"{self.name}.{scope}[{axis!r}] must be a non-empty list"
                    )
                if axis.startswith("@") and not all(isinstance(v, dict) for v in values):
                    raise SpecError(
                        f"{self.name}.{scope}[{axis!r}] is a patch axis; every "
                        "value must be a dict of dotted-path assignments"
                    )
        for scale, overrides in self.scales.items():
            unknown = set(overrides) - set(self.axes)
            if unknown:
                raise SpecError(
                    f"{self.name}.scales[{scale!r}] overrides unknown axes: "
                    f"{', '.join(sorted(unknown))}"
                )

    # ------------------------------------------------------------------
    # identity & serialization (mirrors RunSpec)
    # ------------------------------------------------------------------

    @property
    def experiment_id(self) -> str:
        """Stable content hash of the campaign (title excluded)."""
        payload = self.to_dict()
        payload.pop("title", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __hash__(self) -> int:
        return hash(self.experiment_id)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict with every field present.

        Axis declaration order is preserved (JSON objects keep insertion
        order), so a campaign file round-trips to the same expansion order.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown or missing keys are an error."""
        _check_fields(cls, payload, "experiment")
        return cls(**payload)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string (axis order preserved)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a campaign from its :meth:`to_json` form."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # grid expansion
    # ------------------------------------------------------------------

    def grid(self, scale: Optional[str] = None) -> Dict[str, List[Any]]:
        """The effective axes after applying a named scale override."""
        axes = dict(self.axes)
        axes.update(_scale_overrides(self, scale))
        return axes

    def size(self, scale: Optional[str] = None) -> int:
        """``len(self.expand(scale=scale))``, without building a spec."""
        return math.prod(len(values) for values in self.grid(scale).values())

    def expand(
        self,
        *,
        scale: Optional[str] = None,
        engine: Optional[str] = None,
        trace: Optional[str] = None,
    ) -> List[RunSpec]:
        """The campaign's concrete runs, in deterministic grid order.

        The cartesian product iterates axes in declaration order with the
        first axis outermost (``itertools.product`` semantics); aggregators
        may therefore rely on group adjacency.  ``engine`` rewrites every
        expanded spec's engine unless the campaign is ``engine_locked``;
        ``trace`` rewrites every spec's capture policy (``"full"`` /
        ``"sample:k"``) so a whole campaign can be recorded.
        """
        axes = self.grid(scale)
        keys = list(axes)
        specs: List[RunSpec] = []
        for combo in itertools.product(*(axes[key] for key in keys)):
            payload = copy.deepcopy(self.base)
            for key, value in zip(keys, combo):
                if key.startswith("@"):
                    for path, patch_value in value.items():
                        _assign(payload, path, copy.deepcopy(patch_value))
                else:
                    _assign(payload, key, copy.deepcopy(value))
            if engine is not None and not self.engine_locked:
                payload["engine"] = engine
            if trace is not None:
                payload["trace"] = trace
            specs.append(RunSpec.from_dict(payload))
        return specs

    def with_overrides(
        self,
        *,
        axes: Optional[Dict[str, Sequence[Any]]] = None,
        base: Optional[Dict[str, Any]] = None,
    ) -> "ExperimentSpec":
        """A copy with axes replaced and/or dotted-path base patches applied.

        This is how a caller runs a registered campaign on its own grid —
        same base, same aggregator, caller's sizes and seeds::

            EXPERIMENTS.get("e01").with_overrides(
                axes={"graph_params.num_internal": [50, 100], "seed": [0, 1]}
            )
        """
        new_axes = dict(self.axes)
        if axes:
            for key, values in axes.items():
                new_axes[key] = list(values)
        new_base = copy.deepcopy(self.base)
        if base:
            for path, value in base.items():
                _assign(new_base, path, value)
        # Stale scale overrides may reference replaced axes; drop scales on
        # derived campaigns — overriding callers have already chosen a size.
        return replace(self, axes=new_axes, base=new_base, scales={})


@dataclass(frozen=True)
class DriverExperiment:
    """A registry entry backed by an imperative driver, by dotted name.

    The lower-bound, exhaustive-verification and schedule-search
    experiments (E2, E4, E7, E14, E19) do not execute ``RunSpec`` grids —
    their work lives in dedicated harnesses — but they still belong in
    :data:`EXPERIMENTS` so listings and ``repro experiment all`` cover
    every experiment.  ``driver`` is a ``"module:function"`` reference
    resolved lazily; ``scales`` maps scale names to driver keyword
    arguments.
    """

    name: str
    title: str = ""
    driver: str = ""
    scales: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def resolve(self) -> Callable[..., List[Dict]]:
        module_name, _, attr = self.driver.partition(":")
        if not module_name or not attr:
            raise SpecError(
                f"driver experiment {self.name!r} needs a 'module:function' "
                f"reference, got {self.driver!r}"
            )
        return getattr(importlib.import_module(module_name), attr)


def _registered_name(raw: str) -> str:
    """``raw`` as an :data:`EXPERIMENTS` name: itself, or ``E5``/``e5`` → ``e05``."""
    match = re.fullmatch(r"[eE](\d+)", raw)
    for candidate in (raw, f"e{int(match.group(1)):02d}" if match else None):
        if candidate in EXPERIMENTS:
            return candidate
    raise SpecError(
        f"unknown experiment {raw!r}; registered: "
        f"{', '.join(EXPERIMENTS.names())} or 'all'"
    )


@dataclass(frozen=True)
class CampaignRequest:
    """A validated request to run campaigns: what, at which scale, on which engine.

    The one place that decides whether a request is valid, shared by
    ``repro experiment``/``run``/``report`` and ``POST /experiments`` on
    ``repro serve``; each front door maps the :class:`SpecError` that
    :meth:`parse` raises to its own one-line error (exit 1, HTTP 400).
    """

    experiments: Tuple[Union[ExperimentSpec, DriverExperiment], ...]
    scale: Optional[str] = None
    engine: Optional[str] = None

    #: The payload fields :meth:`parse` accepts.
    FIELDS = ("experiment", "experiments", "spec", "scale", "quick", "engine")

    @classmethod
    def parse(cls, payload: Any) -> "CampaignRequest":
        """Validate a request payload; raise :class:`SpecError` on any defect.

        ``payload`` is a JSON object with exactly one of ``experiment`` (a
        name), ``experiments`` (a list of names, or ``"all"``) and ``spec``
        (an inline :class:`ExperimentSpec` dict), plus optional ``scale``,
        ``quick`` (shorthand for ``scale="quick"``) and ``engine``; a field
        set to ``None`` counts as absent.  A name is a registry name or
        ``E5``/``e5`` for ``e05``; ``all`` anywhere means every registered
        experiment.  Every experiment must define the scale.  An inline
        spec's grid is expanded once, so its run specs and every graph,
        transform, protocol, scheduler and aggregator name are checked
        before anything runs.
        """
        if not isinstance(payload, dict):
            raise SpecError(f"payload must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - set(cls.FIELDS)
        if unknown:
            raise SpecError(f"unknown payload field(s): {', '.join(sorted(unknown))}")
        ensure_registered()
        engine = payload.get("engine")
        if engine is not None and not isinstance(engine, str):
            raise SpecError(f"engine must be a string, got {type(engine).__name__}")
        if engine is not None and engine not in ENGINES:
            raise SpecError(
                f"unknown engine {engine!r}; registered: {', '.join(ENGINES.names())}"
            )
        scale = payload.get("scale")
        if scale is not None and not isinstance(scale, str):
            raise SpecError(f"scale must be a string, got {type(scale).__name__}")
        quick = payload.get("quick")
        if quick is not None and not isinstance(quick, bool):
            raise SpecError(f"quick must be true or false, got {quick!r}")
        if quick:
            if scale not in (None, "quick"):
                raise SpecError("'quick' is shorthand for scale 'quick'; give one of them")
            scale = "quick"

        names = payload.get("experiments")
        if payload.get("experiment") is not None:
            if names is not None:
                raise SpecError("give either 'experiment' or 'experiments', not both")
            names = [payload["experiment"]]
        inline = payload.get("spec")
        if (names is None) == (inline is None):
            raise SpecError("give exactly one of experiment names or an experiment spec")
        if inline is not None:
            try:
                spec = ExperimentSpec.from_dict(inline)
                check_registered_names(spec.expand(scale=scale, engine=engine))
                AGGREGATORS.get(spec.aggregator)
            except (SpecError, UnknownNameError) as exc:
                raise SpecError(f"invalid experiment spec: {exc}") from None
            return cls((spec,), scale, engine)

        if isinstance(names, str):
            names = [names]
        if not isinstance(names, list) or not names:
            raise SpecError("'experiments' must be a non-empty list of names")
        for name in names:
            if not isinstance(name, str):
                raise SpecError(f"experiment names must be strings, got {type(name).__name__}")
        if any(name.lower() == "all" for name in names):
            names = EXPERIMENTS.names()
        experiments = tuple(EXPERIMENTS.get(_registered_name(name)) for name in names)
        for experiment in experiments:
            _scale_overrides(experiment, scale)
        return cls(experiments, scale, engine)


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign execution produced.

    ``engine`` is the override the runner was *asked* for;
    ``applied_engine`` is what actually reached the runs — ``None`` when the
    campaign ignored the request (``engine_locked`` grids, driver
    experiments), so consumers never mistake e13's synchronous rounds for
    fastpath output.
    """

    experiment: Union[ExperimentSpec, DriverExperiment]
    scale: Optional[str]
    engine: Optional[str]
    specs: List[RunSpec]
    records: List[RunRecord]
    rows: List[Dict]
    stats: BatchStats
    runs_path: Optional[str] = None
    rows_path: Optional[str] = None
    applied_engine: Optional[str] = None
    #: True when the rows came from the store's row cache: nothing ran,
    #: and ``specs`` / ``records`` are empty.
    rows_cached: bool = False


class CampaignRunner:
    """Execute experiment campaigns with resume and per-experiment artifacts.

    Parameters
    ----------
    engine:
        Engine override applied to every expanded spec (ignored by
        ``engine_locked`` campaigns, and by driver experiments — their
        harnesses do not run engines).
    trace:
        Trace-capture policy (``"full"`` / ``"sample:k"``) applied to
        every expanded spec, recording the whole campaign; route the
        artifacts with :func:`repro.tracing.capture_traces`.  Ignored by
        driver experiments, like ``engine``.
    scale:
        Named scale from the campaign's ``scales`` (e.g. ``"quick"``).
    out_dir:
        Artifact directory.  Each campaign writes ``<name>.runs.jsonl``
        (the BatchRunner resume file — one record per line) and
        ``<name>.rows.json`` (aggregated rows plus campaign metadata).
    resume:
        Reuse completed spec_ids found in ``<name>.runs.jsonl`` instead of
        re-executing them, and look up the store's row cache first.
    parallel / max_workers:
        Forwarded to the :class:`~repro.api.runner.BatchRunner`.
        The default is in-process serial execution — the right mode
        inside drivers, tests and benches; the CLI turns parallelism on.
    store:
        Optional :class:`~repro.store.store.ResultStore` shared across
        campaigns, users and CI runs.  Every campaign first looks up its
        rows in the store's row cache, keyed by :meth:`rows_digest`; a
        hit returns them without running a spec or calling a driver.
        On a miss, grid campaigns resolve every expanded spec against
        the store index before executing anything and publish fresh
        records back (see :class:`~repro.api.runner.BatchRunner`);
        driver experiments execute no specs at all.  The rows are then
        cached; a store that refuses the write leaves the result uncached
        and counted in ``stats.store_write_errors``.
        The row cache is bypassed when ``trace`` is set (the traces must
        be produced) and when the aggregator or driver is not
        :func:`~repro.store.keys.fingerprinted` (user code can change
        without changing the store's code version); ``resume=False``
        skips the lookup but still caches the fresh rows.
    """

    def __init__(
        self,
        *,
        engine: Optional[str] = None,
        scale: Optional[str] = None,
        trace: Optional[str] = None,
        out_dir: Optional[str] = None,
        resume: bool = True,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        progress: Optional[Callable[[int, int, RunRecord], None]] = None,
        store: Optional[Any] = None,
    ) -> None:
        self.engine = engine
        self.scale = scale
        self.trace = trace
        self.out_dir = out_dir
        self.resume = resume
        self.parallel = parallel
        self.max_workers = max_workers
        self.progress = progress
        self.store = store

    # ------------------------------------------------------------------

    def run(self, experiment: Union[ExperimentSpec, DriverExperiment, str]) -> CampaignResult:
        """Execute one campaign (an object, or a registered name)."""
        if isinstance(experiment, str):
            ensure_registered()
            experiment = EXPERIMENTS.get(experiment)
        digest = self.rows_digest(experiment)
        if digest is not None and self.resume:
            cached = self.store.get_rows(digest)
            if cached is not None:
                return self._cached(experiment, cached)
        if isinstance(experiment, DriverExperiment):
            result = self._run_driver(experiment)
        else:
            result = self._run_grid(experiment)
        if digest is not None:
            try:
                self.store.put_rows(digest, {"total": result.stats.total, "rows": result.rows})
            except StoreError:
                errors = result.stats.store_write_errors + 1
                result = replace(result, stats=replace(result.stats, store_write_errors=errors))
        return result

    def rows_digest(self, experiment: Union[ExperimentSpec, DriverExperiment]) -> Optional[str]:
        """The row-cache key of ``experiment`` under this runner, or ``None``.

        A sha256 over the experiment's canonical dict, the scale, the
        applied engine and the store's code version.  ``None`` means the
        row cache is bypassed: no store, a ``trace`` policy, or an
        aggregator / driver defined outside the fingerprinted tree.
        """
        from ..store.keys import fingerprinted

        if self.store is None or self.trace is not None:
            return None
        if isinstance(experiment, DriverExperiment):
            code = experiment.resolve()
            canonical: Dict[str, Any] = {
                "name": experiment.name,
                "driver": experiment.driver,
                "scales": experiment.scales,
            }
        else:
            code = AGGREGATORS.get(experiment.aggregator)
            canonical = experiment.to_dict()
        if not fingerprinted(code):
            return None
        payload = {
            "experiment": canonical,
            "scale": self.scale,
            "engine": self._applied_engine(experiment),
            "code_version": self.store.code_version,
        }
        text = json.dumps(payload, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _applied_engine(self, experiment: Union[ExperimentSpec, DriverExperiment]) -> Optional[str]:
        if isinstance(experiment, DriverExperiment) or experiment.engine_locked:
            return None
        return self.engine

    def _cached(
        self, experiment: Union[ExperimentSpec, DriverExperiment], cached: Dict[str, Any]
    ) -> CampaignResult:
        """A result answered from the row cache: nothing runs."""
        total = cached["total"]
        stats = BatchStats(total=total, executed=0, reused=total, store_hits=total)
        runs_path, rows_path = self._artifact_paths(experiment.name)
        applied_engine = self._applied_engine(experiment)
        self._write_rows(rows_path, experiment, cached["rows"], stats, applied_engine)
        return CampaignResult(
            experiment=experiment,
            scale=self.scale,
            engine=self.engine,
            specs=[],
            records=[],
            rows=cached["rows"],
            stats=stats,
            runs_path=runs_path if runs_path and os.path.exists(runs_path) else None,
            rows_path=rows_path,
            applied_engine=applied_engine,
            rows_cached=True,
        )

    # ------------------------------------------------------------------

    def _artifact_paths(self, name: str) -> Tuple[Optional[str], Optional[str]]:
        if not self.out_dir:
            return None, None
        os.makedirs(self.out_dir, exist_ok=True)
        return (
            os.path.join(self.out_dir, f"{name}.runs.jsonl"),
            os.path.join(self.out_dir, f"{name}.rows.json"),
        )

    def _write_rows(
        self,
        rows_path: Optional[str],
        experiment: Union[ExperimentSpec, DriverExperiment],
        rows: List[Dict],
        stats: BatchStats,
        applied_engine: Optional[str],
    ) -> None:
        if not rows_path:
            return
        payload = {
            "experiment": experiment.to_dict()
            if isinstance(experiment, ExperimentSpec)
            else {"name": experiment.name, "title": experiment.title, "driver": experiment.driver},
            "scale": self.scale,
            # The engine that actually reached the runs — None when the
            # campaign ignored the runner's override.
            "engine": applied_engine,
            "stats": asdict(stats),
            "rows": rows,
        }
        tmp = f"{rows_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
        os.replace(tmp, rows_path)

    def _run_grid(self, experiment: ExperimentSpec) -> CampaignResult:
        specs = experiment.expand(
            scale=self.scale, engine=self.engine, trace=self.trace
        )
        applied_engine = self._applied_engine(experiment)
        runs_path, rows_path = self._artifact_paths(experiment.name)
        aggregate = AGGREGATORS.get(experiment.aggregator)
        runner = BatchRunner(
            parallel=self.parallel,
            max_workers=self.max_workers,
            store=self.store,
        )
        records = runner.run(
            specs,
            output_path=runs_path,
            resume=self.resume,
            progress=self.progress,
        )
        stats = runner.stats
        assert stats is not None  # BatchRunner.run always sets it
        rows = aggregate(records, **experiment.aggregator_params)
        self._write_rows(rows_path, experiment, rows, stats, applied_engine)
        return CampaignResult(
            experiment=experiment,
            scale=self.scale,
            engine=self.engine,
            specs=specs,
            records=records,
            rows=rows,
            stats=stats,
            runs_path=runs_path,
            rows_path=rows_path,
            applied_engine=applied_engine,
        )

    def _run_driver(self, experiment: DriverExperiment) -> CampaignResult:
        kwargs = dict(_scale_overrides(experiment, self.scale))
        driver = experiment.resolve()
        # Drivers that emit store artifacts (e19's schedule certificates)
        # declare a store= keyword; the runner threads its store through.
        from .spec import _accepts_param

        if self.store is not None and "store" not in kwargs and _accepts_param(driver, "store"):
            kwargs["store"] = self.store
        rows = driver(**kwargs)
        stats = BatchStats(total=0, executed=0, reused=0)
        _, rows_path = self._artifact_paths(experiment.name)
        self._write_rows(rows_path, experiment, rows, stats, None)
        return CampaignResult(
            experiment=experiment,
            scale=self.scale,
            engine=self.engine,
            specs=[],
            records=[],
            rows=rows,
            stats=stats,
            rows_path=rows_path,
            applied_engine=None,
        )


def campaign_summary(
    runner: CampaignRunner, results: Sequence[CampaignResult], elapsed: float
) -> Dict[str, Any]:
    """The ``EXPERIMENT_SUMMARY`` payload of ``results`` run by ``runner``.

    One vocabulary for the CLI line and the service's job summaries: the
    runner's settings, the merged :meth:`BatchStats.counters` (``total``
    reported as ``total_specs``) and the row counts.
    """
    counters = BatchStats.merge(result.stats for result in results).counters()
    counters["total_specs"] = counters.pop("total")
    store = runner.store
    return {
        "experiments": [result.experiment.name for result in results],
        "scale": runner.scale,
        # "engine" is the requested override; "engines_applied" is what each
        # campaign actually ran under (None = campaign ignored the override:
        # engine-locked grids and driver experiments).
        "engine": runner.engine,
        "engines_applied": {
            result.experiment.name: result.applied_engine for result in results
        },
        "trace": runner.trace,
        **counters,
        "store": store.root if store is not None else None,
        "store_hit_rate": (
            round(counters["store_hits"] / counters["total_specs"], 4)
            if store is not None and counters["total_specs"]
            else None
        ),
        # Experiments answered from the store's row cache (nothing ran).
        "rows_cached": sum(result.rows_cached for result in results),
        "rows": sum(len(result.rows) for result in results),
        "elapsed_seconds": round(elapsed, 3),
        "output": runner.out_dir,
    }


# ----------------------------------------------------------------------
# registration & convenience
# ----------------------------------------------------------------------


def register_experiment(
    experiment: Union[ExperimentSpec, DriverExperiment],
) -> Union[ExperimentSpec, DriverExperiment]:
    """Register a campaign under its own name in :data:`EXPERIMENTS`."""
    EXPERIMENTS.register(experiment.name, experiment)
    return experiment


def load_experiment(path: str) -> ExperimentSpec:
    """Read one :class:`ExperimentSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return ExperimentSpec.from_json(handle.read())


def run_experiment(
    name_or_spec: Union[ExperimentSpec, DriverExperiment, str], **runner_kwargs: Any
) -> CampaignResult:
    """One-shot convenience: ``run_experiment("e05", engine="fastpath")``."""
    return CampaignRunner(**runner_kwargs).run(name_or_spec)
