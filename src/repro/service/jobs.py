"""Experiment jobs: validated submissions executed on a background pool.

The service layer splits cleanly in two: this module knows *experiments*
(payload validation, campaign execution, progress, summaries) and knows
nothing about HTTP; :mod:`repro.service.server` knows HTTP and nothing
about campaigns.  The seam is the :class:`ExperimentService`:

* :meth:`ExperimentService.submit` validates a JSON payload — registered
  experiment names and/or an inline
  :class:`~repro.api.campaign.ExperimentSpec`, plus optional
  ``scale``/``engine`` — and schedules a :class:`Job` on a thread pool.
  Submitting a payload identical to one still pending/running returns
  the in-flight job instead of a duplicate.
* Each job runs through the ordinary
  :class:`~repro.api.campaign.CampaignRunner` with the service's
  :class:`~repro.store.store.ResultStore` attached, so a re-submitted
  completed campaign is answered from the store's row cache and
  finishes without executing a single spec (the summary's
  ``rows_cached`` counts such experiments).
* Job state is observable two ways: :meth:`Job.snapshot` (a JSON-safe
  status dict whose terminal form embeds an
  ``EXPERIMENT_SUMMARY``-shaped summary) and
  :meth:`ExperimentService.watch` (an iterator of snapshots, one per
  state change — the engine behind the streaming status endpoint).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..api import (
    ENGINES,
    EXPERIMENTS,
    UnknownNameError,
    check_registered_names,
    ensure_registered,
)
from ..api.campaign import CampaignRunner, DriverExperiment, ExperimentSpec
from ..api.spec import RunRecord, SpecError

__all__ = ["JobError", "Job", "ExperimentService"]

#: Job lifecycle states, in order.
JOB_STATES = ("pending", "running", "completed", "failed")


class JobError(ValueError):
    """A submission payload is malformed (HTTP 400 at the server layer)."""


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class Job:
    """One submitted campaign execution and its observable state.

    All mutation happens under ``_cond``; every change bumps ``version``
    and notifies waiters, which is what :meth:`ExperimentService.watch`
    blocks on.
    """

    id: str
    payload: Dict[str, Any]
    experiments: List[str]
    scale: Optional[str]
    engine: Optional[str]
    created_at: float
    state: str = "pending"
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done: int = 0
    total: int = 0
    summary: Optional[Dict[str, Any]] = None
    rows: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    titles: Dict[str, str] = field(default_factory=dict)
    error: Optional[str] = None
    version: int = 0
    _cond: threading.Condition = field(default_factory=threading.Condition, repr=False)

    @property
    def terminal(self) -> bool:
        """Whether the job has reached ``completed`` or ``failed``."""
        return self.state in ("completed", "failed")

    def _bump(self) -> None:
        self.version += 1
        self._cond.notify_all()

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe status view (the ``GET /experiments/<id>`` body)."""
        with self._cond:
            snap: Dict[str, Any] = {
                "job": self.id,
                "state": self.state,
                "experiments": list(self.experiments),
                "scale": self.scale,
                "engine": self.engine,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "progress": {"done": self.done, "total": self.total},
                "version": self.version,
            }
            if self.error is not None:
                snap["error"] = self.error
            if self.summary is not None:
                snap["summary"] = dict(self.summary)
            return snap

    def result_payload(self) -> Dict[str, Any]:
        """The ``GET /experiments/<id>/result`` body (completed jobs only)."""
        with self._cond:
            if self.state != "completed":
                raise JobError(f"job {self.id} is {self.state}, not completed")
            return {
                "job": self.id,
                "summary": dict(self.summary or {}),
                "experiments": [
                    {
                        "name": name,
                        "title": self.titles.get(name, ""),
                        "rows": self.rows.get(name, []),
                    }
                    for name in self.experiments
                ],
            }

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; return whether it is."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self.terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            return self.terminal


class ExperimentService:
    """Validate, queue and execute experiment submissions.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.store.ResultStore` every job runs
        against — the reason a resubmitted campaign is served from cache.
    out_dir:
        Optional artifact directory; each job writes its campaign
        artifacts under ``<out_dir>/<job_id>/``.
    parallel / max_workers:
        Forwarded to each job's :class:`~repro.api.campaign.CampaignRunner`
        (``parallel=False`` executes runs in the job thread — the CI and
        test mode).
    job_workers:
        Concurrent jobs (each job is one pool thread; its runs may fan
        out further through the BatchRunner's process pool).
    """

    def __init__(
        self,
        *,
        store: Optional[Any] = None,
        out_dir: Optional[str] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        job_workers: int = 1,
    ) -> None:
        if job_workers < 1:
            raise ValueError("job_workers must be >= 1")
        self.store = store
        self.out_dir = out_dir
        self.parallel = parallel
        self.max_workers = max_workers
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._executor = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-job"
        )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def _parse(self, payload: Any) -> Tuple[List[Union[str, Dict[str, Any]]], Optional[str], Optional[str]]:
        """Validate a submission payload; raise :class:`JobError` on defects.

        Accepted fields: ``experiment`` (one registered name) or
        ``experiments`` (a list of names, or ``"all"``), xor ``spec`` (an
        inline :class:`ExperimentSpec` dict); optional ``scale`` (name) or
        ``quick`` (bool shorthand), and ``engine``.  An inline spec's
        grid is expanded here, so its run specs and every graph, transform,
        protocol and scheduler name in them are checked before a job exists.
        """
        if not isinstance(payload, dict):
            raise JobError(f"payload must be a JSON object, got {type(payload).__name__}")
        known = {"experiment", "experiments", "spec", "scale", "quick", "engine"}
        unknown = set(payload) - known
        if unknown:
            raise JobError(f"unknown payload field(s): {', '.join(sorted(unknown))}")

        ensure_registered()
        engine = payload.get("engine")
        if engine is not None and not isinstance(engine, str):
            raise JobError(f"engine must be a string, got {type(engine).__name__}")
        if engine is not None and engine not in ENGINES:
            raise JobError(
                f"unknown engine {engine!r}; registered: {', '.join(ENGINES.names())}"
            )
        scale = payload.get("scale")
        if payload.get("quick"):
            if scale not in (None, "quick"):
                raise JobError("'quick' is shorthand for scale='quick'; give one of them")
            scale = "quick"
        if scale is not None and not isinstance(scale, str):
            raise JobError("scale must be a string")

        names = payload.get("experiments")
        if payload.get("experiment") is not None:
            if names is not None:
                raise JobError("give either 'experiment' or 'experiments', not both")
            names = [payload["experiment"]]
        spec_payload = payload.get("spec")
        if (names is None) == (spec_payload is None):
            raise JobError("give exactly one of 'experiment(s)' or 'spec'")

        experiments: List[Union[str, Dict[str, Any]]] = []
        inline: Optional[ExperimentSpec] = None
        if spec_payload is not None:
            try:
                inline = ExperimentSpec.from_dict(spec_payload)
            except SpecError as exc:
                raise JobError(f"invalid experiment spec: {exc}") from None
            experiments.append(dict(spec_payload))
        else:
            if isinstance(names, str):
                names = [names]
            if not isinstance(names, list) or not names:
                raise JobError("'experiments' must be a non-empty list of names")
            for name in names:
                if not isinstance(name, str):
                    raise JobError(
                        f"experiment names must be strings, got {type(name).__name__}"
                    )
            if any(name.lower() == "all" for name in names):
                names = list(EXPERIMENTS.names())
            for name in names:
                if name not in EXPERIMENTS:
                    raise JobError(
                        f"unknown experiment {name!r}; registered: "
                        f"{', '.join(EXPERIMENTS.names())}"
                    )
                experiments.append(name)

        if scale is not None:
            for entry in experiments:
                experiment = (
                    EXPERIMENTS.get(entry)
                    if isinstance(entry, str)
                    else ExperimentSpec.from_dict(entry)
                )
                scales = getattr(experiment, "scales", {}) or {}
                if scale not in scales:
                    known_scales = ", ".join(sorted(scales)) or "<none defined>"
                    raise JobError(
                        f"experiment {experiment.name!r} has no scale {scale!r}; "
                        f"known: {known_scales}"
                    )
        if inline is not None:
            # Expand the grid once so a typo'd registry name (or a bad run
            # spec) is rejected here, not by a job that fails later.
            try:
                check_registered_names(inline.expand(scale=scale, engine=engine))
            except (SpecError, UnknownNameError) as exc:
                raise JobError(f"invalid experiment spec: {exc}") from None
        return experiments, scale, engine

    def submit(self, payload: Any) -> Tuple[Job, bool]:
        """Queue a validated submission; return ``(job, created)``.

        ``created`` is ``False`` when an identical payload is already
        pending or running — the submission is idempotent while in
        flight.  Completed jobs are never reused as submissions: a
        re-submission gets a fresh job, which resolves against the
        result store and completes in milliseconds when warm.
        """
        experiments, scale, engine = self._parse(payload)
        canonical = _canonical(
            {"experiments": experiments, "scale": scale, "engine": engine}
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
        with self._lock:
            for job_id in reversed(self._order):
                job = self._jobs[job_id]
                if job.id.startswith(digest) and not job.terminal:
                    return job, False
            job = Job(
                id=f"{digest}-{next(self._seq)}",
                payload=json.loads(canonical),
                experiments=[
                    entry if isinstance(entry, str) else entry.get("name", "<inline>")
                    for entry in experiments
                ],
                scale=scale,
                engine=engine,
                created_at=time.time(),
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._executor.submit(self._run, job, experiments)
        return job, True

    # ------------------------------------------------------------------
    # lookup & observation
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job with this id; raises :class:`KeyError` when unknown."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Every job, oldest first."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def watch(self, job_id: str, poll_seconds: float = 10.0) -> Iterator[Dict[str, Any]]:
        """Yield status snapshots on every change until the job is terminal.

        The first snapshot is immediate; afterwards the iterator blocks
        on the job's condition variable (waking at least every
        ``poll_seconds`` to re-emit a heartbeat snapshot) and finishes
        with the terminal snapshot.
        """
        job = self.get(job_id)
        last_version = -1
        while True:
            # Read terminality before the snapshot: a job that finishes in
            # between still gets its terminal snapshot on the next pass.
            terminal = job.terminal
            snap = job.snapshot()
            if snap["version"] != last_version:
                last_version = snap["version"]
                yield snap
            if terminal:
                return
            with job._cond:
                if job.version == last_version and not job.terminal:
                    job._cond.wait(poll_seconds)

    def close(self) -> None:
        """Stop accepting work and release the job pool."""
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _materialise(
        self, entries: List[Union[str, Dict[str, Any]]]
    ) -> List[Union[ExperimentSpec, DriverExperiment]]:
        ensure_registered()
        experiments: List[Union[ExperimentSpec, DriverExperiment]] = []
        for entry in entries:
            if isinstance(entry, str):
                experiments.append(EXPERIMENTS.get(entry))
            else:
                experiments.append(ExperimentSpec.from_dict(entry))
        return experiments

    def _run(self, job: Job, entries: List[Union[str, Dict[str, Any]]]) -> None:
        """Execute one job end to end (runs on the job pool)."""
        try:
            experiments = self._materialise(entries)
            grid_total = 0
            for experiment in experiments:
                if isinstance(experiment, ExperimentSpec):
                    grid_total += len(
                        experiment.expand(scale=job.scale, engine=job.engine)
                    )
            with job._cond:
                job.state = "running"
                job.started_at = time.time()
                job.total = grid_total
                job._bump()

            offset = 0

            def progress(done: int, total: int, record: RunRecord) -> None:
                with job._cond:
                    job.done = offset + done
                    job._bump()

            out_dir = None
            if self.out_dir is not None:
                out_dir = os.path.join(self.out_dir, job.id)
            runner = CampaignRunner(
                engine=job.engine,
                scale=job.scale,
                out_dir=out_dir,
                resume=True,
                parallel=self.parallel,
                max_workers=self.max_workers,
                progress=progress,
                store=self.store,
            )

            start = time.time()
            total_specs = executed = reused = total_rows = 0
            cache_hits = cache_misses = store_hits = store_misses = rows_cached = 0
            store_write_errors = 0
            engines_applied: Dict[str, Optional[str]] = {}
            for experiment in experiments:
                result = runner.run(experiment)
                offset += result.stats.total
                engines_applied[experiment.name] = result.applied_engine
                with job._cond:
                    job.rows[experiment.name] = result.rows
                    job.titles[experiment.name] = getattr(experiment, "title", "") or ""
                    job.done = offset
                    job._bump()
                total_specs += result.stats.total
                executed += result.stats.executed
                reused += result.stats.reused
                cache_hits += result.stats.cache_hits
                cache_misses += result.stats.cache_misses
                store_hits += result.stats.store_hits
                store_misses += result.stats.store_misses
                rows_cached += result.rows_cached
                store_write_errors += result.stats.store_write_errors
                total_rows += len(result.rows)
            elapsed = time.time() - start

            # The EXPERIMENT_SUMMARY shape the CLI prints, as data — the
            # service's status/result bodies and the CLI line stay one
            # vocabulary (CI parses both the same way).
            summary = {
                "experiments": [experiment.name for experiment in experiments],
                "scale": job.scale,
                "engine": job.engine,
                "engines_applied": engines_applied,
                "total_specs": total_specs,
                "executed": executed,
                "reused": reused,
                "cache_hits": cache_hits,
                "cache_misses": cache_misses,
                "store_hits": store_hits,
                "store_misses": store_misses,
                "store_hit_rate": (
                    round(store_hits / total_specs, 4)
                    if self.store is not None and total_specs
                    else None
                ),
                "rows_cached": rows_cached,
                "store_write_errors": store_write_errors,
                "rows": total_rows,
                "elapsed_seconds": round(elapsed, 3),
                "output": out_dir,
            }
            with job._cond:
                job.summary = summary
                job.total = max(job.total, job.done)
                job.state = "completed"
                job.finished_at = time.time()
                job._bump()
        except Exception as exc:  # noqa: BLE001 - job must fail, not the pool
            with job._cond:
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
                job.finished_at = time.time()
                job._bump()
