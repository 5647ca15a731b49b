"""Experiment jobs: validated submissions executed on a background pool.

The service layer splits cleanly in two: this module knows *experiments*
(payload validation, campaign execution, progress, summaries) and knows
nothing about HTTP; :mod:`repro.service.server` knows HTTP and nothing
about campaigns.  The seam is the :class:`ExperimentService`:

* :meth:`ExperimentService.submit` validates a JSON payload with
  :meth:`~repro.api.campaign.CampaignRequest.parse` — the parser ``repro
  experiment`` uses, so both accept the same requests (registered names
  such as ``e05``/``e5``/``E5``/``all``, or an inline
  :class:`~repro.api.campaign.ExperimentSpec`, plus optional
  ``scale``/``quick``/``engine``) and reject the rest with the same
  message — and schedules a :class:`Job` on a thread pool.  An inline
  grid of more than :data:`MAX_INLINE_SPECS` runs is refused
  (:class:`JobTooLarge`) before it is expanded.  Submitting a payload
  identical to one still pending/running returns the in-flight job
  instead of a duplicate.
* Each job runs through the ordinary
  :class:`~repro.api.campaign.CampaignRunner` with the service's
  :class:`~repro.store.store.ResultStore` attached, so a re-submitted
  completed campaign is answered from the store's row cache and
  finishes without executing a single spec (the summary's
  ``rows_cached`` counts such experiments).
* Job state is observable two ways: :meth:`Job.snapshot` (a JSON-safe
  status dict whose terminal form embeds an
  ``EXPERIMENT_SUMMARY``-shaped summary) and :meth:`Job.changes` (the
  snapshots a watcher sees, one per new version, ending with the
  terminal one).  :meth:`ExperimentService.watch` follows them on a
  blocked thread; the HTTP server follows them on its event loop, woken
  through :meth:`Job.add_waker`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..api.campaign import (
    CampaignRequest,
    CampaignRunner,
    ExperimentSpec,
    GridTooLarge,
    campaign_summary,
)
from ..api.spec import RunRecord, SpecError

__all__ = ["JobError", "JobTooLarge", "Job", "ExperimentService", "MAX_INLINE_SPECS"]

#: Job lifecycle states, in order.
JOB_STATES = ("pending", "running", "completed", "failed")

#: Most runs an inline ``{"spec": ...}`` grid may declare; registered
#: campaigns are far below it, and ``repro experiment --spec`` has no cap.
MAX_INLINE_SPECS = 10_000


class JobError(ValueError):
    """A submission payload is malformed (HTTP 400 at the server layer)."""


class JobTooLarge(JobError):
    """A submission asks for too many runs (HTTP 413 at the server layer)."""


@dataclass
class Job:
    """One submitted campaign execution and its observable state.

    All mutation happens under ``_cond``; every change bumps ``version``,
    notifies the threads waiting on ``_cond`` and calls (once) each waker
    registered with :meth:`add_waker`.
    """

    id: str
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
    _wakers: List[Callable[[], None]] = field(default_factory=list, repr=False)

    @property
    def terminal(self) -> bool:
        """Whether the job has reached ``completed`` or ``failed``."""
        return self.state in ("completed", "failed")

    def _bump(self) -> None:
        self.version += 1
        self._cond.notify_all()
        wakers, self._wakers = self._wakers, []
        for wake in wakers:
            wake()

    def add_waker(self, version: int, wake: Callable[[], None]) -> bool:
        """Call ``wake()`` once, from the job's thread, at the next change.

        Returns ``False`` (and registers nothing) when the job is already
        past ``version`` or terminal: there is nothing to wait for.
        ``wake`` runs under the job's lock and must not block (the HTTP
        server's resolves a future on its event loop).
        """
        with self._cond:
            if self.version != version or self.terminal:
                return False
            self._wakers.append(wake)
            return True

    def remove_waker(self, wake: Callable[[], None]) -> None:
        """Forget ``wake`` if it has not been called yet."""
        with self._cond:
            if wake in self._wakers:
                self._wakers.remove(wake)

    def changes(self) -> Iterator[Optional[Dict[str, Any]]]:
        """The watch rule: one snapshot per new version, ending with the terminal one.

        ``None`` means nothing changed since the last snapshot: the
        consumer waits until ``version`` moves past that snapshot's
        ``"version"`` (on ``_cond`` or through :meth:`add_waker`), then
        resumes the iterator.
        """
        last_version = -1
        while True:
            # Read terminality before the snapshot: a job that finishes in
            # between still gets its terminal snapshot on the next pass.
            terminal = self.terminal
            snap = self.snapshot()
            if snap["version"] != last_version:
                last_version = snap["version"]
                yield snap
            if terminal:
                return
            yield None

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
        self._jobs: Dict[str, Job] = {}  # in submission order
        self._inflight: Dict[str, Job] = {}  # payload digest -> pending/running job
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._executor = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-job"
        )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, payload: Any) -> Tuple[Job, bool]:
        """Queue a validated submission; return ``(job, created)``.

        ``created`` is ``False`` when an identical payload is already
        pending or running — the submission is idempotent while in
        flight.  Completed jobs are never reused as submissions: a
        re-submission gets a fresh job, which resolves against the
        result store and completes in milliseconds when warm.
        """
        try:
            request = CampaignRequest.parse(payload, max_specs=MAX_INLINE_SPECS)
        except GridTooLarge as exc:
            raise JobTooLarge(str(exc)) from None
        except SpecError as exc:
            raise JobError(str(exc)) from None
        canonical = json.dumps(
            {
                "experiments": [asdict(experiment) for experiment in request.experiments],
                "scale": request.scale,
                "engine": request.engine,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
        with self._lock:
            job = self._inflight.get(digest)
            if job is not None and not job.terminal:
                return job, False
            job = Job(
                id=f"{digest}-{next(self._seq)}",
                experiments=[experiment.name for experiment in request.experiments],
                scale=request.scale,
                engine=request.engine,
                created_at=time.time(),
            )
            self._jobs[job.id] = job
            self._inflight[digest] = job
        self._executor.submit(self._run, job, request, digest)
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
            return list(self._jobs.values())

    def watch(self, job_id: str, poll_seconds: float = 10.0) -> Iterator[Dict[str, Any]]:
        """Yield :meth:`Job.changes` snapshots until the job is terminal.

        The first snapshot is immediate; afterwards the iterator blocks
        on the job's condition variable (re-checking at least every
        ``poll_seconds``) and finishes with the terminal snapshot.
        """
        job = self.get(job_id)
        last_version = -1
        for snap in job.changes():
            if snap is not None:
                last_version = snap["version"]
                yield snap
                continue
            with job._cond:
                if job.version == last_version and not job.terminal:
                    job._cond.wait(poll_seconds)

    def close(self) -> None:
        """Stop accepting work, release the job pool and close the store's
        connections (a job still running reopens its own)."""
        self._executor.shutdown(wait=False)
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _run(self, job: Job, request: CampaignRequest, digest: str) -> None:
        """Execute one job end to end (runs on the job pool)."""
        try:
            with job._cond:
                job.state = "running"
                job.started_at = time.time()
                job.total = sum(
                    experiment.size(request.scale)
                    for experiment in request.experiments
                    if isinstance(experiment, ExperimentSpec)
                )
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
                engine=request.engine,
                scale=request.scale,
                out_dir=out_dir,
                resume=True,
                parallel=self.parallel,
                max_workers=self.max_workers,
                progress=progress,
                store=self.store,
            )

            start = time.time()
            results = []
            for experiment in request.experiments:
                result = runner.run(experiment)
                results.append(result)
                offset += result.stats.total
                with job._cond:
                    job.rows[experiment.name] = result.rows
                    job.titles[experiment.name] = experiment.title
                    job.done = offset
                    job._bump()

            # The EXPERIMENT_SUMMARY the CLI prints, as data — the service's
            # status/result bodies and the CLI line stay one vocabulary (CI
            # parses both the same way).
            summary = campaign_summary(runner, results, time.time() - start)
            self._retire(job, digest)
            with job._cond:
                job.summary = summary
                job.total = max(job.total, job.done)
                job.state = "completed"
                job.finished_at = time.time()
                job._bump()
        except Exception as exc:  # noqa: BLE001 - job must fail, not the pool
            self._retire(job, digest)
            with job._cond:
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
                job.finished_at = time.time()
                job._bump()

    def _retire(self, job: Job, digest: str) -> None:
        """Drop ``job`` from the in-flight index just before it goes terminal."""
        with self._lock:
            if self._inflight.get(digest) is job:
                del self._inflight[digest]
