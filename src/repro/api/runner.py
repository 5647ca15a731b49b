"""Parallel batch execution of run specs with JSONL persistence and resume.

The :class:`BatchRunner` is the scaling workhorse the ROADMAP's north star
asks every future PR to build against: hand it an iterable of
:class:`~repro.api.spec.RunSpec` and it executes them across a
``concurrent.futures.ProcessPoolExecutor`` (chunked, so tiny runs amortise
IPC), returns :class:`~repro.api.spec.RunRecord` objects **in input
order** regardless of completion order, and — when given an output path —
persists one deterministic JSON line per record.

Serial and pooled runs share one execution path: the pending specs are
split into units (a seed-group for an engine's ``run_many``, or a single
spec), and one module-level worker runs a unit either in-process or in a
pool process.  Specs and records cross the pool as pickled objects.

Resume semantics: records are keyed by :attr:`RunSpec.spec_id` (a content
hash).  When the output file already holds a record for a spec, that spec
is not re-executed; freshly computed records are appended as they finish
(crash-safe), and the file is rewritten in canonical input order at the
end.  Re-running an identical batch therefore costs zero simulations and
reproduces the file byte-for-byte modulo :data:`~repro.api.spec.TIMING_FIELDS`.

With a :class:`~repro.store.store.ResultStore` attached
(``BatchRunner(store=...)``), resume first consults the store's sqlite
index — cross-campaign, cross-user, cross-CI cache hits at the cost of an
index lookup, not a JSONL parse — and freshly computed records are
published back to the store in chunks of :data:`PUBLISH_CHUNK` (one
``put_many`` each), with the remainder published when the run ends,
normally or by an exception.  The per-batch JSONL file
keeps working exactly as before and is only parsed when the store could
not satisfy the whole batch (the legacy fallback); records it serves are
absorbed into the store, migrating old artifact dirs on touch.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from ..store.store import ResultStore, StoreError
from .engines import ENGINES
from .spec import RunRecord, RunSpec, TopologyCacheStats, execute_spec, topology_cache_stats

__all__ = [
    "BatchRunner",
    "BatchStats",
    "DEFAULT_MIN_GROUP_SIZE",
    "run_specs",
    "load_records",
]

#: Default :class:`BatchRunner` batching threshold: seed-groups smaller
#: than this run per-spec instead of through ``run_many``.  Measured
#: batch-vs-fastpath ratios (BENCH_engines.json) only reach ~1.7x at
#: K=16 and the SoA set-up cost is flat per group, so tiny groups pay
#: the overhead for little gain; 8 keeps every campaign-scale sweep
#: batched while letting small ad-hoc groups skip the machinery.
DEFAULT_MIN_GROUP_SIZE = 8

#: Freshly computed records :meth:`BatchRunner.run` collects before it
#: publishes them to the attached store in one ``put_many`` call (one
#: transaction per chunk instead of per record).
PUBLISH_CHUNK = 256


class _UnitResult(NamedTuple):
    """What :func:`_run_unit` hands back for one unit of work."""

    records: List[RunRecord]
    cache_hits: int
    cache_misses: int
    batch_fallbacks: Dict[str, int]
    #: Whether at least one seed of a group ran on a batch kernel.
    batched: bool


def _cache_delta(before: TopologyCacheStats) -> Dict[str, int]:
    """Topology-cache events since ``before``, as ``BatchStats`` counters.

    Caches are process-local, so per-unit deltas are the only aggregation
    that composes across a worker pool.
    """
    after = topology_cache_stats()
    return {
        "cache_hits": after.hits - before.hits,
        "cache_misses": after.misses - before.misses,
    }


def _run_unit(specs: Sequence[RunSpec]) -> _UnitResult:
    """Execute one unit of work: a single spec, or a whole seed-group.

    The one worker both execution modes share: :class:`BatchRunner` maps
    it in-process (builtin ``map``) or across its process pool (specs and
    records cross as pickled objects).  A seed-group goes whole through
    its engine's ``run_many`` capability in this one process — the
    vectorized engines only pay off when the group reaches them intact.
    ``run_many`` tallies each seed it runs per-spec instead, so the group
    ran on a kernel exactly when it tallied fewer seeds than it was given.
    """
    before = topology_cache_stats()
    fallbacks: Dict[str, int] = {}
    if len(specs) == 1:
        records = [execute_spec(specs[0])]
    else:
        records = ENGINES.get(specs[0].engine).run_many(
            specs[0], [spec.seed for spec in specs], fallbacks
        )
    return _UnitResult(
        records,
        batch_fallbacks=fallbacks,
        batched=len(specs) > 1 and sum(fallbacks.values()) < len(specs),
        **_cache_delta(before),
    )


def load_records(path: str) -> List[RunRecord]:
    """Parse a results JSONL file, tolerating a truncated final line.

    A batch interrupted mid-write leaves at most one partial line; skipping
    unparseable lines is exactly what makes resume-from-partial-output work.
    """
    records: List[RunRecord] = []
    if not os.path.exists(path):
        return records
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_json(line))
            except (ValueError, KeyError, TypeError):
                continue  # partial or foreign line — recompute that spec
    return records


@dataclass(frozen=True)
class BatchStats:
    """What the last :meth:`BatchRunner.run` actually did.

    ``cache_hits`` / ``cache_misses`` count compiled-topology cache events
    across every process that executed specs (see
    :func:`~repro.api.spec.topology_cache_stats`); a grid that sweeps
    protocol/scheduler/seed axes over one topology should show hits close
    to ``executed``.

    ``store_hits`` / ``store_misses`` count result-store lookups (unique
    specs served from / absent from the attached
    :class:`~repro.store.store.ResultStore`); both stay zero when no
    store is attached or resume is off.  Store hits are counted inside
    ``reused`` — a record served from the store was not executed.
    ``store_write_errors`` counts publishes the store refused (disk full,
    read-only file, lock timeout): the run still finishes and returns
    every record, but publishes nothing more after the first failure.

    ``batched_groups`` counts the seed-groups dispatched whole through an
    engine's ``run_many`` capability (see
    :class:`~repro.api.engines.EngineInfo`) in which at least one seed ran
    on a batch kernel; a group whose every seed fell back is tallied in
    ``batch_fallbacks`` only.  The specs a group contains are still
    counted individually in ``executed``.

    ``batch_fallbacks`` tallies, by reason, every executed spec that was
    *eligible* for batching but ran per-seed anyway: ``small_group``
    (seed-group under the runner's ``min_group_size`` or a singleton
    after topology subdivision), plus the engine-reported reasons from
    :func:`~repro.network.batchpath.run_many_batched` (``no_kernel``,
    ``faults``, ``trace``, ``state_bits``, ``scheduler``).  Empty when
    nothing fell back — so silent per-seed execution is observable
    instead of inferred from timings.
    """

    total: int
    executed: int
    reused: int
    cache_hits: int = 0
    cache_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_write_errors: int = 0
    batched_groups: int = 0
    batch_fallbacks: Dict[str, int] = field(default_factory=dict)

    def counters(self) -> Dict[str, Any]:
        """Every field by name, as a fresh dict.

        The one counter vocabulary that ``BATCH_SUMMARY``,
        ``EXPERIMENT_SUMMARY`` and the service's job summaries share.
        """
        return asdict(self)

    @classmethod
    def merge(cls, many: Iterable["BatchStats"]) -> "BatchStats":
        """The field-wise sum of ``many`` (fallbacks summed per reason)."""
        totals = cls(total=0, executed=0, reused=0).counters()
        fallbacks = totals["batch_fallbacks"]
        for stats in many:
            for name, value in stats.counters().items():
                if name == "batch_fallbacks":
                    for reason, count in value.items():
                        fallbacks[reason] = fallbacks.get(reason, 0) + count
                else:
                    totals[name] += value
        return cls(**totals)


class BatchRunner:
    """Execute many :class:`RunSpec`\\ s, in parallel, deterministically.

    Parameters
    ----------
    max_workers:
        Worker processes (``None`` = ``os.cpu_count()``).
    chunksize:
        Specs per IPC round-trip.  ``None`` (the default) auto-tunes to
        ``max(4, pending // (8 * workers))`` when the batch is dispatched,
        so huge quick-scale campaigns stop paying one IPC round-trip per
        4 tiny runs while each worker still gets ~8 chunks to balance load.
    parallel:
        ``False`` runs everything in-process — the right mode inside
        experiment drivers and tests (no fork overhead, full determinism
        guarantees hold in both modes because results are ordered by input
        position, never by completion).
    store:
        Optional :class:`~repro.store.store.ResultStore`.  When set, a
        resuming run looks specs up in the store index before anything
        else (O(pending) — the batch JSONL is not even parsed when the
        store satisfies every spec) and publishes freshly computed records
        back to the store in chunks of :data:`PUBLISH_CHUNK`, plus the
        remainder when the run ends (also when it ends by an exception).
        A hard kill can leave up to one chunk out of the store; the JSONL
        output still has those records line by line.  A failed store
        write does not abort the run: it is counted in
        ``stats.store_write_errors`` and the rest of the run goes
        uncached.  The store is only touched from this parent process,
        never from pool workers.
    min_group_size:
        Smallest seed-group worth dispatching through ``run_many``
        (default :data:`DEFAULT_MIN_GROUP_SIZE`); smaller groups run
        per-spec and are tallied under ``batch_fallbacks["small_group"]``.
        Exposed on the CLI as ``--batch-min-group``.
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        parallel: bool = True,
        store: Optional[ResultStore] = None,
        min_group_size: Optional[int] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 (use parallel=False for serial)")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1 (or None to auto-tune)")
        if min_group_size is not None and min_group_size < 1:
            raise ValueError("min_group_size must be >= 1 (or None for the default)")
        self.max_workers = max_workers
        self.chunksize = chunksize
        self.parallel = parallel
        self.store = store
        self.min_group_size = (
            DEFAULT_MIN_GROUP_SIZE if min_group_size is None else min_group_size
        )
        #: Stats of the most recent :meth:`run` call.
        self.stats: Optional[BatchStats] = None
        self._cache_hits = 0
        self._cache_misses = 0
        self._batched_groups = 0
        self._batch_fallbacks: Dict[str, int] = {}

    def effective_chunksize(self, pending: int) -> int:
        """The chunksize a dispatch of ``pending`` specs will use."""
        if self.chunksize is not None:
            return self.chunksize
        workers = self.max_workers or os.cpu_count() or 1
        return max(4, pending // (8 * workers))

    # ------------------------------------------------------------------

    def run(
        self,
        specs: Iterable[RunSpec],
        *,
        output_path: Optional[str] = None,
        resume: bool = True,
        progress: Optional[Callable[[int, int, RunRecord], None]] = None,
    ) -> List[RunRecord]:
        """Execute ``specs``; return records in input order.

        Parameters
        ----------
        output_path:
            JSONL file to persist records to.  Written incrementally while
            running, then rewritten in input order (one sorted-key compact
            JSON object per line) on completion.
        resume:
            Reuse records already present in the attached store and in
            ``output_path`` (keyed by ``spec_id``) instead of re-executing
            their specs.
        progress:
            Optional ``(done, total, record)`` callback per completed spec.

        Notes
        -----
        With a store attached, ``output_path`` is only *parsed* when the
        store could not satisfy every spec in the batch (legacy fallback;
        JSONL-served records are absorbed into the store).  When the store
        serves the whole batch, the file is rewritten purely from batch
        records — records for specs outside the batch are preserved only
        on the no-store / fallback path, where the file has been read.
        """
        spec_list = list(specs)
        # First occurrence of each distinct spec in input order.
        unique: Dict[str, RunSpec] = {}
        for spec in spec_list:
            unique.setdefault(spec.spec_id, spec)

        by_id: Dict[str, RunRecord] = {}
        store = self.store
        store_ids: set = set()
        write_errors = 0

        def publish(batch: List[RunRecord]) -> None:
            nonlocal write_errors
            if write_errors:
                return  # the store refused a write: finish uncached
            try:
                store.put_many(batch)
            except StoreError:
                write_errors += 1

        if store is not None and resume:
            by_id.update(store.get_many(unique.values()))
            store_ids = set(by_id)

        # Legacy JSONL resume: skipped entirely when the store already
        # satisfied the whole batch — that is what makes a warm-store
        # resume O(pending) instead of O(records in the artifact file).
        file_records: List[RunRecord] = []
        fully_served = store is not None and resume and len(by_id) == len(unique)
        if output_path and not fully_served:
            file_records = load_records(output_path)
            if resume:
                for record in file_records:
                    by_id.setdefault(record.spec.spec_id, record)
                if store is not None:
                    # Absorb JSONL-only records: legacy artifact dirs
                    # migrate into the store the first time they resume.
                    absorbed = [
                        by_id[sid]
                        for sid in unique
                        if sid in by_id and sid not in store_ids
                    ]
                    if absorbed:
                        publish(absorbed)

        pending = [spec for sid, spec in unique.items() if sid not in by_id]
        done = len(spec_list) - len(pending)

        self._cache_hits = 0
        self._cache_misses = 0
        self._batched_groups = 0
        self._batch_fallbacks = {}
        sink = None
        fresh: List[RunRecord] = []
        try:
            if output_path:
                sink = open(output_path, "a", encoding="utf-8")
            for record in self._execute(pending):
                by_id[record.spec.spec_id] = record
                if store is not None:
                    fresh.append(record)
                    if len(fresh) >= PUBLISH_CHUNK:
                        chunk, fresh = fresh, []
                        publish(chunk)
                if sink is not None:
                    sink.write(record.to_json() + "\n")
                    sink.flush()
                done += 1
                if progress is not None:
                    progress(done, len(spec_list), record)
        finally:
            if sink is not None:
                sink.close()
            if store is not None and fresh:
                # Also on the way out of an exception: every record that
                # was computed reaches the store.
                publish(fresh)

        records = [by_id[spec.spec_id] for spec in spec_list]
        if output_path:
            # Records in the file for specs outside this batch are kept (in
            # their original order, after the batch) — a subset re-run must
            # never destroy results it did not recompute.
            batch_ids = {spec.spec_id for spec in spec_list}
            extras = [r for r in file_records if r.spec.spec_id not in batch_ids]
            self._rewrite(output_path, list(records) + extras)
        lookups = len(unique) if (store is not None and resume) else 0
        self.stats = BatchStats(
            total=len(spec_list),
            executed=len(pending),
            reused=len(spec_list) - len(pending),
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            store_hits=len(store_ids),
            store_misses=max(0, lookups - len(store_ids)),
            store_write_errors=write_errors,
            batched_groups=self._batched_groups,
            batch_fallbacks=dict(self._batch_fallbacks),
        )
        return records

    # ------------------------------------------------------------------

    def _plan(
        self, pending: Sequence[RunSpec]
    ) -> "tuple[List[RunSpec], List[List[RunSpec]]]":
        """Split pending work into singleton specs and ``run_many`` groups.

        Specs whose engine declares ``supports_batching`` are grouped by
        "spec minus seed" (the ``spec_id`` with the seed nulled out).
        Grouping happens strictly *after* store/JSONL resume filtering, so
        a store hit inside a group shrinks the group instead of forcing a
        re-execution; groups that shrink below ``min_group_size`` (always
        at least 2) fall back to the ordinary per-spec path, where
        dispatch is cheaper than the SoA set-up — multi-spec groups the
        threshold turned away are tallied under
        ``batch_fallbacks["small_group"]`` (singletons had nothing to
        batch with and are not).
        """
        singles: List[RunSpec] = []
        by_shape: Dict[str, List[RunSpec]] = {}
        for spec in pending:
            info = ENGINES.get(spec.engine)
            if getattr(info, "supports_batching", False):
                shape = RunSpec._unchecked({**vars(spec), "seed": None})
                by_shape.setdefault(shape.spec_id, []).append(spec)
            else:
                singles.append(spec)
        threshold = max(2, self.min_group_size)
        groups: List[List[RunSpec]] = []
        for members in by_shape.values():
            if len(members) >= threshold:
                groups.append(members)
            else:
                if len(members) >= 2:
                    self._batch_fallbacks["small_group"] = (
                        self._batch_fallbacks.get("small_group", 0) + len(members)
                    )
                singles.extend(members)
        return singles, groups

    def _execute(self, pending: Sequence[RunSpec]) -> Iterator[RunRecord]:
        """Run every pending spec as a unit (see :func:`_run_unit`).

        Serial runs map the units in-process; pooled runs map the same
        units across one process pool — groups one per task, singles at
        :meth:`effective_chunksize` per task.
        """
        if not pending:
            return
        singles, groups = self._plan(pending)
        units = [[spec] for spec in singles]
        if not self.parallel or len(pending) == 1:
            units = groups + units
            yield from self._absorb(units, map(_run_unit, units))
            return
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            yield from self._absorb(groups, pool.map(_run_unit, groups))
            chunksize = self.effective_chunksize(len(units))
            yield from self._absorb(units, pool.map(_run_unit, units, chunksize=chunksize))

    def _absorb(
        self, units: Sequence[Sequence[RunSpec]], results: Iterable[_UnitResult]
    ) -> Iterator[RunRecord]:
        """Fold each unit's counters into this run's stats; yield its records.

        Each record is yielded with its unit's own spec, whose ``spec_id``
        is already memoised — an unpickled or ``run_many``-cloned spec
        would be hashed afresh by every caller that keys the record.
        """
        for specs, result in zip(units, results):
            self._cache_hits += result.cache_hits
            self._cache_misses += result.cache_misses
            self._batched_groups += result.batched
            for reason, count in result.batch_fallbacks.items():
                self._batch_fallbacks[reason] = self._batch_fallbacks.get(reason, 0) + count
            for spec, record in zip(specs, result.records):
                yield record if record.spec is spec else replace(record, spec=spec)

    def map_payloads(
        self,
        worker: Callable[[Dict[str, Any]], Dict[str, Any]],
        payloads: Sequence[Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """Run a picklable ``worker`` over JSON-safe payload dicts, in order.

        The generic sibling of :meth:`run` for work that is not a
        :class:`~repro.api.spec.RunSpec` — the guided schedule search
        shards subtree roots across the same worker pool this way.
        Results come back in input order; ``parallel=False`` (or a single
        payload) runs in-process, preserving the determinism story of the
        spec path.  ``worker`` must be a module-level function (it
        crosses the process boundary).
        """
        items = list(payloads)
        if not items:
            return []
        if not self.parallel or len(items) == 1:
            return [worker(payload) for payload in items]
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(worker, items))

    @staticmethod
    def _rewrite(path: str, records: Sequence[RunRecord]) -> None:
        """Atomically replace ``path`` with the canonical input-order JSONL."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
        os.replace(tmp, path)


def run_specs(
    specs: Iterable[RunSpec],
    *,
    output_path: Optional[str] = None,
    resume: bool = True,
    max_workers: Optional[int] = None,
    parallel: bool = True,
    store: Optional[ResultStore] = None,
    min_group_size: Optional[int] = None,
) -> List[RunRecord]:
    """One-shot convenience wrapper around :class:`BatchRunner`."""
    runner = BatchRunner(
        max_workers=max_workers,
        parallel=parallel,
        store=store,
        min_group_size=min_group_size,
    )
    return runner.run(specs, output_path=output_path, resume=resume)
