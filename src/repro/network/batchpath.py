"""The vectorized multi-run ``batch`` engine.

Campaigns spend their wall-clock running hundreds of seed variants of the
*same* compiled topology one Python step at a time.  This module runs a
whole seed-group at once: one numpy state tensor per kernel field holds
``K`` simultaneous runs, and every simulation step is an array operation
across all ``K`` runs (see :mod:`repro.core.batch_kernel`) instead of
``K`` Python steps.

Exactness is the whole game.  The fastpath engine drives a seeded
:class:`~repro.network.scheduler.RandomScheduler`, whose every choice is
``random.Random(seed).randrange(len(in_flight))`` followed by a swap-pop.
:class:`MTStreams` therefore keeps one ``random.Random(seed_i)`` per run
and takes its 32-bit words straight from CPython's generator, a block at
a time; only ``_randbelow_with_getrandbits``'s top-bits rejection walk is
re-implemented, as lockstep array operations over ``K`` streams, so that
stream ``i`` emits *exactly* the values ``random.Random(seed_i)`` would.  The
batch kernels mirror the scheduler's append order and swap-pop, so every
run's delivery sequence — and with it every metric — is identical to its
fastpath twin.  The differential suite
(``tests/api/test_batch_differential.py``) holds this per (spec, seed).

:func:`run_many_batched` is the engine's ``run_many`` capability (see
:class:`~repro.api.engines.EngineInfo`): it receives one spec shape plus
a seed list, subdivides the group wherever the seed actually changes the
topology, vectorizes the subgroups its kernels can express, and falls
back to per-spec fastpath execution for everything else (protocols
without a batch kernel, non-random schedulers, fault/trace/state-bit
requests, budgets that cut runs short, early stops at termination).
Records come back input-ordered either way, and every spec that takes
the fallback is tallied by reason into the caller's ``fallbacks`` dict
so silent per-seed execution is observable (surfaced as
``batch_fallbacks`` in :class:`~repro.api.runner.BatchStats` and the CLI
summary lines).
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..api.registry import GRAPHS
from ..api.spec import (
    RunRecord,
    RunSpec,
    _accepts_param,
    cached_network,
    compiled_topology,
    ensure_registered,
    execute_spec,
    topology_key,
)
from .scheduler import RandomScheduler
from .simulator import Outcome, default_step_budget

__all__ = ["BATCH_KERNEL_EXEMPT", "MTStreams", "run_many_batched"]

#: Protocol registry names that are allowed to lack a ``compile_batch``
#: kernel.  The interval protocols carry arbitrary label/interval payloads that are
#: not int-array shaped, so they run per-seed; the registry-driven
#: completeness test (``tests/api/test_batch_differential.py``) fails
#: the build if a newly registered protocol neither compiles a batch
#: kernel nor is listed here.
BATCH_KERNEL_EXEMPT: frozenset = frozenset(
    {"general-broadcast", "label-assignment", "topology-mapping"}
)

_N = 624
#: Rejection-scan horizon of :meth:`MTStreams.randbelow_dense`: how many
#: buffered words each stream inspects per vectorized call.  Acceptance
#: probability per word is >= 1/2, so P(no accept in _H) <= 2**-_H.
_H = 8
#: Per-stream buffer size: two blocks, so the horizon gather never
#: straddles a refill (see :meth:`MTStreams._advance`).
_N2 = 2 * _N

#: Ceiling on the ``bit_length`` lookup table (4 MiB of uint32).  Draw
#: bounds are queue lengths, bounded by edge counts in practice; a freak
#: bound past this computes its shift directly instead of growing a
#: table whose allocation would dwarf the draw it serves.
_SHIFT_TABLE_MAX = 1 << 20


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit outputs of ``rng``, in draw order.

    ``getrandbits`` fills its result from the least significant 32-bit
    word up, one generator output per word, so the little-endian bytes
    are exactly the words ``count`` successive ``getrandbits(32)`` calls
    (and hence ``randrange``) would consume.
    """
    bits = rng.getrandbits(32 * count)
    return np.frombuffer(bits.to_bytes(4 * count, "little"), dtype="<u4")


class MTStreams:
    """``K`` CPython Mersenne Twister streams drawn from in lockstep.

    Stream ``i`` *is* ``random.Random(seeds[i])``: its words come from that
    generator's own ``getrandbits``, 624 at a time, and
    :meth:`randbelow_dense` consumes one word per call per stream (plus
    the occasional rejection redraw, per stream), just like
    ``Random.randrange``.  Streams consume words at different rates once
    rejections diverge, so each stream keeps its own cursor into its
    buffered words and refills independently when its first block runs
    dry.
    """

    __slots__ = (
        "k",
        "_rngs",
        "_buf",
        "_abs",
        "_all",
        "_rowbase",
        "_rowh",
        "_hspan",
        "_until",
        "_shift",
        "_scratch",
    )

    def __init__(self, seeds: Sequence[Any]) -> None:
        k = len(seeds)
        self.k = k
        self._rngs = [random.Random(seed) for seed in seeds]
        # Output words, flat and stream-major, double-buffered: stream j's
        # words live in ``_buf[j*1248 : (j+1)*1248]`` and always hold two
        # consecutive blocks, so the dense path's horizon gather
        # (cursor..cursor+_H) never straddles a refill.
        self._buf = np.empty(k * _N2, dtype=np.uint32)
        rows = self._buf.reshape(k, _N2)
        for row, rng in zip(rows, self._rngs):
            row[:] = _words(rng, _N2)
        self._all = np.arange(k, dtype=np.int64)
        self._rowbase = self._all * _N2
        # Cursors are kept pre-offset into the flat buffer (stream j's
        # next word is ``_buf[_abs[j]]``); the per-stream position is
        # ``_abs - _rowbase``.
        self._abs = self._rowbase.copy()
        self._rowh = self._all * _H
        self._hspan = np.arange(_H, dtype=np.int64)
        #: Dense calls guaranteed in-bounds before the next boundary
        #: check (each call consumes at most ``_H`` words per stream).
        self._until = 0
        # ``32 - bit_length(n)`` lookup for randbelow_dense, grown on
        # demand (an out-of-range gather raises, which is the grow signal).
        self._shift = np.array([32, 31], dtype=np.uint32)
        self._alloc_scratch()

    def _alloc_scratch(self) -> None:
        """Reusable dense-path buffers (every shape is ``k``-determined,
        so the hot loop runs allocation-free)."""
        k = self.k
        self._scratch = (
            np.empty(k, dtype=np.uint32),  # shift per stream
            np.empty((k, _H), dtype=np.int64),  # gather span
            np.empty((k, _H), dtype=np.uint32),  # raw words
            np.empty((k, _H), dtype=np.uint32),  # top-bit values
            np.empty((k, _H), dtype=bool),  # acceptance mask
            np.empty(k, dtype=np.intp),  # accepted position
            np.empty(k, dtype=np.int64),  # flat gather index
            np.empty(k, dtype=np.uint32),  # results
            np.empty(k, dtype=np.int64),  # words consumed
        )

    def _advance(self, cols: np.ndarray) -> None:
        """Slide the double buffer one block for the given streams.

        The consumed first block is dropped, the second becomes the
        first, each stream's own generator refills the vacated half, and
        the cursors shift back with the words they index.
        """
        rows = self._buf.reshape(self.k, _N2)
        for j in cols.tolist():
            row = rows[j]
            row[:_N] = row[_N:]
            row[_N:] = _words(self._rngs[j], _N)
        self._abs[cols] -= _N

    def _shift_for(self, n: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``32 - bit_length(n[i])`` per stream, from the cached table.

        The table covers the queue-length range the kernels actually draw
        from; values past ``_SHIFT_TABLE_MAX`` (which would make the
        table itself the allocation) fall back to a direct frexp.
        """
        try:
            return self._shift.take(n, out=out)
        except IndexError:
            top = int(n.max())
            if top > _SHIFT_TABLE_MAX:
                bl = np.frexp(n.astype(np.float64))[1]
                out[:] = np.uint32(32) - bl.astype(np.uint32)
                return out
            bl = np.frexp(np.arange(2 * top + 2, dtype=np.float64))[1]
            self._shift = np.uint32(32) - bl.astype(np.uint32)
            return self._shift.take(n, out=out)

    def randbelow_dense(self, n: np.ndarray) -> np.ndarray:
        """``Random.randrange(n[i])`` for every stream ``i`` at once (n >= 1).

        CPython's ``_randbelow_with_getrandbits`` draws ``bit_length(n)``
        top bits and redraws while the value is >= n.  Instead of
        redrawing rejected streams round by round, this gathers each
        stream's next ``_H`` buffered words in one shot and resolves the
        whole rejection walk with an ``argmax`` — the accepted word is the
        first one whose top bits fall below ``n``, and each cursor
        advances by exactly the words its stream inspected, preserving
        word-for-word parity with the scalar generator.  Streams that reject
        all ``_H`` words (p < 1%) or sit within ``_H`` words of their
        block end finish on the exact scalar path.  ``n`` must be a
        ``(k,)`` int64 array of values >= 1; the result dtype is uint32.
        """
        shiftbuf, span, words, shifted, valid, pos, flat, r, consumed = self._scratch
        shift = self._shift_for(n, shiftbuf)
        if self._until <= 0:
            # Re-check boundaries: pull streams past their first block
            # back one block.  A gather stays in-bounds while every
            # cursor is <= 2*_N - _H, and each dense call moves a cursor
            # at most _H words, so after this check the next _N//_H - 1
            # calls can skip it.
            high = np.nonzero(self._abs - self._rowbase >= _N)[0]
            if high.size:
                self._advance(high)
            self._until = _N // _H - 1
        self._until -= 1
        np.add(self._abs[:, None], self._hspan, out=span)
        self._buf.take(span, out=words)
        np.right_shift(words, shift[:, None], out=shifted)
        np.less(shifted, n[:, None], out=valid)
        valid.argmax(axis=1, out=pos)
        np.add(self._rowh, pos, out=flat)
        shifted.reshape(-1).take(flat, out=r)
        np.add(pos, 1, out=consumed)
        # A straggler row is all-invalid, so argmax lands on word 0 and
        # the gathered value itself betrays the rejection.
        bad = r >= n
        if not bad.any():
            self._abs += consumed
            return r
        stragglers = np.nonzero(bad)[0]
        consumed[stragglers] = _H
        self._abs += consumed
        self._scalar_calls(stragglers, n, shift, r)
        return r

    def _scalar_calls(self, cols: np.ndarray, n: np.ndarray, shift: np.ndarray, r: np.ndarray) -> None:
        """Finish ``randrange`` per stream in ``cols``, one word at a time.

        Continues each stream from its current cursor (streams that
        already rejected buffered words enter mid-walk), sliding the
        double buffer in the (astronomically unlikely) event a walk
        consumes it whole.
        """
        buf = self._buf
        cur = self._abs
        for j in cols.tolist():
            nj = int(n[j])
            sj = int(shift[j])
            cj = int(cur[j])
            end = j * _N2 + _N2
            while True:
                if cj >= end:
                    cur[j] = cj
                    self._advance(self._all[j : j + 1])
                    cj = int(cur[j])
                rj = int(buf[cj]) >> sj
                cj += 1
                if rj < nj:
                    break
            r[j] = rj
            cur[j] = cj
        self._until = 0  # cursors moved unevenly; next dense call re-checks


_TERMINATED = Outcome.TERMINATED.value
_QUIESCENT = Outcome.QUIESCENT.value


def _seed_variants(spec: RunSpec, seeds: Sequence[Any]) -> List[RunSpec]:
    """``[spec.with_seed(s) for s in seeds]`` without re-running validation
    that ``spec`` already passed (``seed`` takes part in none of it)."""
    return [RunSpec._unchecked({**vars(spec), "seed": seed}) for seed in seeds]


def _group_scheduler_seeds(group: Sequence[RunSpec]) -> Optional[List[Any]]:
    """Per-run RNG stream seeds for a same-shape group, or ``None`` when
    any member does not drive a stock :class:`RandomScheduler`."""
    schedulers = [s.build_scheduler() for s in group]
    if any(type(scheduler) is not RandomScheduler for scheduler in schedulers):
        return None
    return [scheduler.seed for scheduler in schedulers]


#: Batch kernels keyed by (topology key, protocol name, protocol params).
#: A kernel is pure precomputation over its compiled topology — ``run``
#: allocates fresh per-call state — so one instance serves every group of
#: the same shape; campaigns re-dispatch the same shape hundreds of times
#: and the rebuild (CSR layout, reachability walk) would otherwise be
#: paid on each dispatch.  ``None`` results (protocols without a batch
#: kernel) are cached too, so the fallback probe is paid once per shape.
_KERNEL_CACHE: Dict[Any, Any] = {}
_KERNEL_CACHE_MAX = 64


def _group_kernel(rep: RunSpec, compiled: Any) -> Optional[Any]:
    """The (cached) batch kernel for a group's representative spec."""
    key = (
        topology_key(rep),
        rep.protocol,
        json.dumps(rep.protocol_params, sort_keys=True),
    )
    try:
        return _KERNEL_CACHE[key]
    except KeyError:
        pass
    kernel = rep.build_protocol().compile_batch(compiled)
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
    _KERNEL_CACHE[key] = kernel
    return kernel


def _shape_fallback_reason(spec: RunSpec) -> Optional[str]:
    """Why the spec *shape* (seed aside) can't run on a batch kernel, or
    ``None`` when it can.  The budget and ``stop_at_termination`` are
    judged later, per group, against the kernel's structural step count
    and ``can_terminate`` (see :func:`run_many_batched`)."""
    if spec.faults is not None:
        return "faults"
    if spec.trace is not None or spec.record_trace:
        return "trace"
    if spec.track_state_bits:
        return "state_bits"
    return None


def _records_from_outcome(
    specs: Sequence[RunSpec],
    network: Any,
    outcome: Any,
    elapsed: float,
) -> List[RunRecord]:
    """Materialise per-run :class:`RunRecord`\\ s from kernel arrays,
    freezing metrics exactly as the fastpath engine would.  Every run
    drained, so it either terminated or went quiescent, and its message
    count is its step count.

    The metric dicts are written literally, in
    :class:`~repro.network.metrics.RunMetrics` field order — the same
    shape ``asdict(RunMetrics(...))`` yields, without K dataclass
    round-trips (the differential suite pins the equivalence).
    """
    records: List[RunRecord] = []
    per_run = elapsed / max(1, len(specs))
    steps = outcome.steps.tolist()
    total_bits = outcome.total_bits.tolist()
    max_message_bits = outcome.max_message_bits.tolist()
    max_edge_messages = outcome.max_edge_messages.tolist()
    max_edge_bits = outcome.max_edge_bits.tolist()
    termination_step = outcome.termination_step.tolist()
    messages_at_termination = outcome.messages_at_termination.tolist()
    bits_at_termination = outcome.bits_at_termination.tolist()
    num_vertices = network.num_vertices
    num_edges = network.num_edges
    for i, spec in enumerate(specs):
        tstep = termination_step[i]
        run_outcome = _TERMINATED if tstep >= 0 else _QUIESCENT
        metrics = {
            "total_messages": steps[i],
            "total_bits": total_bits[i],
            "max_message_bits": max_message_bits[i],
            "max_edge_bits": max_edge_bits[i],
            "max_edge_messages": max_edge_messages[i],
            "termination_step": tstep if tstep >= 0 else None,
            "steps": steps[i],
            "messages_at_termination": messages_at_termination[i],
            "bits_at_termination": bits_at_termination[i],
            "max_state_bits": 0,
        }
        records.append(
            RunRecord(
                spec=spec,
                outcome=run_outcome,
                terminated=run_outcome is _TERMINATED,
                num_vertices=num_vertices,
                num_edges=num_edges,
                metrics=metrics,
                elapsed_seconds=per_run,
            )
        )
    return records


def run_many_batched(
    spec: RunSpec,
    seeds: Sequence[Any],
    fallbacks: Optional[Dict[str, int]] = None,
) -> List[RunRecord]:
    """Execute ``spec`` across ``seeds``; records aligned with ``seeds``.

    The group is subdivided by topology key first (a seed-sensitive graph
    family turns one seed-group into several same-topology subgroups),
    then each subgroup is vectorized when every precondition holds —
    stock :class:`RandomScheduler`, a protocol with a batch kernel, no
    faults or tracing, a budget that lets every run drain, no early stop
    at a termination the kernel would reach — and executed one spec at a
    time through :func:`~repro.api.spec.execute_spec` (the engine's
    fastpath ``run_one``) otherwise.  A kernel only ever runs full
    drains in lockstep (see :mod:`repro.core.batch_kernel`).

    ``fallbacks``, when given, is a mutable counter dict the function
    increments once per spec that takes the per-seed fallback, keyed by
    reason: ``faults`` / ``trace`` / ``state_bits`` (shape can't
    vectorize), ``small_group`` (nothing to batch with after topology
    subdivision), ``scheduler`` (not a stock :class:`RandomScheduler`),
    ``no_kernel`` (protocol without a batch kernel), ``budget``
    (``max_steps`` below the kernel's structural step count),
    ``early_stop`` (``stop_at_termination`` on a shape whose runs
    terminate).
    """
    specs = _seed_variants(spec, list(seeds))
    records: List[Optional[RunRecord]] = [None] * len(specs)

    def fell_back(reason: str, count: int) -> None:
        if fallbacks is not None and count:
            fallbacks[reason] = fallbacks.get(reason, 0) + count

    groups: List[List[int]] = []
    shape_reason = _shape_fallback_reason(spec)
    if shape_reason is not None:
        fell_back(shape_reason, len(specs))
    elif len(specs) < 2:
        fell_back("small_group", len(specs))
    else:
        ensure_registered()
        # The run seed reaches the topology only through injection into
        # the graph factory; when that path is closed (seed pinned in
        # graph_params, or the factory takes none) every run shares one
        # topology and the K topology-key hashes are skipped wholesale.
        seed_shapes_topology = "seed" not in spec.graph_params and _accepts_param(
            GRAPHS.get(spec.graph), "seed"
        )
        if seed_shapes_topology:
            by_topology: Dict[Any, List[int]] = {}
            for i, s in enumerate(specs):
                by_topology.setdefault(topology_key(s), []).append(i)
            # Singleton groups fall through: per-run fastpath is strictly
            # cheaper than a K=1 kernel set-up.
            groups = [g for g in by_topology.values() if len(g) >= 2]
            fell_back(
                "small_group",
                sum(len(g) for g in by_topology.values() if len(g) < 2),
            )
        else:
            groups = [list(range(len(specs)))]

    for indices in groups:
        group = [specs[i] for i in indices]
        rep = group[0]
        scheduler_seeds = _group_scheduler_seeds(group)
        if scheduler_seeds is None:
            # Not a stock RandomScheduler: fastpath fallback below.
            fell_back("scheduler", len(group))
            continue
        network = cached_network(rep)
        compiled = compiled_topology(network)
        kernel = _group_kernel(rep, compiled)
        if kernel is None:
            # No batch kernel for this protocol (or a topology the
            # kernel can't express exactly): fallback below.
            fell_back("no_kernel", len(group))
            continue
        max_steps = rep.max_steps
        if max_steps is None:
            max_steps = default_step_budget(network)
        if max_steps < kernel.num_steps:
            # The budget would cut runs short of their drain.
            fell_back("budget", len(group))
            continue
        if rep.stop_at_termination and kernel.can_terminate:
            # Each run would stop at its own termination step.
            fell_back("early_stop", len(group))
            continue
        start = time.perf_counter()
        outcome = kernel.run(MTStreams(scheduler_seeds))
        elapsed = time.perf_counter() - start
        for i, record in zip(indices, _records_from_outcome(group, network, outcome, elapsed)):
            records[i] = record

    for i, s in enumerate(specs):
        if records[i] is None:
            records[i] = execute_spec(s)
    return records  # type: ignore[return-value]
