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
:class:`MTStreams` therefore reimplements CPython's Mersenne Twister —
``init_by_array`` seeding, the block twist, the tempering shifts, and
``_randbelow_with_getrandbits``'s top-bits rejection sampling — as
lockstep array operations over ``K`` independent streams, so that stream
``i`` emits *exactly* the values ``random.Random(seed_i)`` would.  The
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
requests, out-of-range seeds).  Records come back input-ordered either
way, and every spec that takes the fallback is tallied by reason into
the caller's ``fallbacks`` dict so silent per-seed execution is
observable (surfaced as ``batch_fallbacks`` in
:class:`~repro.api.runner.BatchStats` and the CLI summary lines).
"""

from __future__ import annotations

import json
import time
from dataclasses import fields
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.registry import GRAPHS, SCHEDULERS
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
_M = 397
_MATRIX_A = np.uint32(0x9908B0DF)
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)
#: Rejection-scan horizon of :meth:`MTStreams.randbelow_dense`: how many
#: buffered words each stream inspects per vectorized call.  Acceptance
#: probability per word is >= 1/2, so P(no accept in _H) <= 2**-_H.
_H = 8
#: Per-stream buffer size: two tempered blocks, so the horizon gather
#: never straddles a refill (see :meth:`MTStreams._advance`).
_N2 = 2 * _N

#: Ceiling on the ``bit_length`` lookup table (4 MiB of uint32).  Draw
#: bounds are queue lengths, bounded by edge counts in practice; a freak
#: bound past this computes its shift directly instead of growing a
#: table whose allocation would dwarf the draw it serves.
_SHIFT_TABLE_MAX = 1 << 20

#: Seeds a single-word ``init_by_array`` key can express.  CPython chunks
#: ``abs(seed)`` into 32-bit words; multi-word keys would vectorize too,
#: but no campaign uses them, so such specs take the fastpath fallback.
MAX_STREAM_SEED = 2**32


@lru_cache(maxsize=1)
def _base_state() -> np.ndarray:
    """The stream-independent ``init_genrand(19650218)`` state vector."""
    base = np.empty(_N, dtype=np.uint32)
    base[0] = 19650218
    with np.errstate(over="ignore"):  # uint32 wraparound is the algorithm
        for i in range(1, _N):
            prev = base[i - 1]
            base[i] = np.uint32(1812433253) * (prev ^ (prev >> np.uint32(30))) + np.uint32(i)
    return base


@lru_cache(maxsize=32)
def _seeded_state(seeds: Tuple[int, ...]) -> np.ndarray:
    """Pristine post-``init_by_array`` MT state, one column per seed.

    The seeding loops are 1247 sequential array steps — several
    milliseconds per group — and campaigns reuse the same seed list
    across every spec of a sweep, so the pristine state is cached by
    seed tuple (read-only; callers copy).
    """
    k = len(seeds)
    mt = np.repeat(_base_state()[:, None], k, axis=1)
    # init_by_array with one single-word key per stream.  key_length is
    # 1, so the key index j is 0 at every use.
    key = np.asarray(seeds, dtype=np.uint32)
    i = 1
    for _ in range(_N):
        prev = mt[i - 1]
        mt[i] = (mt[i] ^ ((prev ^ (prev >> np.uint32(30))) * np.uint32(1664525))) + key
        i += 1
        if i >= _N:
            mt[0] = mt[_N - 1]
            i = 1
    for _ in range(_N - 1):
        prev = mt[i - 1]
        mt[i] = (mt[i] ^ ((prev ^ (prev >> np.uint32(30))) * np.uint32(1566083941))) - np.uint32(i)
        i += 1
        if i >= _N:
            mt[0] = mt[_N - 1]
            i = 1
    mt[0] = _UPPER
    mt.setflags(write=False)
    return mt


class MTStreams:
    """``K`` MT19937 streams advanced in lockstep as ``(624, K)`` arrays.

    Stream ``i`` reproduces ``random.Random(seeds[i])`` exactly:
    :meth:`randbelow` consumes one 32-bit word per call per stream (plus
    the occasional rejection redraw, per stream), just like
    ``Random.randrange``.  Streams consume words at different rates once
    rejections diverge, so each stream keeps its own cursor into its
    block of tempered output and re-twists independently (in vectorized
    sub-batches) when its block runs dry.
    """

    __slots__ = (
        "k",
        "_mt",
        "_buf",
        "_abs",
        "_all",
        "_rowbase",
        "_rowh",
        "_hspan",
        "_until",
        "_shift",
        "_scratch",
        "_have2",
    )

    def __init__(self, seeds: Sequence[int]) -> None:
        for seed in seeds:
            if not isinstance(seed, int) or not 0 <= seed < MAX_STREAM_SEED:
                raise ValueError(
                    f"MTStreams seeds must be ints in [0, 2**32), got {seed!r}"
                )
        k = len(seeds)
        self.k = k
        self._mt = _seeded_state(tuple(int(s) for s in seeds)).copy()
        # Tempered output, flat and stream-major, double-buffered: stream
        # j's words live in ``_buf[j*1248 : (j+1)*1248]`` and always hold
        # two consecutive tempered blocks, so the dense path's horizon
        # gather (cursor..cursor+_H) never straddles a refill.
        self._buf = np.zeros(k * _N2, dtype=np.uint32)
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
        rows = self._buf.reshape(k, _N2)
        rows[:, :_N] = self._twist(self._all).T
        # The second block is tempered lazily: a typical kernel run
        # consumes a few hundred words per stream, nowhere near the first
        # block's 624, so eagerly filling both halves would double the
        # up-front tempering cost for nothing.
        self._have2 = False

    def _ensure_second(self) -> None:
        """Temper the deferred second block (all streams) before any read
        of it — via :meth:`_advance`, a near-block-end horizon gather, or
        a straggler walk past a block boundary."""
        self._buf.reshape(self.k, _N2)[:, _N:] = self._twist(self._all).T
        self._have2 = True

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

    def _twist(self, cols: np.ndarray) -> np.ndarray:
        """Advance ``mt`` one block for the given streams; return the
        ``(624, m)`` tempered output.

        The twist's second range reads values the first range just wrote,
        so it is split at the points where the read window crosses into
        the write window — three slice assignments reproduce the scalar
        loop's in-place semantics.
        """
        mt = self._mt[:, cols]
        y = (mt[0 : _N - _M] & _UPPER) | (mt[1 : _N - _M + 1] & _LOWER)
        mt[0 : _N - _M] = mt[_M:_N] ^ (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * _MATRIX_A)
        y = (mt[_N - _M : _N - 1] & _UPPER) | (mt[_N - _M + 1 : _N] & _LOWER)
        low, mid = _N - _M, 2 * (_N - _M)
        mt[low:mid] = (
            mt[0 : _N - _M]
            ^ (y[0 : _N - _M] >> np.uint32(1))
            ^ ((y[0 : _N - _M] & np.uint32(1)) * _MATRIX_A)
        )
        mt[mid : _N - 1] = (
            mt[_N - _M : _M - 1]
            ^ (y[_N - _M :] >> np.uint32(1))
            ^ ((y[_N - _M :] & np.uint32(1)) * _MATRIX_A)
        )
        y = (mt[_N - 1] & _UPPER) | (mt[0] & _LOWER)
        mt[_N - 1] = mt[_M - 1] ^ (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * _MATRIX_A)
        self._mt[:, cols] = mt

        out = mt.copy()
        out ^= out >> np.uint32(11)
        out ^= (out << np.uint32(7)) & np.uint32(0x9D2C5680)
        out ^= (out << np.uint32(15)) & np.uint32(0xEFC60000)
        out ^= out >> np.uint32(18)
        return out

    def _advance(self, cols: np.ndarray) -> None:
        """Slide the double buffer one block for the given streams.

        The consumed first block is dropped, the second becomes the
        first, a fresh block is tempered into the vacated half, and the
        cursors shift back with the words they index.
        """
        if not self._have2:
            self._ensure_second()
        rows = self._buf.reshape(self.k, _N2)
        rows[cols, :_N] = rows[cols, _N:]
        rows[cols, _N:] = self._twist(cols).T
        self._abs[cols] -= _N

    def _draw(self, cols: np.ndarray) -> np.ndarray:
        """One 32-bit word per stream in ``cols`` (each cursor advances)."""
        self._until = 0  # cursors move unevenly; dense path must re-check
        pos = self._abs[cols]
        high = pos - self._rowbase[cols] >= _N
        if high.any():
            self._advance(cols[high])
            pos = self._abs[cols]
        words = self._buf[pos]
        self._abs[cols] = pos + 1
        return words

    def randbelow(self, n: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``Random.randrange(n[i])`` for each stream in ``cols`` (n >= 1).

        CPython's ``_randbelow_with_getrandbits``: draw ``bit_length(n)``
        top bits, redraw while the value is >= n.  Each retry consumes one
        word in the rejected streams only, keeping them word-for-word in
        sync with their scalar twins.
        """
        n = np.asarray(n, dtype=np.int64)
        # frexp's exponent is exactly bit_length for ints below 2**53.
        k_bits = np.frexp(n.astype(np.float64))[1].astype(np.uint32)
        shift = np.uint32(32) - k_bits
        r = (self._draw(cols) >> shift).astype(np.int64)
        bad = np.nonzero(r >= n)[0]
        while bad.size:
            r[bad] = (self._draw(cols[bad]) >> shift[bad]).astype(np.int64)
            bad = bad[r[bad] >= n[bad]]
        return r

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
        """:meth:`randbelow` over *all* streams at once — the hot-loop form.

        Identical draws to ``randbelow(n, arange(k))`` (the batch kernels
        rely on this to keep their fast and general loops word-for-word
        aligned), but instead of redrawing rejected streams round by
        round, it gathers each stream's next ``_H`` buffered words in one
        shot and resolves the whole rejection walk with an ``argmax`` —
        the accepted word is the first one whose top bits fall below
        ``n``, and each cursor advances by exactly the words its stream
        inspected, preserving word-for-word parity.  Streams that reject
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
            # calls can skip it.  Before the second block exists the
            # budget is tighter — no gather may pass the *first* block
            # end, so the safe call count is paced off the deepest
            # cursor — and once that budget hits zero the block is
            # tempered and the steady-state rule takes over.
            if not self._have2:
                maxpos = int((self._abs - self._rowbase).max())
                safe = (_N - _H - maxpos) // _H
                if safe <= 0:
                    self._ensure_second()
            if self._have2:
                high = np.nonzero(self._abs - self._rowbase >= _N)[0]
                if high.size:
                    self._advance(high)
                self._until = _N // _H - 1
            else:
                self._until = safe
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
        if not self._have2:
            # A straggler's cursor already moved _H past its gather start
            # and the walk continues from there — it may read past the
            # first block end.
            self._ensure_second()
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

    def compact(self, keep: np.ndarray) -> None:
        """Drop every stream not in ``keep`` (kernel drain compaction).

        ``keep`` is a sorted index array into the current streams; the
        surviving streams keep their exact word positions, so draws after
        a compaction continue each stream's sequence unbroken.
        """
        self._mt = self._mt[:, keep]
        self._buf = self._buf.reshape(self.k, _N2)[keep].reshape(-1)
        positions = self._abs[keep] - self._rowbase[keep]
        self.k = int(keep.size)
        self._all = self._all[: self.k]
        self._rowbase = self._all * _N2
        self._abs = self._rowbase + positions
        self._rowh = self._all * _H
        self._until = 0  # rowh/rowbase changed under the cached bound
        self._alloc_scratch()  # shapes are k-determined


_SPEC_FIELD_NAMES = tuple(f.name for f in fields(RunSpec))

_TERMINATED = Outcome.TERMINATED.value
_EXHAUSTED = Outcome.BUDGET_EXHAUSTED.value
_QUIESCENT = Outcome.QUIESCENT.value


def _seed_variants(spec: RunSpec, seeds: Sequence[Any]) -> List[RunSpec]:
    """``[spec.with_seed(s) for s in seeds]`` without re-validation.

    ``with_seed`` re-runs ``__post_init__`` — three ``_json_safe`` round
    trips per clone — but the template already passed it and ``seed``
    participates in no validation, so a large group can clone fields
    directly (~10x cheaper, which matters when ``run_many`` is the thing
    being benchmarked against per-spec execution).
    """
    shared = [
        (name, getattr(spec, name)) for name in _SPEC_FIELD_NAMES if name != "seed"
    ]
    new = object.__new__
    set_ = object.__setattr__
    out: List[RunSpec] = []
    for seed in seeds:
        clone = new(RunSpec)
        for name, value in shared:
            set_(clone, name, value)
        set_(clone, "seed", seed)
        out.append(clone)
    return out


def _scheduler_seed(spec: RunSpec) -> Optional[int]:
    """The seed the spec's RandomScheduler would be constructed with,
    or ``None`` when the spec does not drive a stock RandomScheduler."""
    scheduler = spec.build_scheduler()
    if type(scheduler) is not RandomScheduler:
        return None
    return scheduler.seed


def _group_scheduler_seeds(
    spec: RunSpec, group: Sequence[RunSpec]
) -> Optional[List[int]]:
    """Per-run RNG stream seeds for a same-shape group, or ``None``.

    Seed injection (:meth:`RunSpec._params_with_seed`) makes a stock
    scheduler's seed either the spec seed (factory accepts ``seed`` and
    the params don't pin it) or a group-wide constant, so one probe
    construction classifies the whole group; a probe that contradicts
    the injection rule (an exotic factory) falls back to constructing
    every scheduler.  Any seed :class:`MTStreams` can't express rejects
    the group.
    """
    factory = SCHEDULERS.get(spec.scheduler)
    probe = group[0].build_scheduler()
    if type(probe) is not RandomScheduler:
        return None
    injected = "seed" not in spec.scheduler_params and _accepts_param(factory, "seed")
    if injected and probe.seed == group[0].seed:
        seeds: List[Any] = [s.seed for s in group]
    elif not injected:
        seeds = [probe.seed] * len(group)
    else:
        seeds = [_scheduler_seed(s) for s in group]
    for seed in seeds:
        if not isinstance(seed, int) or not 0 <= seed < MAX_STREAM_SEED:
            return None
    return seeds


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
    ``None`` when it can.  ``stop_at_termination`` never blocks
    vectorization: the kernels latch and stop per run."""
    if spec.faults is not None:
        return "faults"
    if spec.trace is not None or spec.record_trace:
        return "trace"
    if spec.track_state_bits:
        return "state_bits"
    return None


def _vectorizable_shape(spec: RunSpec) -> bool:
    """Whether the spec *shape* (seed aside) can run on a batch kernel."""
    return _shape_fallback_reason(spec) is None


def _records_from_outcome(
    specs: Sequence[RunSpec],
    network: Any,
    outcome: Any,
    elapsed: float,
) -> List[RunRecord]:
    """Materialise per-run :class:`RunRecord`\\ s from kernel arrays,
    freezing metrics exactly as the fastpath engine would.

    The metric dicts are written literally, in
    :class:`~repro.network.metrics.RunMetrics` field order — the same
    shape ``asdict(RunMetrics(...))`` yields, without K dataclass
    round-trips (the differential suite pins the equivalence).
    """
    records: List[RunRecord] = []
    per_run = elapsed / max(1, len(specs))
    steps = outcome.steps.tolist()
    exhausted = outcome.exhausted.tolist()
    total_messages = outcome.total_messages.tolist()
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
        # Budget exhaustion wins even over a latched termination: the
        # fastpath driver declares BUDGET_EXHAUSTED at the top of the
        # loop whenever in-flight messages outlive the budget, however
        # the run latched earlier — but keeps the latched
        # ``termination_step`` and at-termination metrics in either case.
        if exhausted[i]:
            run_outcome = _EXHAUSTED
        elif tstep >= 0:
            run_outcome = _TERMINATED
        else:
            run_outcome = _QUIESCENT
        metrics = {
            "total_messages": total_messages[i],
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
    stock :class:`RandomScheduler`, a protocol with a batch kernel, plain
    single-word seeds, no faults or tracing — and executed one spec at a
    time through :func:`~repro.api.spec.execute_spec` (the engine's
    fastpath ``run_one``) otherwise.

    ``fallbacks``, when given, is a mutable counter dict the function
    increments once per spec that takes the per-seed fallback, keyed by
    reason: ``faults`` / ``trace`` / ``state_bits`` (shape can't
    vectorize), ``seed_range`` (seed not a plain word), ``small_group``
    (nothing to batch with after topology subdivision), ``scheduler``
    (not a stock :class:`RandomScheduler`), ``no_kernel`` (protocol
    without a batch kernel).
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
    else:
        eligible = [
            i
            for i, s in enumerate(specs)
            if isinstance(s.seed, int) and 0 <= s.seed < MAX_STREAM_SEED
        ]
        fell_back("seed_range", len(specs) - len(eligible))
        if len(eligible) < 2:
            fell_back("small_group", len(eligible))
        else:
            ensure_registered()
            # The run seed reaches the topology only through injection
            # into the graph factory; when that path is closed (seed
            # pinned in graph_params, or the factory takes none) every
            # run shares one topology and the K topology-key hashes are
            # skipped wholesale.
            seed_shapes_topology = "seed" not in spec.graph_params and _accepts_param(
                GRAPHS.get(spec.graph), "seed"
            )
            if seed_shapes_topology:
                by_topology: Dict[Any, List[int]] = {}
                for i in eligible:
                    by_topology.setdefault(topology_key(specs[i]), []).append(i)
                # Singleton groups fall through: per-run fastpath is
                # strictly cheaper than a K=1 kernel set-up.
                groups = [g for g in by_topology.values() if len(g) >= 2]
                fell_back(
                    "small_group",
                    sum(len(g) for g in by_topology.values() if len(g) < 2),
                )
            else:
                groups = [eligible]

    for indices in groups:
        group = [specs[i] for i in indices]
        rep = group[0]
        scheduler_seeds = _group_scheduler_seeds(spec, group)
        if scheduler_seeds is None:
            # Not a stock RandomScheduler: fastpath fallback below.
            fell_back("scheduler", len(group))
            continue
        network = cached_network(rep)
        compiled = compiled_topology(rep, network)
        kernel = _group_kernel(rep, compiled)
        if kernel is None:
            # No batch kernel for this protocol (or a topology the
            # kernel can't express exactly): fallback below.
            fell_back("no_kernel", len(group))
            continue
        max_steps = rep.max_steps
        if max_steps is None:
            max_steps = default_step_budget(network)
        start = time.perf_counter()
        streams = MTStreams(scheduler_seeds)
        outcome = kernel.run(
            streams, max_steps, stop_at_termination=rep.stop_at_termination
        )
        elapsed = time.perf_counter() - start
        for i, record in zip(indices, _records_from_outcome(group, network, outcome, elapsed)):
            records[i] = record

    for i, s in enumerate(specs):
        if records[i] is None:
            records[i] = execute_spec(s)
    return records  # type: ignore[return-value]
