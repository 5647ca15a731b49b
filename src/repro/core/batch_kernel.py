"""Structure-of-arrays protocol kernels for the ``batch`` engine.

A *batch kernel* is the multi-run analogue of a
:mod:`~repro.core.flat_kernel` machine: where a flat kernel holds the
state of one run as Python int arrays, a batch kernel holds the state of
``K`` simultaneous runs of the *same compiled topology* as one numpy
tensor per field, and advances all ``K`` runs with array operations — one
delivery per active run per "super-step", chosen by ``K`` vectorized
per-run RNG streams (:class:`~repro.network.batchpath.MTStreams`) that
reproduce each run's :class:`~repro.network.scheduler.RandomScheduler`
choices bit for bit.

Protocols opt in by implementing
:meth:`~repro.core.model.AnonymousProtocol.compile_batch` and returning
an object with this interface:

``run(streams, max_steps, capture=None, stop_at_termination=False) -> BatchRunOutcome``
    Execute one run per RNG stream under the random-scheduler delivery
    order, each with delivery budget ``max_steps``, and return the
    per-run metric arrays.  ``capture``, when given, is a list of ``K``
    lists the kernel appends each run's delivered edge ids to — the
    differential tests use it to hold the vectorized delivery order to
    the fastpath trace, delivery for delivery.

The contract mirrors the fastpath kernels' exactness bar: a batch kernel
must be *result-equivalent* to running the same specs one at a time on
the fastpath engine — same outcome, same step counts, same metric values
per (spec, seed).

The shared machinery (compiled-topology tables, the padded
``(k, capacity)`` swap-remove queue planes, the rectangular and ragged
frontier scatters, the drain assertion) lives in :class:`BatchFlatKernel`;
three kernels build on it:

* :class:`BatchFloodingKernel` — flooding state is one receipt bit per
  (run, vertex) and every message costs the same constant bits, so the
  whole run is queue bookkeeping.
* :class:`BatchSplitKernel` — the token-splitting broadcasts
  (``tree-broadcast``, ``eager-dag-broadcast``, ``naive-tree-broadcast``).
  Their per-delivery emissions depend only on the delivered token, never
  on accumulated vertex state, so the run's *message multiset* is
  order-independent and is enumerated exactly once at compile time by
  driving the protocol's scalar flat kernel; the SoA loop then moves
  small int message ids while the exact dyadic/rational arithmetic
  (which can exceed 64 bits) stays at compile time in Python ints.
* :class:`BatchDagKernel` — the aggregate-then-split DAG rule
  (``dag-broadcast``).  A vertex fires once, when its last in-edge
  message arrives, so each edge carries at most one message whose exact
  value is structural; the SoA loop keeps per-run heard counters and
  fires out-edge blocks at the join.

Shapes a kernel cannot express exactly (root-reachable cycles that make
the message multiset infinite, eager path-multiplicity past the
enumeration cap, re-fired edges on cyclic graphs) make ``compile_batch``
return ``None`` and the group falls back to per-spec fastpath execution
inside ``run_many`` — the engine is correct for every protocol,
vectorized for the ones that opted in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "BatchRunOutcome",
    "BatchFlatKernel",
    "BatchFloodingKernel",
    "BatchSplitKernel",
    "BatchDagKernel",
]

#: Compile-time enumeration cap of :class:`BatchSplitKernel`: the largest
#: order-independent message multiset a split kernel will materialise.
#: Root-reachable cycles (an infinite multiset) and eager-DAG path
#: explosions past this bound return ``None`` from ``compile_batch`` and
#: take the per-spec fastpath fallback instead.
ENUM_CAP = 1 << 15


@dataclass(frozen=True)
class BatchRunOutcome:
    """Per-run metric arrays from one batch-kernel execution (length ``K``).

    ``termination_step`` uses ``-1`` for "never terminated" (flooding
    always reports ``-1``); ``exhausted`` marks runs stopped by the step
    budget with messages still in flight.  ``messages_at_termination`` /
    ``bits_at_termination`` carry the latched values for runs whose
    termination predicate fired and the run totals otherwise, matching
    :func:`~repro.network.fastpath._materialise_result` — note a run can be
    both exhausted *and* carry a termination step (budget bound after the
    latch), exactly as on the fastpath engine.
    """

    steps: np.ndarray
    exhausted: np.ndarray
    total_messages: np.ndarray
    total_bits: np.ndarray
    max_message_bits: np.ndarray
    max_edge_messages: np.ndarray
    max_edge_bits: np.ndarray
    termination_step: np.ndarray
    messages_at_termination: np.ndarray
    bits_at_termination: np.ndarray


class BatchFlatKernel:
    """Compiled-topology tables and queue-plane machinery shared by the
    batch kernels.

    Every kernel simulates ``K`` :class:`RandomScheduler` queues as one
    ``(K, capacity)`` int plane: appends go at the end (mirroring the
    scheduler's push order), removal is the scheduler's swap-pop, and the
    slot to pop is chosen by the vectorized per-run RNG streams.  The
    base owns the per-vertex CSR out-edge layout, the degree-padded
    rectangular scatter used by the dense loops, the ragged CSR scatter
    used by the general loops, and the drain assertion that pins the
    queue simulation to the precomputed structure.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "root",
        "terminal",
        "edge_head",
        "edge_tail",
        "out_degree",
        "out_start",
        "out_flat",
        "max_degree",
        "arange_pad",
    )

    def __init__(self, compiled: Any) -> None:
        self.num_vertices = compiled.num_vertices
        self.num_edges = compiled.num_edges
        self.root = compiled.root
        self.terminal = compiled.terminal
        self.edge_head = np.asarray(compiled.edge_head, dtype=np.int64)
        self.edge_tail = np.asarray(compiled.edge_tail, dtype=np.int64)
        out_degree = np.asarray(
            [len(eids) for eids in compiled.out_edge_ids], dtype=np.int64
        )
        self.out_degree = out_degree
        starts = np.zeros(self.num_vertices, dtype=np.int64)
        np.cumsum(out_degree[:-1], out=starts[1:])
        self.out_start = starts
        self.out_flat = np.asarray(
            [eid for eids in compiled.out_edge_ids for eid in eids] or [0],
            dtype=np.int64,
        )
        self.max_degree = int(out_degree.max()) if self.num_vertices else 0
        self.arange_pad = np.arange(self.max_degree, dtype=np.int64)

    # -- queue-plane helpers ------------------------------------------------

    @staticmethod
    def _scatter_pad(
        q_flat: np.ndarray,
        row_cap: np.ndarray,
        rows: np.ndarray,
        qlen: np.ndarray,
        counts: np.ndarray,
        src_pad: np.ndarray,
        arange_pad: np.ndarray,
    ) -> None:
        """Append ``counts[i]`` ids from ``src_pad`` row ``i`` onto queue
        row ``rows[i]`` with one rectangular masked scatter (``src_pad``
        is degree-padded to ``arange_pad``'s width); updates ``qlen``."""
        qlen_old = qlen.take(rows)
        mask = (arange_pad < counts[:, None]).reshape(-1)
        dest = ((row_cap.take(rows) + qlen_old)[:, None] + arange_pad).reshape(-1)
        qlen[rows] = qlen_old + counts
        q_flat[dest[mask]] = src_pad.reshape(-1)[mask]

    @staticmethod
    def _push_csr(
        q: np.ndarray,
        qlen: np.ndarray,
        fcols: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        flat_ids: np.ndarray,
    ) -> None:
        """Append the CSR block ``flat_ids[starts[i] : starts[i]+counts[i]]``
        onto queue row ``fcols[i]`` (ragged scatter); updates ``qlen``."""
        total = int(counts.sum())
        if not total:
            return
        rep_cols = np.repeat(fcols, counts)
        ends = np.cumsum(counts)
        ramp = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        src = flat_ids[np.repeat(starts, counts) + ramp]
        dest = np.repeat(qlen[fcols], counts) + ramp
        q[rep_cols, dest] = src
        qlen[fcols] += counts

    @staticmethod
    def _assert_drained(qlen: np.ndarray) -> None:
        if qlen.any():
            raise RuntimeError(
                "batch kernel failed to drain at its structural step "
                "count — queue simulation and topology disagree"
            )


class BatchFloodingKernel(BatchFlatKernel):
    """SoA machine for the no-termination flooding baseline.

    Per-run state across ``K`` runs: a ``(K, capacity)`` in-flight queue
    mirroring the :class:`RandomScheduler`'s append order (the dense
    path queues head vertices, the general path edge ids), a ``(K, |V|)``
    receipt-bit matrix and — in the general path — a ``(K, |E|)``
    per-edge delivery count.  Every super-step delivers exactly one
    message in each still-active run: a vectorized ``randrange(len)``
    per run picks the queue slot, the swap-pop mirrors the scheduler's,
    and the fresh receivers' out-edges are appended with one padded
    rectangular scatter (dense) or ragged CSR scatter (general).

    ``capacity`` is the exact worst case: every message ever pushed is
    the root burst plus one burst per first receipt, so the in-flight
    count never exceeds ``outdeg(root) + |E|``.
    """

    __slots__ = (
        "message_bits",
        "root_edge_bonus",
        "head_pad",
        "capacity",
        "reached",
        "drain_steps",
        "max_edge_count",
    )

    def __init__(self, protocol: Any, compiled: Any) -> None:
        super().__init__(compiled)
        self.message_bits = 1 + protocol.payload_bits
        # The root's initial burst pushes each of its out-edges once
        # before any receipt; every later push of edge e comes from a
        # first receipt at tail(e).
        self.root_edge_bonus = (self.edge_tail == self.root).astype(np.int64)
        out_degree = self.out_degree
        # Degree-padded out-neighbour matrix: the dense loop appends a
        # burst with one rectangular masked scatter instead of ragged CSR
        # math.  It stores head *vertices*, not edge ids: the dense loop
        # never needs the edge identity (per-edge counts are analytic),
        # so queueing heads directly saves an ``edge_head`` gather per
        # super-step.
        head_pad = np.zeros((self.num_vertices, self.max_degree), dtype=np.int64)
        for vertex, eids in enumerate(compiled.out_edge_ids):
            head_pad[vertex, : len(eids)] = self.edge_head[list(eids)]
        self.head_pad = head_pad
        self.capacity = max(1, self.num_edges + int(out_degree[self.root]))
        # Under a full budget, flooding's observables are structural:
        # every pushed message is delivered, the set of vertices that
        # ever receive one is the set reachable from the root by >= 1
        # edge (order-independent), and with it the drain step — the
        # root burst plus one burst per reached vertex — and every
        # per-edge delivery count.  Precomputing them here is what lets
        # :meth:`_run_dense` drop all per-step accounting.
        reached = np.zeros(self.num_vertices, dtype=bool)
        if self.num_vertices:
            heads = [
                [int(self.edge_head[eid]) for eid in eids]
                for eids in compiled.out_edge_ids
            ]
            stack = []
            for head in heads[self.root]:
                if not reached[head]:
                    reached[head] = True
                    stack.append(head)
            while stack:
                for head in heads[stack.pop()]:
                    if not reached[head]:
                        reached[head] = True
                        stack.append(head)
        self.reached = reached
        self.drain_steps = int(out_degree[self.root]) + int(
            out_degree[reached].sum()
        )
        if self.num_edges:
            per_edge = reached[self.edge_tail].astype(np.int64) + self.root_edge_bonus
            self.max_edge_count = int(per_edge.max())
        else:
            self.max_edge_count = 0

    def run(
        self,
        streams: Any,
        max_steps: int,
        capture: Optional[List[List[int]]] = None,
        stop_at_termination: bool = False,
    ) -> BatchRunOutcome:
        # Total pops never exceed `capacity` pushes, so when the budget is
        # at least that large it cannot bind and all per-step accounting
        # can move out of the hot loop (the common case: the default
        # budget is 64 + 16|E|(|V|+2) >> 2|E|).  Capture requests take the
        # general loop too — they need the per-pop edge ids.
        # ``stop_at_termination`` is accepted for interface uniformity;
        # flooding's terminal predicate is constant-false, so the flag can
        # never bind and both loops ignore it.
        if max_steps >= self.capacity and capture is None:
            return self._run_dense(streams)
        return self._run_general(streams, max_steps, capture)

    def _run_dense(self, streams: Any) -> BatchRunOutcome:
        """Hot path: every run gets the full budget, no capture.

        With a full budget every flooding observable is structural
        (precomputed in ``__init__``): every run drains at exactly
        ``drain_steps`` regardless of delivery order, and receives on
        exactly the reachable set.  The loop therefore carries *no*
        accounting at all — its job is to advance the ``K`` queues and
        RNG streams exactly as the per-run schedulers would (each pop
        feeds the next ``randrange`` its queue length, so the simulation
        itself cannot be skipped), which is what keeps the streams'
        word consumption and the general path's delivery order honest.
        The terminal drain assertion would catch any divergence between
        the simulated queues and the precomputed structure.  Note this
        consumes ``streams``.
        """
        k = streams.k
        cap = self.capacity
        num_vertices = self.num_vertices
        q = np.zeros((k, cap), dtype=np.int64)
        q_flat = q.reshape(-1)
        qlen = np.zeros(k, dtype=np.int64)
        notgot_flat = np.ones(k * num_vertices, dtype=bool)

        root_degree = int(self.out_degree[self.root])
        if root_degree:
            start = self.out_start[self.root]
            root_edges = self.out_flat[start : start + root_degree]
            q[:, :root_degree] = self.edge_head[root_edges]
            qlen[:] = root_degree

        out_degree = self.out_degree
        head_pad = self.head_pad
        arange_pad = self.arange_pad
        row_cap = np.arange(k, dtype=np.int64) * cap
        row_v = np.arange(k, dtype=np.int64) * num_vertices

        # Loop-carried scratch: every per-step array is (k,)-shaped, so
        # the hot loop reuses these instead of allocating ~6 arrays per
        # super-step.
        addr = np.empty(k, dtype=np.int64)
        head = np.empty(k, dtype=np.int64)
        tail_src = np.empty(k, dtype=np.int64)
        got_addr = np.empty(k, dtype=np.int64)
        fresh = np.empty(k, dtype=bool)

        # Receipts still to come across all runs.  Once zero, no pop can
        # be fresh, so nothing ever reads a popped value again — the
        # queue contents are inert and only the length sequence matters
        # (it feeds each randrange its argument), so the tail loop below
        # drops the pop/swap bookkeeping entirely.
        remaining = k * int(self.reached.sum())
        step = 0
        while step < self.drain_steps and remaining:
            step += 1
            idx = streams.randbelow_dense(qlen)
            np.add(row_cap, idx, out=addr)
            q_flat.take(addr, out=head)  # queue holds head vertices
            qlen -= 1
            np.add(row_cap, qlen, out=got_addr)  # reused as a temp
            q_flat.take(got_addr, out=tail_src)
            q_flat[addr] = tail_src
            np.add(row_v, head, out=got_addr)
            notgot_flat.take(got_addr, out=fresh)
            frows = np.nonzero(fresh)[0]
            if frows.size:
                remaining -= frows.size
                fheads = head.take(frows)
                notgot_flat[got_addr.take(frows)] = False
                self._scatter_pad(
                    q_flat,
                    row_cap,
                    frows,
                    qlen,
                    out_degree.take(fheads),
                    head_pad[fheads],
                    arange_pad,
                )
        while step < self.drain_steps:
            step += 1
            streams.randbelow_dense(qlen)
            qlen -= 1

        self._assert_drained(qlen)

        bits = self.message_bits
        steps = np.full(k, self.drain_steps, dtype=np.int64)
        total_bits = steps * bits
        max_edge_messages = np.full(k, self.max_edge_count, dtype=np.int64)
        return BatchRunOutcome(
            steps=steps,
            exhausted=np.zeros(k, dtype=bool),
            total_messages=steps,
            total_bits=total_bits,
            max_message_bits=np.where(steps > 0, bits, 0),
            max_edge_messages=max_edge_messages,
            max_edge_bits=max_edge_messages * bits,
            termination_step=np.full(k, -1, dtype=np.int64),
            messages_at_termination=steps,
            bits_at_termination=total_bits,
        )

    def _run_general(
        self,
        streams: Any,
        max_steps: int,
        capture: Optional[List[List[int]]],
    ) -> BatchRunOutcome:
        """Per-pop accounting loop: binding budgets and capture requests.

        Draws RNG words in exactly the same order as :meth:`_run_dense`
        (one ``randbelow`` per active run per super-step), so the two
        loops make identical scheduler choices for identical streams.
        """
        k = streams.k
        q = np.zeros((k, self.capacity), dtype=np.int64)
        qlen = np.zeros(k, dtype=np.int64)
        steps = np.zeros(k, dtype=np.int64)
        got = np.zeros((k, self.num_vertices), dtype=bool)
        edge_messages = np.zeros((k, max(1, self.num_edges)), dtype=np.int64)

        root_degree = int(self.out_degree[self.root])
        if root_degree:
            start = self.out_start[self.root]
            q[:, :root_degree] = self.out_flat[start : start + root_degree]
            qlen[:] = root_degree

        edge_head = self.edge_head
        out_degree = self.out_degree
        out_start = self.out_start
        out_flat = self.out_flat

        while True:
            cols = np.nonzero((qlen > 0) & (steps < max_steps))[0]
            if cols.size == 0:
                break
            n = qlen[cols]
            idx = streams.randbelow(n, cols)
            last = n - 1
            eid = q[cols, idx]
            q[cols, idx] = q[cols, last]
            qlen[cols] = last
            steps[cols] += 1
            edge_messages[cols, eid] += 1
            if capture is not None:
                for col, edge in zip(cols.tolist(), eid.tolist()):
                    capture[col].append(edge)

            head = edge_head[eid]
            fresh = ~got[cols, head]
            if fresh.any():
                fcols = cols[fresh]
                fheads = head[fresh]
                got[fcols, fheads] = True
                self._push_csr(
                    q,
                    qlen,
                    fcols,
                    out_start[fheads],
                    out_degree[fheads],
                    out_flat,
                )

        bits = self.message_bits
        total_bits = steps * bits
        max_edge_messages = (
            edge_messages.max(axis=1)
            if self.num_edges
            else np.zeros(k, dtype=np.int64)
        )
        return BatchRunOutcome(
            steps=steps,
            exhausted=qlen > 0,
            total_messages=steps,
            total_bits=total_bits,
            max_message_bits=np.where(steps > 0, bits, 0),
            max_edge_messages=max_edge_messages,
            max_edge_bits=max_edge_messages * bits,
            termination_step=np.full(k, -1, dtype=np.int64),
            messages_at_termination=steps,
            bits_at_termination=total_bits,
        )


class _TerminationLatch:
    """Per-run count-based termination latch shared by the terminating
    kernels.

    Both terminating protocols accumulate *positive* token values at the
    terminal and latch when the accumulated sum first equals exactly 1.
    Because every partial sum is strictly increasing and the structural
    total over the full message multiset is at most 1 (value is conserved
    at every split and a finite multiset admits no second visit), the
    predicate fires **iff** every terminal-arriving message has been
    delivered — so the latch reduces to counting terminal deliveries
    against the structural target, with no per-run big-int arithmetic.
    ``can_terminate`` (the structural total equals 1) is decided at
    compile time by the scalar kernel's own ``check_terminal`` after the
    full enumeration.
    """

    __slots__ = ("ttarget", "tcount", "tstep", "bits_at", "latched")

    def __init__(self, k: int, ttarget: int) -> None:
        self.ttarget = ttarget
        self.tcount = np.zeros(k, dtype=np.int64)
        self.tstep = np.full(k, -1, dtype=np.int64)
        self.bits_at = np.zeros(k, dtype=np.int64)
        self.latched = np.zeros(k, dtype=bool)

    def update_dense(
        self, step: int, is_term: np.ndarray, bits_run: np.ndarray
    ) -> None:
        """Lockstep form: all runs delivered one message at ``step``."""
        self.tcount += is_term
        newly = np.nonzero((self.tcount == self.ttarget) & ~self.latched)[0]
        if newly.size:
            self.latched[newly] = True
            self.tstep[newly] = step
            self.bits_at[newly] = bits_run[newly]

    def update_general(
        self,
        cols: np.ndarray,
        is_term: np.ndarray,
        steps: np.ndarray,
        bits_run: np.ndarray,
    ) -> None:
        """Active-columns form: runs in ``cols`` delivered one message."""
        self.tcount[cols] += is_term
        newly = (self.tcount[cols] == self.ttarget) & ~self.latched[cols]
        if newly.any():
            ncols = cols[newly]
            self.latched[ncols] = True
            self.tstep[ncols] = steps[ncols]
            self.bits_at[ncols] = bits_run[ncols]


class BatchSplitKernel(BatchFlatKernel):
    """SoA machine for the token-splitting broadcast protocols
    (``tree-broadcast``, ``eager-dag-broadcast``, ``naive-tree-broadcast``).

    These protocols split every delivered token across the receiver's
    out-ports *unconditionally*: the emissions of a delivery depend only
    on the delivered token and the receiving vertex, never on accumulated
    state.  The run's message multiset is therefore order-independent,
    and :meth:`build` enumerates it exactly once at compile time by
    driving the protocol's scalar flat kernel with a FIFO worklist — the
    exact dyadic / rational token arithmetic (arbitrary-precision Python
    ints) happens there, and the SoA loops only ever move small int
    *message ids* whose edge, bit cost and children are table lookups.

    The in-flight queues mirror the scalar scheduler id for id: initial
    messages are ids ``0..n_init-1`` in root port order, and delivering
    id ``m`` appends ``children[m]`` (that delivery's emissions, in port
    order), so position-for-position the ``(K, capacity)`` planes hold
    exactly what each run's :class:`RandomScheduler` holds and every
    swap-pop lands on the same message.

    Enumeration returns ``None`` (→ per-spec fastpath fallback) when the
    multiset is infinite (a root-reachable cycle), exceeds
    :data:`ENUM_CAP` (eager path explosion), or the reference protocol
    would raise during its initial emissions.
    """

    __slots__ = (
        "num_messages",
        "num_initial",
        "capacity",
        "msg_edge",
        "msg_bits",
        "msg_terminal",
        "child_start",
        "child_count",
        "child_flat",
        "child_pad",
        "can_terminate",
        "ttarget",
        "total_bits_const",
        "max_message_bits_const",
        "max_edge_messages_const",
        "max_edge_bits_const",
    )

    @classmethod
    def build(cls, protocol: Any, compiled: Any) -> Optional["BatchSplitKernel"]:
        """Enumerate the message multiset; ``None`` when inexpressible."""
        machine = protocol.compile_fastpath(compiled)
        if machine is None:
            return None
        edge_head = compiled.edge_head
        in_port = compiled.in_port
        out_edge_ids = compiled.out_edge_ids
        root = compiled.root
        try:
            initial = list(machine.initial_emissions(root))
        except Exception:
            # The reference raises at run time (e.g. a root without
            # out-edges); the per-spec fallback reproduces that exactly.
            return None
        if not initial:
            return None
        root_ports = out_edge_ids[root]
        msg_edge: List[int] = []
        msg_bits: List[int] = []
        payloads: List[Any] = []
        for out_port, payload, bits in initial:  # port order = push order
            msg_edge.append(root_ports[out_port])
            msg_bits.append(bits)
            payloads.append(payload)
        children: List[List[int]] = []
        cursor = 0
        while cursor < len(msg_edge):
            if len(msg_edge) > ENUM_CAP:
                return None  # cycle or eager explosion: fastpath fallback
            eid = msg_edge[cursor]
            head = edge_head[eid]
            emissions = machine.deliver(head, in_port[eid], payloads[cursor])
            payloads[cursor] = None  # big rationals: free as we go
            ports = out_edge_ids[head]
            kids: List[int] = []
            for out_port, out_payload, out_bits in emissions:
                kids.append(len(msg_edge))
                msg_edge.append(ports[out_port])
                msg_bits.append(out_bits)
                payloads.append(out_payload)
            children.append(kids)
            cursor += 1
        # Every message was delivered exactly once, so the scalar machine
        # now holds the exact end-of-run state of a fully drained run —
        # its own terminal check decides structural terminability.
        can_terminate = bool(machine.check_terminal(compiled.terminal))
        return cls(compiled, msg_edge, msg_bits, children, len(initial), can_terminate)

    def __init__(
        self,
        compiled: Any,
        msg_edge: List[int],
        msg_bits: List[int],
        children: List[List[int]],
        num_initial: int,
        can_terminate: bool,
    ) -> None:
        super().__init__(compiled)
        m = len(msg_edge)
        self.num_messages = m
        self.num_initial = num_initial
        # Total pushes over a full run is exactly the multiset size, so
        # the in-flight count can never exceed it.
        self.capacity = m
        self.msg_edge = np.asarray(msg_edge, dtype=np.int64)
        self.msg_bits = np.asarray(msg_bits, dtype=np.int64)
        self.msg_terminal = (
            self.edge_head[self.msg_edge] == self.terminal
        ).astype(np.int64)
        counts = np.asarray([len(kids) for kids in children], dtype=np.int64)
        self.child_count = counts
        starts = np.zeros(m, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        self.child_start = starts
        self.child_flat = np.asarray(
            [kid for kids in children for kid in kids] or [0], dtype=np.int64
        )
        # Message-indexed padded child matrix for the dense loop's
        # rectangular scatter (a message's children count is its head's
        # out-degree, so the base pad width fits).
        child_pad = np.zeros((m, self.max_degree), dtype=np.int64)
        for mid, kids in enumerate(children):
            child_pad[mid, : len(kids)] = kids
        self.child_pad = child_pad
        self.ttarget = int(self.msg_terminal.sum())
        self.can_terminate = bool(can_terminate) and self.ttarget > 0
        # Full-drain observables are structural: every run delivers the
        # whole multiset, in some order.
        self.total_bits_const = int(self.msg_bits.sum())
        self.max_message_bits_const = int(self.msg_bits.max())
        edge_msgs = np.zeros(max(1, self.num_edges), dtype=np.int64)
        np.add.at(edge_msgs, self.msg_edge, 1)
        edge_bits = np.zeros(max(1, self.num_edges), dtype=np.int64)
        np.add.at(edge_bits, self.msg_edge, self.msg_bits)
        self.max_edge_messages_const = int(edge_msgs.max())
        self.max_edge_bits_const = int(edge_bits.max())

    def run(
        self,
        streams: Any,
        max_steps: int,
        capture: Optional[List[List[int]]] = None,
        stop_at_termination: bool = False,
    ) -> BatchRunOutcome:
        # The dense loop runs all K queues in lockstep for exactly
        # `num_messages` super-steps (every run delivers the whole
        # multiset, so all drain together); it needs the budget to never
        # bind and every run to keep draining past its latch.
        if (
            max_steps >= self.capacity
            and capture is None
            and not (stop_at_termination and self.can_terminate)
        ):
            return self._run_dense(streams)
        return self._run_general(streams, max_steps, capture, stop_at_termination)

    def _run_dense(self, streams: Any) -> BatchRunOutcome:
        """Lockstep full-drain loop: budget slack, no capture, no early stop.

        Everything except the termination latch is structural, so the
        per-step work is the queue simulation itself plus — only for
        terminating shapes — a per-run running bits sum (the latched
        ``bits_at_termination`` is order-dependent) and the terminal
        delivery counter.
        """
        k = streams.k
        cap = self.capacity
        m = self.num_messages
        q = np.zeros((k, cap), dtype=np.int64)
        q_flat = q.reshape(-1)
        qlen = np.zeros(k, dtype=np.int64)
        ninit = self.num_initial
        q[:, :ninit] = np.arange(ninit, dtype=np.int64)
        qlen[:] = ninit

        child_count = self.child_count
        child_pad = self.child_pad
        arange_pad = self.arange_pad
        msg_bits = self.msg_bits
        msg_terminal = self.msg_terminal
        row_cap = np.arange(k, dtype=np.int64) * cap
        rows = np.arange(k, dtype=np.int64)

        can_term = self.can_terminate
        latch = _TerminationLatch(k, self.ttarget) if can_term else None
        bits_run = np.zeros(k, dtype=np.int64)

        addr = np.empty(k, dtype=np.int64)
        mid = np.empty(k, dtype=np.int64)
        swap = np.empty(k, dtype=np.int64)

        for step in range(1, m + 1):
            idx = streams.randbelow_dense(qlen)
            np.add(row_cap, idx, out=addr)
            q_flat.take(addr, out=mid)  # queue holds message ids
            qlen -= 1
            np.add(row_cap, qlen, out=swap)
            q_flat.take(swap, out=swap)
            q_flat[addr] = swap
            self._scatter_pad(
                q_flat,
                row_cap,
                rows,
                qlen,
                child_count.take(mid),
                child_pad[mid],
                arange_pad,
            )
            if latch is not None:
                bits_run += msg_bits.take(mid)
                latch.update_dense(step, msg_terminal.take(mid), bits_run)

        self._assert_drained(qlen)

        steps = np.full(k, m, dtype=np.int64)
        total_bits = np.full(k, self.total_bits_const, dtype=np.int64)
        if latch is not None:
            # A full drain delivers every terminal message, so every run
            # latched; the at-termination metrics are the latched values.
            tstep = latch.tstep
            messages_at = latch.tstep
            bits_at = latch.bits_at
        else:
            tstep = np.full(k, -1, dtype=np.int64)
            messages_at = steps
            bits_at = total_bits
        return BatchRunOutcome(
            steps=steps,
            exhausted=np.zeros(k, dtype=bool),
            total_messages=steps,
            total_bits=total_bits,
            max_message_bits=np.full(k, self.max_message_bits_const, dtype=np.int64),
            max_edge_messages=np.full(
                k, self.max_edge_messages_const, dtype=np.int64
            ),
            max_edge_bits=np.full(k, self.max_edge_bits_const, dtype=np.int64),
            termination_step=tstep,
            messages_at_termination=messages_at,
            bits_at_termination=bits_at,
        )

    def _run_general(
        self,
        streams: Any,
        max_steps: int,
        capture: Optional[List[List[int]]],
        stop_at_termination: bool,
    ) -> BatchRunOutcome:
        """Per-pop accounting loop: binding budgets, capture, early stop.

        Needs the full ``(K, |E|)`` per-edge planes — under a partial
        drain the per-edge message counts and bit sums are order-
        dependent (a split protocol can put many messages on one edge).
        """
        k = streams.k
        q = np.zeros((k, self.capacity), dtype=np.int64)
        qlen = np.zeros(k, dtype=np.int64)
        steps = np.zeros(k, dtype=np.int64)
        ninit = self.num_initial
        q[:, :ninit] = np.arange(ninit, dtype=np.int64)
        qlen[:] = ninit

        total_bits = np.zeros(k, dtype=np.int64)
        max_msg_bits = np.zeros(k, dtype=np.int64)
        edge_msgs = np.zeros((k, max(1, self.num_edges)), dtype=np.int64)
        edge_bits = np.zeros((k, max(1, self.num_edges)), dtype=np.int64)
        latch = _TerminationLatch(k, self.ttarget) if self.can_terminate else None

        msg_edge = self.msg_edge
        msg_bits = self.msg_bits
        msg_terminal = self.msg_terminal
        child_start = self.child_start
        child_count = self.child_count
        child_flat = self.child_flat
        stop = bool(stop_at_termination)

        while True:
            active = (qlen > 0) & (steps < max_steps)
            if stop and latch is not None:
                active &= ~latch.latched
            cols = np.nonzero(active)[0]
            if cols.size == 0:
                break
            n = qlen[cols]
            idx = streams.randbelow(n, cols)
            last = n - 1
            mid = q[cols, idx]
            q[cols, idx] = q[cols, last]
            qlen[cols] = last
            steps[cols] += 1
            eid = msg_edge[mid]
            bits = msg_bits[mid]
            edge_msgs[cols, eid] += 1
            edge_bits[cols, eid] += bits
            total_bits[cols] += bits
            max_msg_bits[cols] = np.maximum(max_msg_bits[cols], bits)
            if capture is not None:
                for col, edge in zip(cols.tolist(), eid.tolist()):
                    capture[col].append(edge)
            self._push_csr(
                q, qlen, cols, child_start[mid], child_count[mid], child_flat
            )
            if latch is not None:
                latch.update_general(cols, msg_terminal[mid], steps, total_bits)

        exhausted = qlen > 0
        if latch is not None:
            if stop:
                # A run that latched broke out of its loop at the latch,
                # before any budget check could declare it exhausted.
                exhausted &= ~latch.latched
            tstep = latch.tstep
            not_latched = ~latch.latched
            messages_at = np.where(not_latched, steps, latch.tstep)
            bits_at = np.where(not_latched, total_bits, latch.bits_at)
        else:
            tstep = np.full(k, -1, dtype=np.int64)
            messages_at = steps
            bits_at = total_bits
        return BatchRunOutcome(
            steps=steps,
            exhausted=exhausted,
            total_messages=steps,
            total_bits=total_bits,
            max_message_bits=max_msg_bits,
            max_edge_messages=edge_msgs.max(axis=1),
            max_edge_bits=edge_bits.max(axis=1),
            termination_step=tstep,
            messages_at_termination=messages_at,
            bits_at_termination=bits_at,
        )


class BatchDagKernel(BatchFlatKernel):
    """SoA machine for the aggregate-then-split DAG rule (``dag-broadcast``).

    A vertex accumulates until its *last* in-edge message arrives, then
    fires once, splitting the accumulated sum across its out-edges — so
    each edge carries at most one message, that message's exact value and
    bit cost are structural (the in-flow of a vertex is order-independent),
    and the only per-run protocol state the SoA loop needs is a
    ``(K, |V|)`` heard-counter plane: delivering edge ``e`` increments
    ``heard[head(e)]``, and the head's out-edge block is pushed exactly
    when the counter hits the structural join target.

    :meth:`build` drives the scalar flat kernel over a worklist once to
    find which edges carry messages, their exact costs, and which
    vertices fire; it returns ``None`` when any edge would carry two
    messages (a cyclic graph feeding the root back — the one shape whose
    queue dynamics the one-message-per-edge layout cannot express).
    """

    __slots__ = (
        "num_messages",
        "capacity",
        "init_edges",
        "edge_msg_bits",
        "is_term_edge",
        "fire_need",
        "edge_pad",
        "can_terminate",
        "ttarget",
        "total_bits_const",
        "max_message_bits_const",
    )

    @classmethod
    def build(cls, protocol: Any, compiled: Any) -> Optional["BatchDagKernel"]:
        """Trace the one-shot message per edge; ``None`` when inexpressible."""
        machine = protocol.compile_fastpath(compiled)
        if machine is None:
            return None
        edge_head = compiled.edge_head
        in_port = compiled.in_port
        out_edge_ids = compiled.out_edge_ids
        root = compiled.root
        try:
            initial = list(machine.initial_emissions(root))
        except Exception:
            return None  # reference raises at run time: fastpath fallback
        if not initial:
            return None
        root_ports = out_edge_ids[root]
        edge_bits: Dict[int, int] = {}
        work: List[Tuple[int, Any]] = []
        for out_port, payload, bits in initial:
            eid = root_ports[out_port]
            if eid in edge_bits:
                return None
            edge_bits[eid] = bits
            work.append((eid, payload))
        fired = [False] * compiled.num_vertices
        cursor = 0
        while cursor < len(work):
            eid, payload = work[cursor]
            cursor += 1
            head = edge_head[eid]
            emissions = machine.deliver(head, in_port[eid], payload)
            if emissions:
                fired[head] = True
                ports = out_edge_ids[head]
                for out_port, out_payload, out_bits in emissions:
                    oeid = ports[out_port]
                    if oeid in edge_bits:
                        # A second message on one edge — the root heard
                        # all its in-edges on a cyclic graph and re-fired.
                        return None
                    edge_bits[oeid] = out_bits
                    work.append((oeid, out_payload))
        can_terminate = bool(machine.check_terminal(compiled.terminal))
        init_edges = [root_ports[out_port] for out_port, _, _ in initial]
        in_degree = [view.in_degree for view in compiled.views]
        return cls(compiled, edge_bits, fired, in_degree, init_edges, can_terminate)

    def __init__(
        self,
        compiled: Any,
        edge_bits: Dict[int, int],
        fired: List[bool],
        in_degree: List[int],
        init_edges: List[int],
        can_terminate: bool,
    ) -> None:
        super().__init__(compiled)
        m = len(edge_bits)
        self.num_messages = m
        self.capacity = max(1, m)
        self.init_edges = np.asarray(init_edges, dtype=np.int64)
        bits_table = np.zeros(max(1, self.num_edges), dtype=np.int64)
        for eid, bits in edge_bits.items():
            bits_table[eid] = bits
        self.edge_msg_bits = bits_table
        self.is_term_edge = (self.edge_head == self.terminal).astype(np.int64)
        # Join target per vertex: its in-degree where the vertex fires,
        # -1 (unreachable by a counter) everywhere else.  A firing
        # vertex's in-edges all carry exactly one message, so its counter
        # hits the target exactly once per run.
        need = np.asarray(in_degree, dtype=np.int64)
        self.fire_need = np.where(
            np.asarray(fired, dtype=bool), need, np.int64(-1)
        )
        # Vertex-indexed padded out-edge-id matrix: a fire pushes the
        # vertex's whole out-block (port order) in one rectangular scatter.
        edge_pad = np.zeros((self.num_vertices, self.max_degree), dtype=np.int64)
        for vertex, eids in enumerate(compiled.out_edge_ids):
            edge_pad[vertex, : len(eids)] = eids
        self.edge_pad = edge_pad
        carrying = np.zeros(max(1, self.num_edges), dtype=bool)
        for eid in edge_bits:
            carrying[eid] = True
        self.ttarget = int(
            (carrying[: self.num_edges] & (self.edge_head == self.terminal)).sum()
        )
        self.can_terminate = bool(can_terminate) and self.ttarget > 0
        self.total_bits_const = int(bits_table.sum())
        self.max_message_bits_const = int(bits_table.max())

    def run(
        self,
        streams: Any,
        max_steps: int,
        capture: Optional[List[List[int]]] = None,
        stop_at_termination: bool = False,
    ) -> BatchRunOutcome:
        if (
            max_steps >= self.capacity
            and capture is None
            and not (stop_at_termination and self.can_terminate)
        ):
            return self._run_dense(streams)
        return self._run_general(streams, max_steps, capture, stop_at_termination)

    def _run_dense(self, streams: Any) -> BatchRunOutcome:
        """Lockstep full-drain loop (see :meth:`BatchSplitKernel._run_dense`):
        every run delivers every carrying edge exactly once, so all K runs
        drain together at the structural step count."""
        k = streams.k
        cap = self.capacity
        m = self.num_messages
        num_vertices = self.num_vertices
        q = np.zeros((k, cap), dtype=np.int64)
        q_flat = q.reshape(-1)
        qlen = np.zeros(k, dtype=np.int64)
        heard_flat = np.zeros(k * num_vertices, dtype=np.int64)

        ninit = self.init_edges.size
        q[:, :ninit] = self.init_edges
        qlen[:] = ninit

        edge_head = self.edge_head
        out_degree = self.out_degree
        fire_need = self.fire_need
        edge_pad = self.edge_pad
        arange_pad = self.arange_pad
        edge_msg_bits = self.edge_msg_bits
        is_term_edge = self.is_term_edge
        row_cap = np.arange(k, dtype=np.int64) * cap
        row_v = np.arange(k, dtype=np.int64) * num_vertices

        can_term = self.can_terminate
        latch = _TerminationLatch(k, self.ttarget) if can_term else None
        bits_run = np.zeros(k, dtype=np.int64)

        addr = np.empty(k, dtype=np.int64)
        eid = np.empty(k, dtype=np.int64)
        swap = np.empty(k, dtype=np.int64)
        head = np.empty(k, dtype=np.int64)
        vaddr = np.empty(k, dtype=np.int64)

        for step in range(1, m + 1):
            idx = streams.randbelow_dense(qlen)
            np.add(row_cap, idx, out=addr)
            q_flat.take(addr, out=eid)  # queue holds edge ids
            qlen -= 1
            np.add(row_cap, qlen, out=swap)
            q_flat.take(swap, out=swap)
            q_flat[addr] = swap
            edge_head.take(eid, out=head)
            np.add(row_v, head, out=vaddr)
            heard_flat[vaddr] += 1
            fire = heard_flat.take(vaddr) == fire_need.take(head)
            frows = np.nonzero(fire)[0]
            if frows.size:
                fheads = head.take(frows)
                self._scatter_pad(
                    q_flat,
                    row_cap,
                    frows,
                    qlen,
                    out_degree.take(fheads),
                    edge_pad[fheads],
                    arange_pad,
                )
            if latch is not None:
                bits_run += edge_msg_bits.take(eid)
                latch.update_dense(step, is_term_edge.take(eid), bits_run)

        self._assert_drained(qlen)

        steps = np.full(k, m, dtype=np.int64)
        total_bits = np.full(k, self.total_bits_const, dtype=np.int64)
        if latch is not None:
            tstep = latch.tstep
            messages_at = latch.tstep
            bits_at = latch.bits_at
        else:
            tstep = np.full(k, -1, dtype=np.int64)
            messages_at = steps
            bits_at = total_bits
        has_steps = np.int64(1) if m > 0 else np.int64(0)
        return BatchRunOutcome(
            steps=steps,
            exhausted=np.zeros(k, dtype=bool),
            total_messages=steps,
            total_bits=total_bits,
            max_message_bits=np.full(k, self.max_message_bits_const, dtype=np.int64),
            # Each carrying edge delivers exactly once per full drain.
            max_edge_messages=np.full(k, has_steps, dtype=np.int64),
            max_edge_bits=np.full(k, self.max_message_bits_const, dtype=np.int64),
            termination_step=tstep,
            messages_at_termination=messages_at,
            bits_at_termination=bits_at,
        )

    def _run_general(
        self,
        streams: Any,
        max_steps: int,
        capture: Optional[List[List[int]]],
        stop_at_termination: bool,
    ) -> BatchRunOutcome:
        """Per-pop accounting loop: binding budgets, capture, early stop.

        One message per edge keeps even the partial-drain accounting
        plane-free: a run's ``max_edge_messages`` is 1 as soon as it
        delivered anything, and its ``max_edge_bits`` is the max bit cost
        over delivered messages — the same running max as
        ``max_message_bits``.
        """
        k = streams.k
        q = np.zeros((k, self.capacity), dtype=np.int64)
        qlen = np.zeros(k, dtype=np.int64)
        steps = np.zeros(k, dtype=np.int64)
        heard = np.zeros((k, self.num_vertices), dtype=np.int64)

        ninit = self.init_edges.size
        q[:, :ninit] = self.init_edges
        qlen[:] = ninit

        total_bits = np.zeros(k, dtype=np.int64)
        max_msg_bits = np.zeros(k, dtype=np.int64)
        latch = _TerminationLatch(k, self.ttarget) if self.can_terminate else None

        edge_head = self.edge_head
        out_degree = self.out_degree
        out_start = self.out_start
        out_flat = self.out_flat
        fire_need = self.fire_need
        edge_msg_bits = self.edge_msg_bits
        is_term_edge = self.is_term_edge
        stop = bool(stop_at_termination)

        while True:
            active = (qlen > 0) & (steps < max_steps)
            if stop and latch is not None:
                active &= ~latch.latched
            cols = np.nonzero(active)[0]
            if cols.size == 0:
                break
            n = qlen[cols]
            idx = streams.randbelow(n, cols)
            last = n - 1
            eid = q[cols, idx]
            q[cols, idx] = q[cols, last]
            qlen[cols] = last
            steps[cols] += 1
            bits = edge_msg_bits[eid]
            total_bits[cols] += bits
            max_msg_bits[cols] = np.maximum(max_msg_bits[cols], bits)
            if capture is not None:
                for col, edge in zip(cols.tolist(), eid.tolist()):
                    capture[col].append(edge)

            head = edge_head[eid]
            heard[cols, head] += 1
            fire = heard[cols, head] == fire_need[head]
            if fire.any():
                fcols = cols[fire]
                fheads = head[fire]
                self._push_csr(
                    q,
                    qlen,
                    fcols,
                    out_start[fheads],
                    out_degree[fheads],
                    out_flat,
                )
            if latch is not None:
                latch.update_general(cols, is_term_edge[eid], steps, total_bits)

        exhausted = qlen > 0
        if latch is not None:
            if stop:
                exhausted &= ~latch.latched
            tstep = latch.tstep
            not_latched = ~latch.latched
            messages_at = np.where(not_latched, steps, latch.tstep)
            bits_at = np.where(not_latched, total_bits, latch.bits_at)
        else:
            tstep = np.full(k, -1, dtype=np.int64)
            messages_at = steps
            bits_at = total_bits
        return BatchRunOutcome(
            steps=steps,
            exhausted=exhausted,
            total_messages=steps,
            total_bits=total_bits,
            max_message_bits=max_msg_bits,
            max_edge_messages=np.where(steps > 0, 1, 0).astype(np.int64),
            max_edge_bits=max_msg_bits,
            termination_step=tstep,
            messages_at_termination=messages_at,
            bits_at_termination=bits_at,
        )
