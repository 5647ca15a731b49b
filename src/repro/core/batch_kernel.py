"""Structure-of-arrays protocol kernels for the ``batch`` engine.

A *batch kernel* is the multi-run analogue of a
:mod:`~repro.core.flat_kernel` machine: where a flat kernel holds the
state of one run as Python int arrays, a batch kernel holds the state of
``K`` simultaneous runs of the *same compiled topology* as one numpy
tensor per field, and advances all ``K`` runs with array operations — one
delivery per run per "super-step", chosen by ``K`` vectorized per-run RNG
streams (:class:`~repro.network.batchpath.MTStreams`) that reproduce each
run's :class:`~repro.network.scheduler.RandomScheduler` choices bit for
bit.

Protocols opt in by implementing
:meth:`~repro.core.model.AnonymousProtocol.compile_batch` and returning
an object with this interface:

``num_steps``
    The structural step count: every run of the topology delivers
    exactly this many messages, in some order, before it drains.
``can_terminate``
    Whether a full run's termination predicate fires.
``run(streams) -> BatchRunOutcome``
    Drain one run per RNG stream under the random-scheduler delivery
    order — all ``K`` runs in lockstep for ``num_steps`` super-steps —
    and return the per-run metric arrays.

A kernel models full drains only.  A budget below ``num_steps`` would
cut runs short, and ``stop_at_termination`` on a shape that
``can_terminate`` would stop each run at its own latch; the engine
(:func:`~repro.network.batchpath.run_many_batched`) sends both to the
per-spec fastpath fallback instead of asking the kernel.

The contract mirrors the fastpath kernels' exactness bar: a batch kernel
must be *result-equivalent* to running the same specs one at a time on
the fastpath engine — same outcome, same step counts, same metric values
per (spec, seed).

The shared machinery (compiled-topology tables, the padded
``(k, capacity)`` swap-remove queue planes, the rectangular frontier
scatter, the drain assertion) lives in :class:`BatchFlatKernel`; three
kernels build on it:

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

    Every run drained, so ``steps`` is also the run's message count.
    ``termination_step`` uses ``-1`` for "never terminated" (flooding
    always reports ``-1``).  ``messages_at_termination`` /
    ``bits_at_termination`` carry the latched values for runs whose
    termination predicate fired and the run totals otherwise, matching
    :func:`~repro.network.fastpath._materialise_result`.
    """

    steps: np.ndarray
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
    base owns the per-vertex out-degrees, the degree-padded rectangular
    scatter that appends a burst, and the drain assertion that pins the
    queue simulation to the precomputed structure.  Subclasses set
    ``num_steps`` and ``can_terminate`` (see the module docstring).
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "root",
        "terminal",
        "edge_head",
        "edge_tail",
        "out_degree",
        "max_degree",
        "arange_pad",
        "num_steps",
        "can_terminate",
    )

    def __init__(self, compiled: Any) -> None:
        self.num_vertices = compiled.num_vertices
        self.num_edges = compiled.num_edges
        self.root = compiled.root
        self.terminal = compiled.terminal
        self.edge_head = np.asarray(compiled.edge_head, dtype=np.int64)
        self.edge_tail = np.asarray(compiled.edge_tail, dtype=np.int64)
        self.out_degree = out_degree = np.asarray(compiled.out_degree, dtype=np.int64)
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
    def _assert_drained(qlen: np.ndarray) -> None:
        if qlen.any():
            raise RuntimeError(
                "batch kernel failed to drain at its structural step "
                "count — queue simulation and topology disagree"
            )


class BatchFloodingKernel(BatchFlatKernel):
    """SoA machine for the no-termination flooding baseline.

    Per-run state across ``K`` runs: a ``(K, capacity)`` in-flight queue
    of head vertices mirroring the :class:`RandomScheduler`'s append
    order, and a ``(K, |V|)`` receipt bitmap.  Every super-step delivers
    exactly one message in each run: a vectorized ``randrange(len)`` per
    run picks the queue slot, the swap-pop mirrors the scheduler's, and
    the fresh receivers' out-neighbours are appended with one padded
    rectangular scatter.

    ``capacity`` is the exact worst case: every message ever pushed is
    the root burst plus one burst per first receipt, so the in-flight
    count never exceeds ``outdeg(root) + |E|``.
    """

    __slots__ = (
        "message_bits",
        "head_pad",
        "capacity",
        "reached",
        "max_edge_count",
    )

    def __init__(self, protocol: Any, compiled: Any) -> None:
        super().__init__(compiled)
        self.message_bits = 1 + protocol.payload_bits
        self.can_terminate = False  # flooding's terminal predicate is constant-false
        out_degree = self.out_degree
        # Degree-padded out-neighbour matrix: the loop appends a burst
        # with one rectangular masked scatter instead of ragged CSR math.
        # It stores head *vertices*, not edge ids: the loop never needs
        # the edge identity (per-edge counts are analytic), so queueing
        # heads directly saves an ``edge_head`` gather per super-step.
        head_pad = np.zeros((self.num_vertices, self.max_degree), dtype=np.int64)
        for vertex, eids in enumerate(compiled.out_edge_ids):
            head_pad[vertex, : len(eids)] = self.edge_head[list(eids)]
        self.head_pad = head_pad
        self.capacity = max(1, self.num_edges + int(out_degree[self.root]))
        # Flooding's observables are structural: every pushed message is
        # delivered, the set of vertices that ever receive one is the set
        # reachable from the root by >= 1 edge (order-independent), and
        # with it the drain step — the root burst plus one burst per
        # reached vertex — and every per-edge delivery count.
        # Precomputing them here is what lets :meth:`run` drop all
        # per-step accounting.
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
        self.num_steps = int(out_degree[self.root]) + int(
            out_degree[reached].sum()
        )
        if self.num_edges:
            # The root's initial burst pushes each of its out-edges once
            # before any receipt; every later push of edge e comes from a
            # first receipt at tail(e).
            per_edge = reached[self.edge_tail].astype(np.int64) + (
                self.edge_tail == self.root
            )
            self.max_edge_count = int(per_edge.max())
        else:
            self.max_edge_count = 0

    def run(self, streams: Any) -> BatchRunOutcome:
        """Drain every run; see the class docstring.

        Every flooding observable is structural (precomputed in
        ``__init__``): every run drains at exactly ``num_steps``
        regardless of delivery order, and receives on exactly the
        reachable set.  The loop therefore carries *no* accounting at
        all — its job is to advance the ``K`` queues and RNG streams
        exactly as the per-run schedulers would (each pop feeds the next
        ``randrange`` its queue length, so the simulation itself cannot
        be skipped).  The terminal drain assertion would catch any
        divergence between the simulated queues and the precomputed
        structure.  Note this consumes ``streams``.
        """
        k = streams.k
        cap = self.capacity
        num_vertices = self.num_vertices
        num_steps = self.num_steps
        q = np.zeros((k, cap), dtype=np.int64)
        q_flat = q.reshape(-1)
        qlen = np.zeros(k, dtype=np.int64)
        notgot_flat = np.ones(k * num_vertices, dtype=bool)

        out_degree = self.out_degree
        head_pad = self.head_pad
        root_degree = int(out_degree[self.root])
        q[:, :root_degree] = head_pad[self.root, :root_degree]
        qlen[:] = root_degree

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
        while step < num_steps and remaining:
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
        while step < num_steps:
            step += 1
            streams.randbelow_dense(qlen)
            qlen -= 1

        self._assert_drained(qlen)

        bits = self.message_bits
        steps = np.full(k, num_steps, dtype=np.int64)
        total_bits = steps * bits
        max_edge_messages = np.full(k, self.max_edge_count, dtype=np.int64)
        return BatchRunOutcome(
            steps=steps,
            total_bits=total_bits,
            max_message_bits=np.full(k, bits if num_steps else 0, dtype=np.int64),
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

    __slots__ = ("ttarget", "tcount", "tstep", "bits_at")

    def __init__(self, k: int, ttarget: int) -> None:
        self.ttarget = ttarget
        self.tcount = np.zeros(k, dtype=np.int64)
        self.tstep = np.full(k, -1, dtype=np.int64)
        self.bits_at = np.zeros(k, dtype=np.int64)

    def update(self, step: int, is_term: np.ndarray, bits_run: np.ndarray) -> None:
        """All runs delivered one message at ``step``; ``is_term`` is 1
        where that message reached the terminal."""
        self.tcount += is_term
        # Only the terminal delivery that reaches the target latches, so
        # each run latches exactly once.
        newly = np.nonzero(is_term & (self.tcount == self.ttarget))[0]
        if newly.size:
            self.tstep[newly] = step
            self.bits_at[newly] = bits_run[newly]


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
    ints) happens there, and the SoA loop only ever moves small int
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
        "num_initial",
        "msg_bits",
        "msg_terminal",
        "child_count",
        "child_pad",
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
        # Every run delivers the whole multiset, one message per step, and
        # total pushes are exactly the multiset size, so ``num_steps`` is
        # also the queue capacity.
        self.num_steps = m
        self.num_initial = num_initial
        edges = np.asarray(msg_edge, dtype=np.int64)
        self.msg_bits = np.asarray(msg_bits, dtype=np.int64)
        self.msg_terminal = (self.edge_head[edges] == self.terminal).astype(np.int64)
        self.child_count = np.asarray(
            [len(kids) for kids in children], dtype=np.int64
        )
        # Message-indexed padded child matrix for the loop's rectangular
        # scatter (a message's children count is its head's out-degree,
        # so the base pad width fits).
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
        np.add.at(edge_msgs, edges, 1)
        edge_bits = np.zeros(max(1, self.num_edges), dtype=np.int64)
        np.add.at(edge_bits, edges, self.msg_bits)
        self.max_edge_messages_const = int(edge_msgs.max())
        self.max_edge_bits_const = int(edge_bits.max())

    def run(self, streams: Any) -> BatchRunOutcome:
        """Lockstep full drain: all ``K`` queues for ``num_steps`` super-steps.

        Everything except the termination latch is structural, so the
        per-step work is the queue simulation itself plus — only for
        terminating shapes — a per-run running bits sum (the latched
        ``bits_at_termination`` is order-dependent) and the terminal
        delivery counter.
        """
        k = streams.k
        m = self.num_steps
        q = np.zeros((k, m), dtype=np.int64)
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
        row_cap = np.arange(k, dtype=np.int64) * m
        rows = np.arange(k, dtype=np.int64)

        latch = _TerminationLatch(k, self.ttarget) if self.can_terminate else None
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
                latch.update(step, msg_terminal.take(mid), bits_run)

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
        "init_edges",
        "edge_msg_bits",
        "is_term_edge",
        "fire_need",
        "edge_pad",
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
        return cls(compiled, edge_bits, fired, init_edges, can_terminate)

    def __init__(
        self,
        compiled: Any,
        edge_bits: Dict[int, int],
        fired: List[bool],
        init_edges: List[int],
        can_terminate: bool,
    ) -> None:
        super().__init__(compiled)
        # One message per carrying edge, one delivery per step; ``build``
        # guarantees at least one, and total pushes bound the queue, so
        # ``num_steps`` is also the queue capacity.
        self.num_steps = len(edge_bits)
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
        need = np.asarray(compiled.in_degree, dtype=np.int64)
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

    def run(self, streams: Any) -> BatchRunOutcome:
        """Lockstep full drain (see :meth:`BatchSplitKernel.run`): every
        run delivers every carrying edge exactly once, so all K runs drain
        together at the structural step count."""
        k = streams.k
        m = self.num_steps
        num_vertices = self.num_vertices
        q = np.zeros((k, m), dtype=np.int64)
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
        row_cap = np.arange(k, dtype=np.int64) * m
        row_v = np.arange(k, dtype=np.int64) * num_vertices

        latch = _TerminationLatch(k, self.ttarget) if self.can_terminate else None
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
                latch.update(step, is_term_edge.take(eid), bits_run)

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
        return BatchRunOutcome(
            steps=steps,
            total_bits=total_bits,
            max_message_bits=np.full(k, self.max_message_bits_const, dtype=np.int64),
            # Each carrying edge delivers exactly once per full drain.
            max_edge_messages=np.ones(k, dtype=np.int64),
            max_edge_bits=np.full(k, self.max_message_bits_const, dtype=np.int64),
            termination_step=tstep,
            messages_at_termination=messages_at,
            bits_at_termination=bits_at,
        )
