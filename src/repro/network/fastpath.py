"""The compiled fast-path execution engine.

:func:`run_protocol_fastpath` is a drop-in replacement for
:func:`~repro.network.simulator.run_protocol` that produces **identical
results** (outcome, step counts, every metric, states, output, trace) while
running several times faster.  It gets there by doing all per-delivery work
on flat, preprocessed data instead of per-event objects:

* **Compiled topology** — a :class:`CompiledNetwork` preprocessing pass
  flattens the :class:`~repro.network.graph.DirectedNetwork` into plain
  lists: ``edge_head[eid]``, ``in_port[eid]`` (the reference simulator
  recomputes the in-port with an ``O(degree)`` ``.index`` call per
  delivery), CSR-style per-vertex out-edge-id lists and the degree lists.
* **Two delivery loops** — under the stock FIFO (default) and LIFO
  schedulers the scheduler object is bypassed entirely: in-flight
  ``(edge_id, payload, bits)`` tuples live in one
  :class:`collections.deque`, taken from the left (FIFO) or the right
  (LIFO).  Under any other scheduler the adversary keeps full control,
  but events become ``__slots__`` records (:class:`FastEvent`) instead of
  frozen dataclasses.
* **Inlined metrics** — per-delivery accounting updates local integers and
  two flat per-edge arrays; the immutable
  :class:`~repro.network.metrics.RunMetrics` is materialised once at the
  end, as is the :class:`~repro.network.simulator.RunResult`, whose
  per-vertex states the kernel builds only when they are first read.
* **Termination-check elision** — the reference engine evaluates the
  stopping predicate ``S`` on every delivery to the terminal even after
  termination was already recorded; the result of those calls is
  unobservable (``record_termination`` latches the first step), so the
  fast path skips them.
* **Protocol kernels** — a protocol implements
  :meth:`~repro.core.model.AnonymousProtocol.compile_fastpath` and returns
  a :class:`FastpathKernel`-shaped object that replaces the per-vertex
  object states and message payloads with its own flat representation
  (see :mod:`repro.core.interval_kernel` for the Section 4/5 interval
  protocols).  Kernels must be *exactly* result-equivalent, and the
  differential test suite (``tests/api/test_engine_differential.py``)
  holds every protocol × graph × scheduler combination to byte-identical
  records.

Only the kernel runs here.  Whenever a run needs live protocol objects —
tracing, state-bit tracking, a fault model — or the protocol compiles no
kernel, :func:`run_protocol_fastpath` hands the whole run to the
reference loop, :func:`~repro.network.simulator.run_protocol`, with the
same arguments.

The scheduler contract is unchanged: schedulers see the same sequence of
``push``/``pop`` calls as under the reference engine, so seeded adversaries
(random, latency) make identical choices and every ∀-schedule claim carries
over.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .graph import DirectedNetwork
from .metrics import RunMetrics
from .scheduler import FifoScheduler, LifoScheduler, Scheduler
from .simulator import (
    Outcome,
    RunResult,
    SimulationError,
    default_step_budget,
    run_protocol,
)

__all__ = [
    "CompiledNetwork",
    "FastEvent",
    "run_protocol_fastpath",
]


class CompiledNetwork:
    """Flat-array view of a :class:`DirectedNetwork` for the inner loop.

    Construction is one ``O(|V| + |E|)`` pass and done once per topology;
    afterwards every per-delivery topology query is a list index instead of
    a method call (and for :attr:`in_port`, instead of an ``O(degree)``
    search).  The model grants a vertex only its degrees and its port
    numbering, so that is all there is: per vertex its degrees and
    out-edge ids in port order, per edge its endpoints and in-port.
    Kernels share these lists across every run of the topology, so they
    only read them.
    """

    __slots__ = (
        "network",
        "num_vertices",
        "num_edges",
        "root",
        "terminal",
        "edge_head",
        "edge_tail",
        "in_port",
        "in_degree",
        "out_degree",
        "out_edge_ids",
    )

    def __init__(self, network: DirectedNetwork) -> None:
        self.network = network
        n = network.num_vertices
        self.num_vertices = n
        self.num_edges = network.num_edges
        self.root = network.root
        self.terminal = network.terminal
        edges = network.edges
        self.edge_tail: List[int] = [tail for tail, _ in edges]
        self.edge_head: List[int] = [head for _, head in edges]
        # Port order is edge order, so an edge's in-port is the number of
        # earlier edges into its head, and the final counts are in-degrees.
        in_degree = self.in_degree = [0] * n
        in_port = self.in_port = [0] * len(edges)
        for eid, head in enumerate(self.edge_head):
            in_port[eid] = in_degree[head]
            in_degree[head] += 1
        out_edge_ids = network.out_edge_ids
        self.out_edge_ids: List[Tuple[int, ...]] = [out_edge_ids(v) for v in range(n)]
        self.out_degree: List[int] = [len(ports) for ports in self.out_edge_ids]


class FastEvent:
    """A ``__slots__`` stand-in for :class:`~repro.network.events.MessageEvent`.

    Schedulers only read attributes (``edge_id``, ``seq``, ``bits``,
    ``payload``, ``sent_step``), so this duck-typed record — allocated with
    plain attribute stores instead of a frozen dataclass's
    ``object.__setattr__`` chain — is interchangeable and much cheaper.
    """

    __slots__ = ("edge_id", "payload", "seq", "sent_step", "bits")

    def __init__(
        self, edge_id: int, payload: Any, seq: int, sent_step: int, bits: int
    ) -> None:
        self.edge_id = edge_id
        self.payload = payload
        self.seq = seq
        self.sent_step = sent_step
        self.bits = bits


def run_protocol_fastpath(
    network: DirectedNetwork,
    protocol: Any,
    scheduler: Optional[Scheduler] = None,
    *,
    max_steps: Optional[int] = None,
    record_trace: bool = False,
    track_state_bits: bool = False,
    stop_at_termination: bool = False,
    compiled: Optional[CompiledNetwork] = None,
    faults: Optional[Any] = None,
    trace_sink: Optional[Any] = None,
) -> RunResult:
    """Execute ``protocol`` on ``network``; result-identical to
    :func:`~repro.network.simulator.run_protocol`.

    Accepts exactly the same parameters (including the same default step
    budget) and returns the same :class:`RunResult` shape.  See the module
    docstring for what makes it fast.

    ``compiled`` optionally supplies a pre-built :class:`CompiledNetwork`
    for ``network`` (campaign runners cache them per topology); it is used
    only if it actually wraps this exact network object, so a stale or
    mismatched cache entry can never corrupt a run.

    The compiled kernel runs only a plain run.  ``record_trace``,
    ``trace_sink``, ``track_state_bits`` and ``faults`` all need the live
    protocol objects — trace digests are taken over the real payloads,
    state sizes over the real states, and a churn rejoin resets a real
    state — so any of them, or a protocol that compiles no kernel, sends
    the whole run to the reference loop with the same arguments.
    """
    kernel = None
    plain = not (record_trace or track_state_bits)
    if plain and faults is None and trace_sink is None:
        if compiled is None or compiled.network is not network:
            compiled = CompiledNetwork(network)
        kernel = protocol.compile_fastpath(compiled)
    if kernel is None:
        return run_protocol(
            network,
            protocol,
            scheduler,
            max_steps=max_steps,
            record_trace=record_trace,
            track_state_bits=track_state_bits,
            stop_at_termination=stop_at_termination,
            faults=faults,
            trace_sink=trace_sink,
        )

    if scheduler is None:
        scheduler = FifoScheduler()
    scheduler.bind(network)
    if max_steps is None:
        max_steps = default_step_budget(network)
    # The FIFO/LIFO bypass is only sound for the exact stock classes —
    # subclasses may reorder arbitrarily.
    if type(scheduler) in (FifoScheduler, LifoScheduler):
        counters = _drive_flat(
            compiled,
            kernel,
            type(scheduler) is LifoScheduler,
            max_steps,
            stop_at_termination,
        )
    else:
        counters = _drive_scheduler(
            compiled, kernel, scheduler, max_steps, stop_at_termination
        )
    return _materialise_result(compiled, kernel, *counters)


#: What a delivery loop hands to :func:`_materialise_result`: outcome
#: (``None`` when the messages drained), steps, total messages / bits, max
#: message bits, per-edge bits / messages, termination step, messages /
#: bits at termination.
_Counters = Tuple[
    Optional[Outcome], int, int, int, int, List[int], List[int], Optional[int], int, int
]


def _materialise_result(
    compiled: CompiledNetwork,
    kernel: Any,
    outcome: Optional[Outcome],
    step: int,
    total_messages: int,
    total_bits: int,
    max_message_bits: int,
    edge_bits: List[int],
    edge_messages: List[int],
    termination_step: Optional[int],
    messages_at_termination: int,
    bits_at_termination: int,
) -> RunResult:
    """Materialise the immutable result objects at run end; the states,
    the allocation-heavy part, wait for their first reader."""
    terminated = termination_step is not None
    if outcome is None:
        outcome = Outcome.TERMINATED if terminated else Outcome.QUIESCENT
    metrics = RunMetrics(
        total_messages=total_messages,
        total_bits=total_bits,
        max_message_bits=max_message_bits,
        max_edge_bits=max(edge_bits, default=0),
        max_edge_messages=max(edge_messages, default=0),
        termination_step=termination_step,
        steps=step,
        messages_at_termination=(
            messages_at_termination if terminated else total_messages
        ),
        bits_at_termination=bits_at_termination if terminated else total_bits,
        max_state_bits=0,
    )
    output = None
    if terminated and outcome is Outcome.TERMINATED:
        output = kernel.output(compiled.terminal)
    return RunResult(
        outcome=outcome,
        metrics=metrics,
        states=kernel.finalize_states,
        output=output,
        trace=None,
    )


def _bad_port(vertex: int, out_port: int, out_degree: int) -> SimulationError:
    return SimulationError(
        f"vertex {vertex} emitted on out-port {out_port} but has "
        f"out-degree {out_degree}"
    )


def _drive_flat(
    compiled: CompiledNetwork,
    kernel: Any,
    newest_first: bool,
    max_steps: int,
    stop_at_termination: bool,
) -> _Counters:
    """Inner loop under the stock FIFO or LIFO order, scheduler bypassed:
    in-flight tuples sit in one deque, taken from the left (global send
    order) or, ``newest_first``, from the right."""
    edge_head = compiled.edge_head
    in_port = compiled.in_port
    out_edge_ids = compiled.out_edge_ids
    terminal = compiled.terminal
    deliver = kernel.deliver

    total_messages = 0
    total_bits = 0
    max_message_bits = 0
    edge_bits = [0] * compiled.num_edges
    edge_messages = [0] * compiled.num_edges
    termination_step: Optional[int] = None
    messages_at_termination = 0
    bits_at_termination = 0

    inflight: Deque[Tuple[int, Any, int]] = deque()
    push = inflight.append
    take = inflight.pop if newest_first else inflight.popleft
    root = compiled.root
    root_ports = out_edge_ids[root]
    for out_port, payload, bits in kernel.initial_emissions(root):
        if not 0 <= out_port < len(root_ports):
            raise _bad_port(root, out_port, len(root_ports))
        push((root_ports[out_port], payload, bits))

    step = 0
    outcome = None
    while inflight:
        if step >= max_steps:
            outcome = Outcome.BUDGET_EXHAUSTED
            break
        edge_id, payload, bits = take()
        step += 1
        head = edge_head[edge_id]
        total_messages += 1
        total_bits += bits
        if bits > max_message_bits:
            max_message_bits = bits
        edge_bits[edge_id] += bits
        edge_messages[edge_id] += 1

        emissions = deliver(head, in_port[edge_id], payload)
        if emissions:
            ports = out_edge_ids[head]
            nports = len(ports)
            for out_port, out_payload, out_bits in emissions:
                if not 0 <= out_port < nports:
                    raise _bad_port(head, out_port, nports)
                push((ports[out_port], out_payload, out_bits))

        if head == terminal and termination_step is None:
            if kernel.check_terminal(terminal):
                termination_step = step
                messages_at_termination = total_messages
                bits_at_termination = total_bits
                if stop_at_termination:
                    break
    return (
        outcome,
        step,
        total_messages,
        total_bits,
        max_message_bits,
        edge_bits,
        edge_messages,
        termination_step,
        messages_at_termination,
        bits_at_termination,
    )


def _drive_scheduler(
    compiled: CompiledNetwork,
    kernel: Any,
    scheduler: Scheduler,
    max_steps: int,
    stop_at_termination: bool,
) -> _Counters:
    """Inner loop under an arbitrary adversary: the scheduler keeps full
    control, receiving the same push/pop sequence as under the reference
    engine (so seeded adversaries replay identically)."""
    edge_head = compiled.edge_head
    in_port = compiled.in_port
    out_edge_ids = compiled.out_edge_ids
    terminal = compiled.terminal
    deliver = kernel.deliver
    push = scheduler.push
    pop = scheduler.pop

    total_messages = 0
    total_bits = 0
    max_message_bits = 0
    edge_bits = [0] * compiled.num_edges
    edge_messages = [0] * compiled.num_edges
    termination_step: Optional[int] = None
    messages_at_termination = 0
    bits_at_termination = 0

    seq = 0
    root = compiled.root
    root_ports = out_edge_ids[root]
    for out_port, payload, bits in kernel.initial_emissions(root):
        if not 0 <= out_port < len(root_ports):
            raise _bad_port(root, out_port, len(root_ports))
        push(FastEvent(root_ports[out_port], payload, seq, 0, bits))
        seq += 1

    step = 0
    outcome = None
    while len(scheduler):
        if step >= max_steps:
            outcome = Outcome.BUDGET_EXHAUSTED
            break
        event = pop()
        step += 1
        edge_id = event.edge_id
        bits = event.bits
        head = edge_head[edge_id]
        total_messages += 1
        total_bits += bits
        if bits > max_message_bits:
            max_message_bits = bits
        edge_bits[edge_id] += bits
        edge_messages[edge_id] += 1

        emissions = deliver(head, in_port[edge_id], event.payload)
        if emissions:
            ports = out_edge_ids[head]
            nports = len(ports)
            for out_port, out_payload, out_bits in emissions:
                if not 0 <= out_port < nports:
                    raise _bad_port(head, out_port, nports)
                push(FastEvent(ports[out_port], out_payload, seq, step, out_bits))
                seq += 1

        if head == terminal and termination_step is None:
            if kernel.check_terminal(terminal):
                termination_step = step
                messages_at_termination = total_messages
                bits_at_termination = total_bits
                if stop_at_termination:
                    break
    return (
        outcome,
        step,
        total_messages,
        total_bits,
        max_message_bits,
        edge_bits,
        edge_messages,
        termination_step,
        messages_at_termination,
        bits_at_termination,
    )
