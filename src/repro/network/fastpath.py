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
  delivery), CSR-style per-vertex out-edge-id lists and prebuilt
  :class:`~repro.core.model.VertexView` rows.
* **Two delivery loops, one trace hook** — under the stock FIFO (default)
  and LIFO schedulers the scheduler object is bypassed entirely: in-flight
  ``(edge_id, payload, bits)`` tuples live in one
  :class:`collections.deque`, taken from the left (FIFO) or the right
  (LIFO).  Under any other scheduler, or with a fault model, the adversary
  keeps full control, but events become ``__slots__`` records
  (:class:`FastEvent`) instead of frozen dataclasses, and the
  :class:`~repro.network.faults.FaultInjector` hooks sit behind one
  ``faults is not None`` guard each.  Either loop calls a single trace
  sink: ``record_trace`` becomes an in-memory
  :class:`~repro.network.trace.Trace` sink at entry, teed with a durable
  capture when one is set too (:func:`~repro.network.trace.trace_hook`).
* **Inlined metrics** — per-delivery accounting updates local integers and
  two flat per-edge arrays; the immutable
  :class:`~repro.network.metrics.RunMetrics` is materialised once at the
  end, as is the :class:`~repro.network.simulator.RunResult`.
* **Termination-check elision** — the reference engine evaluates the
  stopping predicate ``S`` on every delivery to the terminal even after
  termination was already recorded; the result of those calls is
  unobservable (``record_termination`` latches the first step), so the
  fast path skips them.
* **Protocol kernels** — a protocol may implement
  :meth:`~repro.core.model.AnonymousProtocol.compile_fastpath` and return
  a :class:`FastpathKernel`-shaped object that replaces the per-vertex
  object states and message payloads with its own flat representation
  (see :mod:`repro.core.interval_kernel` for the Section 4/5 interval
  protocols).  Kernels must be *exactly* result-equivalent; the engine
  falls back to the generic machine whenever tracing, state-bit
  tracking or a fault model is requested, and the differential test suite
  (``tests/api/test_engine_differential.py``) holds every protocol ×
  graph × scheduler combination to byte-identical records.

The scheduler contract is unchanged: schedulers see the same sequence of
``push``/``pop`` calls as under the reference engine, so seeded adversaries
(random, latency) make identical choices and every ∀-schedule claim carries
over.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core.model import VertexView
from .faults import DELIVER_AFTER_RESET as _FAULT_RESET
from .faults import SWALLOW as _FAULT_SWALLOW
from .graph import DirectedNetwork
from .metrics import RunMetrics
from .scheduler import FifoScheduler, LifoScheduler, Scheduler
from .simulator import Outcome, RunResult, SimulationError, default_step_budget
from .trace import Trace, trace_hook

__all__ = [
    "CompiledNetwork",
    "FastEvent",
    "KERNEL_EXEMPT",
    "run_protocol_fastpath",
]

#: Protocol registry names that are allowed to lack a ``compile_fastpath``
#: kernel.  Every registered protocol now ships one, so the set is empty;
#: the registry-driven completeness test
#: (``tests/api/test_kernel_completeness.py``) fails the build if a newly
#: registered protocol neither compiles a kernel nor is listed here.
KERNEL_EXEMPT: frozenset = frozenset()


class CompiledNetwork:
    """Flat-array view of a :class:`DirectedNetwork` for the inner loop.

    Construction is ``O(|V| + |E|)`` and done once per run; afterwards every
    per-delivery topology query is a list index instead of a method call
    (and for :attr:`in_port`, instead of an ``O(degree)`` search).
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
        "out_edge_ids",
        "views",
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
        in_port = [0] * len(edges)
        for v in range(n):
            for idx, eid in enumerate(network.in_edge_ids(v)):
                in_port[eid] = idx
        self.in_port: List[int] = in_port
        self.out_edge_ids: List[Tuple[int, ...]] = [
            network.out_edge_ids(v) for v in range(n)
        ]
        self.views: List[VertexView] = [
            VertexView(
                in_degree=network.in_degree(v), out_degree=network.out_degree(v)
            )
            for v in range(n)
        ]


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


class _ProtocolMachine:
    """Generic execution machine: runs any protocol as-is over flat state.

    This is the fallback used when a protocol offers no compiled kernel (or
    when tracing, state-bit tracking or faults force the fully general path).  The
    per-delivery protocol work is unchanged; the savings come from the
    engine loop around it.
    """

    __slots__ = ("protocol", "views", "states", "message_bits")

    def __init__(self, protocol: Any, compiled: CompiledNetwork) -> None:
        self.protocol = protocol
        self.views = compiled.views
        self.states: List[Any] = [
            protocol.create_state(view) for view in self.views
        ]
        self.message_bits = protocol.message_bits

    def initial_emissions(self, root: int) -> List[Tuple[int, Any, int]]:
        bits = self.message_bits
        return [
            (port, payload, bits(payload))
            for port, payload in self.protocol.initial_emissions(self.views[root])
        ]

    def deliver(
        self, vertex: int, in_port: int, payload: Any
    ) -> List[Tuple[int, Any, int]]:
        new_state, emissions = self.protocol.on_receive(
            self.states[vertex], self.views[vertex], in_port, payload
        )
        self.states[vertex] = new_state
        if not emissions:
            return emissions  # type: ignore[return-value]
        bits = self.message_bits
        return [(port, out, bits(out)) for port, out in emissions]

    def check_terminal(self, terminal: int) -> bool:
        return self.protocol.is_terminated(self.states[terminal])

    def reset_vertex(self, vertex: int) -> None:
        """Reset one vertex to a fresh initial state (churn rejoin)."""
        self.states[vertex] = self.protocol.create_state(self.views[vertex])

    def state_bits(self, vertex: int) -> int:
        return self.protocol.state_bits(self.states[vertex])

    def finalize_states(self) -> Dict[int, Any]:
        return dict(enumerate(self.states))

    def output(self, terminal: int) -> Any:
        return self.protocol.output(self.states[terminal])


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

    ``faults`` optionally supplies a
    :class:`~repro.network.faults.FaultInjector`.  A fault model forces
    the kernel-exempt path: protocol kernels flatten state in ways the
    fault layer cannot reset mid-run, so the generic protocol machine runs
    under the real scheduler object with exactly the injection hooks of
    the reference simulator — faulty runs are engine-identical, and
    ``faults=None`` skips every hook.

    ``trace_sink`` optionally supplies a durable trace capture (a
    :class:`~repro.tracing.capture.TraceCapture`).  Like ``record_trace``,
    whose in-memory :class:`Trace` becomes the same kind of sink, it
    forces the generic protocol machine — kernels flatten payloads into
    representations whose canonical digests would differ from the
    reference engine's, and engine-identical trace bytes are part of the
    contract — and its hooks fire at exactly the reference simulator's
    call sites.
    """
    if scheduler is None:
        scheduler = FifoScheduler()
    scheduler.bind(network)
    if max_steps is None:
        max_steps = default_step_budget(network)

    if compiled is None or compiled.network is not network:
        compiled = CompiledNetwork(network)
    trace = Trace() if record_trace else None
    sink = trace_hook(trace, trace_sink)
    machine: Any = None
    if sink is None and not track_state_bits and faults is None:
        machine = protocol.compile_fastpath(compiled)
    if machine is None:
        machine = _ProtocolMachine(protocol, compiled)

    # The FIFO/LIFO bypass is only sound for the exact stock classes —
    # subclasses may reorder arbitrarily — and without a fault model, whose
    # deferral hook reads the real scheduler's in-flight count.
    if faults is None and type(scheduler) in (FifoScheduler, LifoScheduler):
        counters = _drive_flat(
            compiled,
            machine,
            type(scheduler) is LifoScheduler,
            max_steps,
            track_state_bits,
            stop_at_termination,
            sink,
        )
    else:
        counters = _drive_scheduler(
            compiled,
            machine,
            scheduler,
            max_steps,
            track_state_bits,
            stop_at_termination,
            sink,
            faults,
        )
    return _freeze_result(compiled, machine, trace, *counters)


#: What a delivery loop hands to :func:`_freeze_result`: outcome, steps,
#: total messages / bits, max message bits, per-edge bits / messages,
#: termination step, messages / bits at termination, max state bits.
_Counters = Tuple[
    Outcome, int, int, int, int, List[int], List[int], Optional[int], int, int, int
]


def _freeze_result(
    compiled: CompiledNetwork,
    machine: Any,
    trace: Optional[Trace],
    outcome: Outcome,
    step: int,
    total_messages: int,
    total_bits: int,
    max_message_bits: int,
    edge_bits: List[int],
    edge_messages: List[int],
    termination_step: Optional[int],
    messages_at_termination: int,
    bits_at_termination: int,
    max_state_bits: int,
) -> RunResult:
    """Materialise the immutable result objects (the only allocation-heavy
    part of the engine, deferred to run end)."""
    terminated = termination_step is not None
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
        max_state_bits=max_state_bits,
    )
    output = None
    if terminated and outcome is Outcome.TERMINATED:
        output = machine.output(compiled.terminal)
    return RunResult(
        outcome=outcome,
        metrics=metrics,
        states=machine.finalize_states(),
        output=output,
        trace=trace,
    )


def _bad_port(vertex: int, out_port: int, out_degree: int) -> SimulationError:
    return SimulationError(
        f"vertex {vertex} emitted on out-port {out_port} but has "
        f"out-degree {out_degree}"
    )


def _drive_flat(
    compiled: CompiledNetwork,
    machine: Any,
    newest_first: bool,
    max_steps: int,
    track_state_bits: bool,
    stop_at_termination: bool,
    sink: Optional[Any],
) -> _Counters:
    """Inner loop under the stock FIFO or LIFO order, scheduler bypassed:
    in-flight tuples sit in one deque, taken from the left (global send
    order) or, ``newest_first``, from the right."""
    edge_head = compiled.edge_head
    in_port = compiled.in_port
    out_edge_ids = compiled.out_edge_ids
    terminal = compiled.terminal
    deliver = machine.deliver

    total_messages = 0
    total_bits = 0
    max_message_bits = 0
    edge_bits = [0] * compiled.num_edges
    edge_messages = [0] * compiled.num_edges
    termination_step: Optional[int] = None
    messages_at_termination = 0
    bits_at_termination = 0
    max_state_bits = 0

    inflight: Deque[Tuple[int, Any, int]] = deque()
    push = inflight.append
    take = inflight.pop if newest_first else inflight.popleft
    root = compiled.root
    root_ports = out_edge_ids[root]
    for out_port, payload, bits in machine.initial_emissions(root):
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
        if sink is not None:
            sink.record(step, edge_id, payload, bits)

        emissions = deliver(head, in_port[edge_id], payload)
        if emissions:
            ports = out_edge_ids[head]
            nports = len(ports)
            for out_port, out_payload, out_bits in emissions:
                if not 0 <= out_port < nports:
                    raise _bad_port(head, out_port, nports)
                push((ports[out_port], out_payload, out_bits))
        if track_state_bits:
            sb = machine.state_bits(head)
            if sb > max_state_bits:
                max_state_bits = sb

        if head == terminal and termination_step is None:
            if machine.check_terminal(terminal):
                termination_step = step
                messages_at_termination = total_messages
                bits_at_termination = total_bits
                if stop_at_termination:
                    break
    if outcome is None:
        outcome = (
            Outcome.TERMINATED if termination_step is not None else Outcome.QUIESCENT
        )
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
        max_state_bits,
    )


def _drive_scheduler(
    compiled: CompiledNetwork,
    machine: Any,
    scheduler: Scheduler,
    max_steps: int,
    track_state_bits: bool,
    stop_at_termination: bool,
    sink: Optional[Any],
    faults: Optional[Any],
) -> _Counters:
    """Inner loop under an arbitrary adversary: the scheduler keeps full
    control, receiving the same push/pop sequence as under the reference
    engine (so seeded adversaries replay identically).  A fault model's
    three hooks (send, pop, deliver) fire at exactly the reference
    simulator's call sites, so the fault RNG makes identical choices."""
    edge_head = compiled.edge_head
    in_port = compiled.in_port
    out_edge_ids = compiled.out_edge_ids
    terminal = compiled.terminal
    deliver = machine.deliver
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
    max_state_bits = 0

    seq = 0
    root = compiled.root
    root_ports = out_edge_ids[root]
    for out_port, payload, bits in machine.initial_emissions(root):
        if not 0 <= out_port < len(root_ports):
            raise _bad_port(root, out_port, len(root_ports))
        copies = 1 if faults is None else faults.send_copies()
        for _ in range(copies):
            push(FastEvent(root_ports[out_port], payload, seq, 0, bits))
            seq += 1

    step = 0
    outcome = None
    while len(scheduler):
        if step >= max_steps:
            outcome = Outcome.BUDGET_EXHAUSTED
            break
        event = pop()
        if faults is not None and faults.should_defer(len(scheduler)):
            if sink is not None:
                sink.defer(step)
            push(event)  # deferred, not delivered: no step consumed
            continue
        step += 1
        edge_id = event.edge_id
        bits = event.bits
        payload = event.payload
        head = edge_head[edge_id]
        total_messages += 1
        total_bits += bits
        if bits > max_message_bits:
            max_message_bits = bits
        edge_bits[edge_id] += bits
        edge_messages[edge_id] += 1
        if sink is not None:
            sink.record(step, edge_id, payload, bits)

        if faults is not None:
            action = faults.on_deliver(head, step)
            if action == _FAULT_SWALLOW:
                continue  # vertex is down: message consumed, no transition
            if action == _FAULT_RESET:
                machine.reset_vertex(head)

        emissions = deliver(head, in_port[edge_id], payload)
        if emissions:
            ports = out_edge_ids[head]
            nports = len(ports)
            for out_port, out_payload, out_bits in emissions:
                if not 0 <= out_port < nports:
                    raise _bad_port(head, out_port, nports)
                if faults is None:  # no copy loop on the fault-free hot path
                    push(FastEvent(ports[out_port], out_payload, seq, step, out_bits))
                    seq += 1
                    continue
                for _ in range(faults.send_copies()):
                    push(FastEvent(ports[out_port], out_payload, seq, step, out_bits))
                    seq += 1
        if track_state_bits:
            sb = machine.state_bits(head)
            if sb > max_state_bits:
                max_state_bits = sb

        if head == terminal and termination_step is None:
            if machine.check_terminal(terminal):
                termination_step = step
                messages_at_termination = total_messages
                bits_at_termination = total_bits
                if stop_at_termination:
                    break
    if outcome is None:
        outcome = (
            Outcome.TERMINATED if termination_step is not None else Outcome.QUIESCENT
        )
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
        max_state_bits,
    )
