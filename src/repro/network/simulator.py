"""The asynchronous execution engine.

:func:`run_protocol` executes an :class:`~repro.core.model.AnonymousProtocol`
on a :class:`~repro.network.graph.DirectedNetwork` under a chosen
:class:`~repro.network.scheduler.Scheduler` (the asynchronous adversary).

Execution semantics, matching Section 2 of the paper:

1. Every vertex starts in the protocol's initial state ``π₀`` (which may
   depend on its degrees, as in Section 4).
2. The root's initial emissions (``σ₀`` on its outgoing edge) are injected.
3. Repeatedly, the scheduler picks one in-flight message; the simulator
   delivers it to the head of its edge, invoking the protocol's receive step
   (``f`` and ``g``); any produced messages join the in-flight set.
4. After every delivery *to the terminal*, the stopping predicate ``S`` is
   evaluated on the terminal's state; the first step at which it holds is the
   protocol's termination point.

A run ends in one of three :class:`Outcome`\\ s:

* ``TERMINATED`` — ``S`` held at some step.  The simulator keeps delivering
  until quiescence so that *total* work is measured, but the paper's
  "before termination" accounting is preserved separately in the metrics.
* ``QUIESCENT`` — no messages remain and ``S`` never held.  For the paper's
  protocols this is the *correct* outcome on graphs where some vertex is not
  connected to ``t`` (the "iff" direction of Theorems 3.1, 4.2, 5.1).
* ``BUDGET_EXHAUSTED`` — the step budget ran out; indicates either a
  diverging protocol (a bug) or a budget set too low.

The simulator is deterministic given the scheduler, so every experiment is
exactly reproducible from (graph, protocol, scheduler, seed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MethodType
from typing import Any, Dict, Optional

from ..core.model import AnonymousProtocol, VertexView
from .events import MessageEvent
from .faults import DELIVER_AFTER_RESET as _FAULT_RESET
from .faults import SWALLOW as _FAULT_SWALLOW
from .graph import DirectedNetwork
from .metrics import MetricsCollector, RunMetrics
from .scheduler import FifoScheduler, Scheduler
from .trace import Trace, trace_hook

__all__ = [
    "Outcome",
    "RunResult",
    "run_protocol",
    "default_step_budget",
    "SimulationError",
]


def default_step_budget(network: DirectedNetwork) -> int:
    """The default delivery budget shared by the execution engines.

    A generous bound derived from the paper's worst-case message counts —
    ``64 + 16·|E|·(|V| + 2)`` deliveries — which no correct protocol in
    this repository exceeds.  Both the reference engine and the fast path
    resolve ``max_steps=None`` through this one function, so the two can
    never drift.
    """
    return 64 + 16 * network.num_edges * (network.num_vertices + 2)


class SimulationError(RuntimeError):
    """Raised on malformed protocol behaviour (e.g. emission on a bad port)."""


class Outcome(enum.Enum):
    """How a run ended."""

    #: The terminal's stopping predicate held at some step.
    TERMINATED = "terminated"
    #: All messages drained without the stopping predicate ever holding.
    QUIESCENT = "quiescent-without-termination"
    #: The step budget was exhausted with messages still in flight.
    BUDGET_EXHAUSTED = "budget-exhausted"


class _ResolvedOnRead:
    """Descriptor of the :attr:`RunResult.states` dataclass field: a bound
    method stored there (a kernel's ``finalize_states``) is called on the
    first read and replaced by the states it returns."""

    def __get__(self, result: Any, owner: Any = None) -> Dict[int, Any]:
        if result is None:
            raise AttributeError("states")  # no default: the field is required
        states = result.__dict__["states"]
        if isinstance(states, MethodType):
            states = result.__dict__["states"] = states()
        return states

    def __set__(self, result: Any, states: Any) -> None:
        result.__dict__["states"] = states


@dataclass
class RunResult:
    """Everything observable from one execution."""

    outcome: Outcome
    metrics: RunMetrics
    #: Final state of every vertex, by vertex id (for white-box assertions in
    #: tests and experiments; protocols themselves never see this).  The
    #: compiled engine passes its kernel's ``finalize_states`` here, so the
    #: state objects are built on the first read, never for callers that
    #: only want the counters; equality and ``repr`` read it like any field.
    #: Until then the result holds the kernel (its arrays, protocol and
    #: compiled topology) alive, and copying or pickling it copies them.
    states: Dict[int, Any] = _ResolvedOnRead()  # type: ignore[assignment]
    #: The protocol's output — the terminal's state passed through
    #: :meth:`~repro.core.model.AnonymousProtocol.output` — when terminated.
    output: Optional[Any]
    #: Full delivery trace when tracing was requested, else ``None``.
    trace: Optional[Trace]

    @property
    def terminated(self) -> bool:
        """True iff the stopping predicate held at some point."""
        return self.outcome is Outcome.TERMINATED


def run_protocol(
    network: DirectedNetwork,
    protocol: AnonymousProtocol,
    scheduler: Optional[Scheduler] = None,
    *,
    max_steps: Optional[int] = None,
    record_trace: bool = False,
    track_state_bits: bool = False,
    stop_at_termination: bool = False,
    faults: Optional[Any] = None,
    trace_sink: Optional[Any] = None,
) -> RunResult:
    """Execute ``protocol`` on ``network`` under ``scheduler``.

    Parameters
    ----------
    network:
        The directed anonymous network (with root/terminal designated).
    protocol:
        The protocol to run.
    scheduler:
        Delivery adversary; defaults to a fresh :class:`FifoScheduler`.
    max_steps:
        Delivery budget.  Defaults to :func:`default_step_budget`
        (``64 + 16·|E|·(|V| + 2)`` deliveries), which no correct protocol
        in this repository exceeds.
    record_trace:
        Record every delivery (needed by the lower-bound harnesses).
    track_state_bits:
        Query the protocol for per-vertex state sizes after every transition
        (slow; used by the state-space experiments).
    stop_at_termination:
        Stop delivering as soon as the stopping predicate holds instead of
        draining to quiescence.  Post-termination work is then not measured.
    faults:
        Optional :class:`~repro.network.faults.FaultInjector` — the fault
        model's runtime: drops/duplicates sends, defers deliveries and
        downs crashed/churned vertices (see :mod:`repro.network.faults`).
        ``None`` (the default) is the paper's reliable model; the loop is
        then exactly the pre-fault-layer loop.
    trace_sink:
        Optional durable trace capture (a
        :class:`~repro.tracing.capture.TraceCapture`): its ``record`` hook
        fires once per delivery and its ``defer`` hook once per
        fault-deferred pop, streaming to the ``.rtrace`` format with
        bounded memory.  ``record_trace`` goes through the same hook: its
        :class:`Trace` is the sink, teed with this one when both are set.

    Returns
    -------
    RunResult
        Outcome, metrics, final states, output and optional trace.
    """
    if scheduler is None:
        scheduler = FifoScheduler()
    scheduler.bind(network)
    if max_steps is None:
        max_steps = default_step_budget(network)

    views = [
        VertexView(in_degree=network.in_degree(v), out_degree=network.out_degree(v))
        for v in range(network.num_vertices)
    ]
    states: Dict[int, Any] = {
        v: protocol.create_state(views[v]) for v in range(network.num_vertices)
    }

    metrics = MetricsCollector(network.num_edges)
    trace = Trace() if record_trace else None
    sink = trace_hook(trace, trace_sink)
    seq = 0

    def emit(vertex: int, out_port: int, payload: Any, step: int) -> None:
        nonlocal seq
        out_ids = network.out_edge_ids(vertex)
        if not (0 <= out_port < len(out_ids)):
            raise SimulationError(
                f"vertex {vertex} emitted on out-port {out_port} but has "
                f"out-degree {len(out_ids)}"
            )
        copies = 1 if faults is None else faults.send_copies()
        if copies == 0:  # transport loss: the message never enters the network
            return
        bits = protocol.message_bits(payload)
        for _ in range(copies):
            scheduler.push(
                MessageEvent(
                    edge_id=out_ids[out_port], payload=payload, seq=seq, sent_step=step, bits=bits
                )
            )
            seq += 1

    # Inject the root's initial transmissions (the paper's σ₀ on s's out-edge).
    for out_port, payload in protocol.initial_emissions(views[network.root]):
        emit(network.root, out_port, payload, step=0)

    step = 0
    while len(scheduler):
        if step >= max_steps:
            return RunResult(
                outcome=Outcome.BUDGET_EXHAUSTED,
                metrics=metrics.freeze(step),
                states=states,
                output=None,
                trace=trace,
            )
        event = scheduler.pop()
        if faults is not None and faults.should_defer(len(scheduler)):
            if sink is not None:
                sink.defer(step)
            scheduler.push(event)  # deferred, not delivered: no step consumed
            continue
        step += 1
        head = network.edge_head(event.edge_id)
        in_port = network.in_port_of_edge(event.edge_id)
        metrics.record_delivery(event.edge_id, event.bits)
        if sink is not None:
            sink.record(step, event.edge_id, event.payload, event.bits)

        if faults is not None:
            action = faults.on_deliver(head, step)
            if action == _FAULT_SWALLOW:
                continue  # vertex is down: message consumed, no transition
            if action == _FAULT_RESET:
                states[head] = protocol.create_state(views[head])

        new_state, emissions = protocol.on_receive(
            states[head], views[head], in_port, event.payload
        )
        states[head] = new_state
        if track_state_bits:
            metrics.record_state_bits(protocol.state_bits(new_state))
        for out_port, payload in emissions:
            emit(head, out_port, payload, step)

        if head == network.terminal and protocol.is_terminated(new_state):
            metrics.record_termination(step)
            if stop_at_termination:
                break

    terminated = metrics.termination_step is not None
    return RunResult(
        outcome=Outcome.TERMINATED if terminated else Outcome.QUIESCENT,
        metrics=metrics.freeze(step),
        states=states,
        output=protocol.output(states[network.terminal]) if terminated else None,
        trace=trace,
    )
