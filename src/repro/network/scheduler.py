"""Delivery schedulers — the asynchronous adversary.

In the asynchronous model the only guarantee is that every sent message is
eventually delivered.  Everything else — order across edges, interleaving,
reordering on a single edge — is up to an adversary.  A
:class:`Scheduler` is that adversary: the simulator pushes every emitted
message into it and asks it for the next message to deliver.

The paper's protocols are all insensitive to reordering (the tree and DAG
protocols send one message per edge; the interval protocols accumulate
monotone unions, which commute), so all schedulers here may reorder freely,
including within one edge.  Correctness claims are ∀-schedule claims; the
test suite runs every protocol under every scheduler with many seeds.

Implementations:

* :class:`FifoScheduler` — global send-order delivery (the default).
* :class:`LifoScheduler` — newest first; maximally bursty.
* :class:`RandomScheduler` — uniformly random in-flight message (seeded).
* :class:`TerminalLastScheduler` — adversarially starves the terminal: a
  message whose edge enters ``t`` is delivered only when nothing else is in
  flight.  This maximises the interval protocols' cycle churn before ``t``
  learns anything.
* :class:`TerminalFirstScheduler` — rushes messages into ``t`` to probe for
  premature termination.
* :class:`PortBiasedScheduler` — always delivers the in-flight message whose
  edge has the highest out-port index at its tail; a deterministic "skewed"
  order that exercises asymmetric interleavings.
* :class:`RoundsScheduler` — lockstep rounds (the paper's §2 time
  measure); it reports ``rounds`` and ``termination_round``.
* :class:`StarveOneEdgeScheduler` — terminal-last generalised to one
  (seeded or chosen) edge: its messages wait until nothing else is in
  flight.
* :class:`OldestLastScheduler` — newest sequence number first, so stale
  messages keep arriving after everything that superseded them.

A fault model (:mod:`repro.network.faults`) wraps any of them; it never
replaces the run's scheduler.
"""

from __future__ import annotations

import abc
import heapq
import random
from bisect import bisect_right
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..api.registry import SCHEDULERS
from .events import MessageEvent
from .graph import DirectedNetwork

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "TerminalLastScheduler",
    "TerminalFirstScheduler",
    "PortBiasedScheduler",
    "LatencyScheduler",
    "RoundsScheduler",
    "StarveOneEdgeScheduler",
    "OldestLastScheduler",
    "make_standard_schedulers",
    "standard_scheduler_specs",
]


class Scheduler(abc.ABC):
    """Chooses which in-flight message the network delivers next."""

    #: Name used in experiment reports.
    name: str = "scheduler"

    @abc.abstractmethod
    def push(self, event: MessageEvent) -> None:
        """Register a newly sent message."""

    @abc.abstractmethod
    def pop(self) -> MessageEvent:
        """Remove and return the next message to deliver.

        Raises
        ------
        IndexError
            If no message is in flight.
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of in-flight messages."""

    def bind(self, network: DirectedNetwork) -> None:
        """Give topology-aware schedulers access to the network.

        Called by the simulator before the run starts, and before that by
        :meth:`~repro.api.spec.RunSpec.build_scheduler` to check the
        schedule against the network, so binding twice to one network
        must act like binding once.  The default does nothing;
        adversarial schedulers override it (a ``ValueError`` says the
        schedule does not fit the network).  (This does not leak
        topology to the *protocol* — schedulers model the environment, which
        in the asynchronous model is exactly the entity that knows the
        network.)
        """

    def extras(self, metrics: Any) -> Dict[str, Any]:
        """Metrics of this scheduler's own for a finished run's record,
        given its :class:`~repro.network.metrics.RunMetrics`; none by default."""
        return {}


@SCHEDULERS.register()
class FifoScheduler(Scheduler):
    """Deliver messages in global send order."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[MessageEvent] = deque()

    def push(self, event: MessageEvent) -> None:
        self._queue.append(event)

    def pop(self) -> MessageEvent:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


@SCHEDULERS.register()
class LifoScheduler(Scheduler):
    """Deliver the most recently sent message first (depth-first surge)."""

    name = "lifo"

    def __init__(self) -> None:
        self._stack: List[MessageEvent] = []

    def push(self, event: MessageEvent) -> None:
        self._stack.append(event)

    def pop(self) -> MessageEvent:
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


@SCHEDULERS.register()
class RandomScheduler(Scheduler):
    """Deliver a uniformly random in-flight message (swap-pop, O(1))."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._events: List[MessageEvent] = []
        self.seed = seed
        self.name = f"random(seed={seed})"

    def push(self, event: MessageEvent) -> None:
        self._events.append(event)

    def pop(self) -> MessageEvent:
        idx = self._rng.randrange(len(self._events))
        self._events[idx], self._events[-1] = self._events[-1], self._events[idx]
        return self._events.pop()

    def __len__(self) -> int:
        return len(self._events)


class _StarveEdgesScheduler(Scheduler):
    """Two FIFO queues: messages on the starved edges, chosen at
    :meth:`bind` (by default the edges into ``t``), and all others.

    :meth:`pop` serves a starved edge only when nothing else is in
    flight; :class:`TerminalFirstScheduler` reverses that.
    """

    def __init__(self) -> None:
        self._starved_edges: Optional[set] = None
        self._starved: Deque[MessageEvent] = deque()
        self._others: Deque[MessageEvent] = deque()

    def bind(self, network: DirectedNetwork) -> None:
        self._starved_edges = set(network.in_edge_ids(network.terminal))

    def push(self, event: MessageEvent) -> None:
        if self._starved_edges is not None and event.edge_id in self._starved_edges:
            self._starved.append(event)
        else:
            self._others.append(event)

    def pop(self) -> MessageEvent:
        if self._others:
            return self._others.popleft()
        return self._starved.popleft()

    def __len__(self) -> int:
        return len(self._starved) + len(self._others)


@SCHEDULERS.register()
class TerminalLastScheduler(_StarveEdgesScheduler):
    """Starve the terminal: deliver to ``t`` only when nothing else remains."""

    name = "terminal-last"


@SCHEDULERS.register()
class TerminalFirstScheduler(_StarveEdgesScheduler):
    """Rush the terminal: always deliver messages into ``t`` first."""

    name = "terminal-first"

    def pop(self) -> MessageEvent:
        if self._starved:
            return self._starved.popleft()
        return self._others.popleft()


@SCHEDULERS.register()
class StarveOneEdgeScheduler(_StarveEdgesScheduler):
    """Starve a single edge: its messages are delivered only when nothing
    else is in flight.

    Generalises terminal-last from one vertex's in-edges to an arbitrary
    edge — the worst case for protocols whose progress funnels through a
    cut edge.  The target is ``edge_id`` when given, otherwise a seeded
    uniform choice once the network is bound.  Binding again to the same
    network keeps the target.
    """

    name = "starve-one-edge"

    def __init__(self, seed: int = 0, *, edge_id: Optional[int] = None) -> None:
        super().__init__()
        self._seed = seed
        self._edge_id = edge_id

    def bind(self, network: DirectedNetwork) -> None:
        if self._edge_id is None:
            self._edge_id = random.Random(f"starve:{self._seed}").randrange(
                network.num_edges
            )
        elif not 0 <= self._edge_id < network.num_edges:
            raise ValueError(
                f"edge_id {self._edge_id} out of range for a network with "
                f"{network.num_edges} edges"
            )
        self._starved_edges = {self._edge_id}

    @property
    def target_edge(self) -> Optional[int]:
        """The starved edge id (``None`` until the network is bound)."""
        return self._edge_id


@SCHEDULERS.register()
class PortBiasedScheduler(Scheduler):
    """Prefer in-flight messages on high out-port edges (deterministic skew).

    Pops the message whose edge has the highest out-port index at its
    tail, the lowest ``seq`` among those (``seq`` is unique per run, so
    the heap never compares events).  Ports are looked up once, at
    :meth:`bind`; until then the scheduler delivers newest first.
    """

    name = "port-biased"

    def __init__(self) -> None:
        self._events: List[MessageEvent] = []
        #: ``(-out_port, seq, event)``; a min-heap once bound.
        self._heap: List[Tuple[int, int, MessageEvent]] = []
        self._out_port: Optional[List[int]] = None

    def bind(self, network: DirectedNetwork) -> None:
        out_port = [0] * network.num_edges
        for vertex in range(network.num_vertices):
            for port, edge_id in enumerate(network.out_edge_ids(vertex)):
                out_port[edge_id] = port
        self._out_port = out_port

    def push(self, event: MessageEvent) -> None:
        if self._out_port is None:
            self._events.append(event)
            return
        heapq.heappush(self._heap, (-self._out_port[event.edge_id], event.seq, event))

    def pop(self) -> MessageEvent:
        if self._out_port is None:
            return self._events.pop()
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._events) + len(self._heap)


@SCHEDULERS.register()
class LatencyScheduler(Scheduler):
    """Per-edge link latencies: deliver the in-flight message that would
    physically arrive first.

    Each edge gets a deterministic latency drawn from
    ``[min_latency, max_latency]`` (seeded); a message sent at virtual time
    ``T`` on edge ``e`` arrives at ``T + latency(e)``.  Virtual time is the
    arrival time of the last delivered message.  This models heterogeneous
    links (slow WAN hops next to fast LAN hops) — a structured adversary
    between FIFO and fully random, and the source of the
    :attr:`virtual_time` measure experiments can report.
    """

    name = "latency"

    def __init__(
        self, seed: int = 0, *, min_latency: float = 1.0, max_latency: float = 10.0
    ) -> None:
        if min_latency <= 0 or max_latency < min_latency:
            raise ValueError("need 0 < min_latency <= max_latency")
        self._rng = random.Random(seed)
        self._min = min_latency
        self._max = max_latency
        self._latencies: dict = {}
        self._heap: List[tuple] = []
        #: Arrival time of the most recently delivered message.
        self.virtual_time = 0.0

    def _latency(self, edge_id: int) -> float:
        if edge_id not in self._latencies:
            self._latencies[edge_id] = self._rng.uniform(self._min, self._max)
        return self._latencies[edge_id]

    def push(self, event: MessageEvent) -> None:
        arrival = self.virtual_time + self._latency(event.edge_id)
        heapq.heappush(self._heap, (arrival, event.seq, event))

    def pop(self) -> MessageEvent:
        arrival, _, event = heapq.heappop(self._heap)
        self.virtual_time = arrival
        return event

    def __len__(self) -> int:
        return len(self._heap)


@SCHEDULERS.register()
class RoundsScheduler(Scheduler):
    """Lockstep rounds — the paper's §2 time measure.

    Section 2: *"In a synchronous model one may also consider the time it
    takes for the protocol to terminate"*.  The synchronous schedule is
    one particular admissible asynchronous schedule, so it is a scheduler
    and every safety and termination property carries over.  Each round
    delivers the messages in flight when it starts, by edge id and then
    send order; what they emit lands in the next round.  A push gets the
    round of the last pop plus one.

    :meth:`extras` reports ``rounds`` (rounds begun) and
    ``termination_round``, the round of ``termination_step`` — on the
    paper's monotone stopping predicates, the first round at whose end it
    holds.  ``stop_at_termination`` stops at the terminating delivery, not
    at the end of its round; ``termination_round`` does not change.  A
    message pushed back right after its pop (a fault deferral) moves to
    the next round, and that pop counts as no delivery.
    """

    name = "rounds"

    def __init__(self) -> None:
        #: ``(round, edge_id, seq, event)``; ``seq`` is unique in flight.
        self._heap: List[Tuple[int, int, int, MessageEvent]] = []
        self._round = 0
        self._delivered = 0
        self._last: Optional[MessageEvent] = None
        #: The 1-based delivery step of each round's first delivery.
        self.round_starts: List[int] = []

    def push(self, event: MessageEvent) -> None:
        if event is self._last:
            self._delivered -= 1
            self._last = None
        heapq.heappush(self._heap, (self._round + 1, event.edge_id, event.seq, event))

    def pop(self) -> MessageEvent:
        round_, _, _, event = heapq.heappop(self._heap)
        self._delivered += 1
        if round_ > self._round:
            self._round = round_
            self.round_starts.append(self._delivered)
        self._last = event
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def extras(self, metrics: Any) -> Dict[str, Any]:
        step = metrics.termination_step
        return {
            "rounds": len(self.round_starts),
            "termination_round": (
                None if step is None else bisect_right(self.round_starts, step)
            ),
        }


@SCHEDULERS.register()
class OldestLastScheduler(Scheduler):
    """Deliver the *newest* in-flight message first, by sequence number.

    The oldest message is delivered last — maximally stale information
    keeps arriving after everything that superseded it.  Differs from LIFO
    under fault injection: deferred re-enqueues keep their original
    sequence numbers, so a delayed old message stays old.
    """

    name = "oldest-last"

    def __init__(self) -> None:
        self._heap: List[Tuple[int, MessageEvent]] = []

    def push(self, event: MessageEvent) -> None:
        heapq.heappush(self._heap, (-event.seq, event))

    def pop(self) -> MessageEvent:
        return heapq.heappop(self._heap)[1]

    def __len__(self) -> int:
        return len(self._heap)


def make_standard_schedulers(random_seeds: int = 3) -> List[Scheduler]:
    """A fresh batch of the standard adversaries.

    :func:`standard_scheduler_specs` built through :data:`SCHEDULERS`:
    FIFO, LIFO, terminal-last, terminal-first, port-biased, one
    latency-model scheduler, and ``random_seeds`` seeded random
    schedulers.  Used by tests and experiments that quantify over
    schedules.  ``rounds``, ``starve-one-edge`` and ``oldest-last`` are
    registered schedulers too but stay out of this batch: e16 tabulates
    one row per entry, and its rows must not move.  Quantify over
    :data:`SCHEDULERS` itself to cover every adversary.
    """
    return [
        SCHEDULERS.get(name)(**params)
        for name, params in standard_scheduler_specs(random_seeds)
    ]


def standard_scheduler_specs(random_seeds: int = 3) -> List[tuple]:
    """The standard-adversary batch as ``(registry name, params)`` pairs.

    The serializable form of :func:`make_standard_schedulers`, for
    experiments that quantify over schedules with
    :class:`~repro.api.spec.RunSpec`\\ s.
    """
    specs: List[tuple] = [
        ("fifo", {}),
        ("lifo", {}),
        ("terminal-last", {}),
        ("terminal-first", {}),
        ("port-biased", {}),
        ("latency", {"seed": 0}),
    ]
    specs.extend(("random", {"seed": s}) for s in range(random_seeds))
    return specs
