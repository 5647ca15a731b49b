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

* :class:`FifoScheduler` — global send-order delivery (the "synchronous-ish"
  baseline).
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
"""

from __future__ import annotations

import abc
import heapq
import random
from collections import deque
from typing import Deque, List, Optional, Tuple

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

        Called once by the simulator before the run starts.  The default does
        nothing; adversarial schedulers override it.  (This does not leak
        topology to the *protocol* — schedulers model the environment, which
        in the asynchronous model is exactly the entity that knows the
        network.)
        """


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


class _TerminalAwareScheduler(Scheduler):
    """Shared machinery for schedulers that treat edges into ``t`` specially."""

    def __init__(self) -> None:
        self._terminal_edges: Optional[set] = None
        self._to_terminal: Deque[MessageEvent] = deque()
        self._others: Deque[MessageEvent] = deque()

    def bind(self, network: DirectedNetwork) -> None:
        self._terminal_edges = set(network.in_edge_ids(network.terminal))

    def push(self, event: MessageEvent) -> None:
        if self._terminal_edges is not None and event.edge_id in self._terminal_edges:
            self._to_terminal.append(event)
        else:
            self._others.append(event)

    def __len__(self) -> int:
        return len(self._to_terminal) + len(self._others)


@SCHEDULERS.register()
class TerminalLastScheduler(_TerminalAwareScheduler):
    """Starve the terminal: deliver to ``t`` only when nothing else remains."""

    name = "terminal-last"

    def pop(self) -> MessageEvent:
        if self._others:
            return self._others.popleft()
        return self._to_terminal.popleft()


@SCHEDULERS.register()
class TerminalFirstScheduler(_TerminalAwareScheduler):
    """Rush the terminal: always deliver messages into ``t`` first."""

    name = "terminal-first"

    def pop(self) -> MessageEvent:
        if self._to_terminal:
            return self._to_terminal.popleft()
        return self._others.popleft()


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


def make_standard_schedulers(random_seeds: int = 3) -> List[Scheduler]:
    """A fresh batch of schedulers covering every implemented adversary.

    :func:`standard_scheduler_specs` built through :data:`SCHEDULERS`:
    FIFO, LIFO, terminal-last, terminal-first, port-biased, one
    latency-model scheduler, and ``random_seeds`` seeded random
    schedulers.  Used by tests and experiments that quantify over
    schedules.
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
