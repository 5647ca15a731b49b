"""Declarative fault models: loss, duplication, delay, crashes, churn.

The paper analyses its protocols under a *reliable* asynchronous adversary:
delivery order is arbitrary, but every sent message eventually arrives and
every vertex runs forever.  The self-stabilization literature on the same
model family asks the complementary question — what do these protocols do
when those assumptions are violated?  This module makes that question a
first-class, declarative workload dimension:

* :class:`FaultSpec` — a frozen, JSON-round-trippable description of a
  fault model: message drop/duplicate/delay probabilities, per-vertex
  crash schedules (:class:`CrashFault`) and join/leave churn intervals
  (:class:`ChurnFault`).  Which message is delivered next stays the run's
  scheduler's choice (``RunSpec.scheduler``), harsh ones such as
  ``starve-one-edge`` included: the fault model and the delivery
  adversary are separate dimensions.
* :class:`FaultInjector` — the runtime fault process: it decides,
  deterministically from one seeded RNG, which sends are dropped or
  duplicated, which deliveries are deferred, and which vertices are down
  at a given step.
* :class:`FaultScheduler` — loss, duplication and delay as a wrapper
  around the run's scheduler, so every engine (the compiled kernels
  included) runs them; crashes and churn stay a reference-loop hook.

Semantics (shared by every engine; the fault-model guide under ``docs/`` has
worked examples):

* **Drop** — each emitted message is silently lost with probability
  ``drop_probability`` before it enters the scheduler.
* **Duplicate** — each surviving message is enqueued twice with
  probability ``duplicate_probability`` (the second copy gets its own
  sequence number, exactly as if the sender had emitted it again).
* **Delay** — when the scheduler picks a message and other messages remain
  in flight, the delivery is deferred (the message re-enters the
  scheduler) with probability ``delay_probability``.  A deferral does not
  consume a delivery step; progress is guaranteed by capping consecutive
  deferrals at the number of other in-flight messages.
* **Crash** — a vertex with a :class:`CrashFault` is down from delivery
  step ``step`` onward: messages delivered to it are consumed by the
  network (they count in the metrics and the step budget) but trigger no
  protocol transition and no emissions.
* **Churn** — a vertex with a :class:`ChurnFault` is down during
  ``[leave_step, rejoin_step)`` (forever when ``rejoin_step`` is
  ``None``).  On its first delivery at or after ``rejoin_step`` its state
  is reset to a fresh ``protocol.create_state`` — it rejoins with no
  memory, the self-stabilization notion of a transient node.

Determinism: all randomness comes from one ``random.Random`` seeded from
``FaultSpec.seed`` (falling back to the run's seed), so a faulty run is
exactly reproducible from ``(spec, seed)`` — the same guarantee the
simulator gives fault-free runs.

>>> spec = FaultSpec(drop_probability=0.1, crashes=(CrashFault(vertex=3, step=20),))
>>> FaultSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import MessageEvent
from .graph import DirectedNetwork
from .scheduler import Scheduler

__all__ = [
    "FaultSpecError",
    "CrashFault",
    "ChurnFault",
    "FaultSpec",
    "FaultInjector",
    "FaultScheduler",
    "DELIVER",
    "DELIVER_AFTER_RESET",
    "SWALLOW",
]


class FaultSpecError(ValueError):
    """A fault spec is malformed (bad probability, bad schedule, ...)."""


@dataclass(frozen=True)
class CrashFault:
    """One permanent crash: ``vertex`` is down from delivery step ``step``.

    Steps are the simulator's 1-based delivery counter; ``step=0`` (or 1)
    means the vertex is down for the whole run.  A crashed vertex still
    *receives* deliveries from the network's point of view — they count in
    the metrics and the step budget — but its state never changes and it
    emits nothing.
    """

    vertex: int
    step: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.vertex, int) or self.vertex < 0:
            raise FaultSpecError(f"crash vertex must be a non-negative int, got {self.vertex!r}")
        if not isinstance(self.step, int) or self.step < 0:
            raise FaultSpecError(f"crash step must be a non-negative int, got {self.step!r}")


@dataclass(frozen=True)
class ChurnFault:
    """One churn interval: ``vertex`` is away during ``[leave_step, rejoin_step)``.

    ``rejoin_step=None`` means the vertex never returns (a leave without a
    join — observationally a crash, but counted as churn).  When it does
    rejoin, its first delivery at or after ``rejoin_step`` resets its state
    to a fresh ``protocol.create_state`` — the node returns with no memory.
    """

    vertex: int
    leave_step: int
    rejoin_step: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.vertex, int) or self.vertex < 0:
            raise FaultSpecError(f"churn vertex must be a non-negative int, got {self.vertex!r}")
        if not isinstance(self.leave_step, int) or self.leave_step < 0:
            raise FaultSpecError(
                f"churn leave_step must be a non-negative int, got {self.leave_step!r}"
            )
        if self.rejoin_step is not None and (
            not isinstance(self.rejoin_step, int) or self.rejoin_step <= self.leave_step
        ):
            raise FaultSpecError(
                f"churn rejoin_step must be an int > leave_step or None, "
                f"got {self.rejoin_step!r}"
            )


def _probability(name: str, value: Any) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FaultSpecError(f"{name} must be a number in [0, 1], got {value!r}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise FaultSpecError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _fault_entries(kind: str, cls: type, values: Any) -> Tuple[Any, ...]:
    """Normalise a crash/churn field to a tuple of ``cls`` instances.

    Every malformed shape — a non-sequence, a non-dict entry, a typo'd or
    missing key — must surface as :class:`FaultSpecError`, never as a bare
    ``TypeError``: the CLI turns only fault-spec errors into its one-line
    messages.
    """
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise FaultSpecError(
            f"{kind} must be a sequence of {cls.__name__} entries, "
            f"got {type(values).__name__}"
        )
    entries = []
    for entry in values:
        if isinstance(entry, cls):
            entries.append(entry)
        elif isinstance(entry, dict):
            try:
                entries.append(cls(**entry))
            except TypeError as exc:
                raise FaultSpecError(f"invalid {kind} entry {entry!r}: {exc}") from None
        else:
            raise FaultSpecError(
                f"{kind} entries must be dicts or {cls.__name__}, "
                f"got {type(entry).__name__}"
            )
    return tuple(entries)


@dataclass(frozen=True)
class FaultSpec:
    """One fault model, as plain data (the fault twin of ``RunSpec``).

    Attach it to a run via ``RunSpec(..., faults={...})`` or
    ``RunSpec(..., faults=FaultSpec(...))``; ``faults=None`` (the default)
    is the paper's reliable model and leaves the engines' fault-free fast
    paths — including the protocol kernels — completely untouched.

    Parameters
    ----------
    drop_probability / duplicate_probability / delay_probability:
        Per-message transport fault rates, each in ``[0, 1]``.
    crashes:
        :class:`CrashFault` entries (at most one per vertex).
    churn:
        :class:`ChurnFault` intervals; several per vertex are allowed as
        long as they do not overlap.
    seed:
        Fault RNG seed; ``None`` (the default) falls back to the run's
        seed, so a seed sweep varies faults and topology together.

    >>> FaultSpec(drop_probability=0.25).drop_probability
    0.25
    >>> FaultSpec(drop_probability=2.0)
    Traceback (most recent call last):
        ...
    repro.network.faults.FaultSpecError: drop_probability must be in [0, 1], got 2.0
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_probability: float = 0.0
    crashes: Tuple[CrashFault, ...] = ()
    churn: Tuple[ChurnFault, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability", "delay_probability"):
            object.__setattr__(self, name, _probability(name, getattr(self, name)))
        crashes = _fault_entries("crashes", CrashFault, self.crashes)
        if len({entry.vertex for entry in crashes}) != len(crashes):
            raise FaultSpecError("at most one crash entry per vertex")
        object.__setattr__(self, "crashes", crashes)
        churn = _fault_entries("churn", ChurnFault, self.churn)
        by_vertex: Dict[int, List[ChurnFault]] = {}
        for entry in churn:
            by_vertex.setdefault(entry.vertex, []).append(entry)
        for vertex, entries in by_vertex.items():
            entries.sort(key=lambda e: e.leave_step)
            for previous, current in zip(entries, entries[1:]):
                if previous.rejoin_step is None or current.leave_step < previous.rejoin_step:
                    raise FaultSpecError(
                        f"overlapping churn intervals for vertex {vertex}"
                    )
        object.__setattr__(self, "churn", churn)
        if self.seed is not None and not isinstance(self.seed, int):
            raise FaultSpecError(f"seed must be an int or None, got {self.seed!r}")

    # ------------------------------------------------------------------
    # serialization (mirrors RunSpec)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict with every field present (stable shape).

        >>> FaultSpec().to_dict()["drop_probability"]
        0.0
        """
        return {
            "drop_probability": self.drop_probability,
            "duplicate_probability": self.duplicate_probability,
            "delay_probability": self.delay_probability,
            "crashes": [
                {"vertex": entry.vertex, "step": entry.step} for entry in self.crashes
            ],
            "churn": [
                {
                    "vertex": entry.vertex,
                    "leave_step": entry.leave_step,
                    "rejoin_step": entry.rejoin_step,
                }
                for entry in self.churn
            ],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(payload, dict):
            raise FaultSpecError(
                f"fault payload must be a dict, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise FaultSpecError(
                f"unknown fault field(s): {', '.join(sorted(unknown))}"
            )
        # crashes/churn arrive as lists of dicts; __post_init__ normalises
        # them (and maps every malformed shape to FaultSpecError).
        return cls(**payload)

    def with_seed(self, seed: Optional[int]) -> "FaultSpec":
        """A copy differing only in :attr:`seed` (sweep convenience)."""
        return replace(self, seed=seed)

    def build(self, network: DirectedNetwork, run_seed: Optional[int]) -> "FaultInjector":
        """The runtime :class:`FaultInjector` for one execution."""
        return FaultInjector(self, network, run_seed)


# ----------------------------------------------------------------------
# runtime injection
# ----------------------------------------------------------------------

#: :meth:`FaultInjector.on_deliver` verdicts.
DELIVER = 0
DELIVER_AFTER_RESET = 1
SWALLOW = 2


class _VertexFaults:
    """Per-vertex fault schedule, precompiled for O(1)-ish delivery checks."""

    __slots__ = ("crash_step", "intervals", "rejoins", "rejoin_idx")

    def __init__(self) -> None:
        self.crash_step: Optional[int] = None
        self.intervals: List[Tuple[int, Optional[int]]] = []
        self.rejoins: List[int] = []
        self.rejoin_idx = 0


class FaultInjector:
    """Runtime fault process for one execution, shared by every engine.

    Three hooks, in this order per event:

    1. :meth:`send_copies` once per emitted message (0 = dropped,
       1 = normal, 2 = duplicated), from :class:`FaultScheduler`;
    2. :meth:`should_defer` once per scheduler pop (``True`` re-enqueues
       the popped message without consuming a delivery step), from
       :class:`FaultScheduler`;
    3. :meth:`on_deliver` once per counted delivery (``SWALLOW`` skips the
       protocol transition, ``DELIVER_AFTER_RESET`` resets the vertex
       state first), from the reference loop.

    Because every engine issues the same hook sequence, the injector's RNG
    makes identical choices under ``async`` and ``fastpath`` — the
    differential tests hold faulty records engine-identical.
    """

    __slots__ = (
        "spec",
        "dropped",
        "duplicated",
        "delayed",
        "crashed",
        "churned",
        "rejoined",
        "_rng",
        "_drop_p",
        "_dup_p",
        "_delay_p",
        "_vertex_faults",
        "_consecutive_deferrals",
    )

    def __init__(
        self,
        spec: FaultSpec,
        network: DirectedNetwork,
        run_seed: Optional[int] = None,
    ) -> None:
        self.spec = spec
        effective_seed = spec.seed if spec.seed is not None else (run_seed or 0)
        # String seeding hashes via SHA-512 (random.seed version 2), which is
        # stable across processes and Python versions — unlike hash(tuple).
        self._rng = random.Random(f"faults:{effective_seed}")
        self._drop_p = spec.drop_probability
        self._dup_p = spec.duplicate_probability
        self._delay_p = spec.delay_probability
        self._consecutive_deferrals = 0

        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.crashed = 0
        self.churned = 0
        self.rejoined = 0

        vertex_faults: Dict[int, _VertexFaults] = {}

        def entry(vertex: int) -> _VertexFaults:
            if vertex >= network.num_vertices:
                raise FaultSpecError(
                    f"fault schedule names vertex {vertex}, but the network has "
                    f"only {network.num_vertices} vertices"
                )
            return vertex_faults.setdefault(vertex, _VertexFaults())

        for crash in spec.crashes:
            entry(crash.vertex).crash_step = crash.step
        for churn in spec.churn:
            vf = entry(churn.vertex)
            vf.intervals.append((churn.leave_step, churn.rejoin_step))
            if churn.rejoin_step is not None:
                vf.rejoins.append(churn.rejoin_step)
        for vf in vertex_faults.values():
            vf.intervals.sort()
            vf.rejoins.sort()
        self._vertex_faults = vertex_faults

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    @property
    def downs_vertices(self) -> bool:
        """Whether the model crashes or churns a vertex (needs :meth:`on_deliver`)."""
        return bool(self._vertex_faults)

    def send_copies(self) -> int:
        """How many copies of the next emitted message enter the scheduler."""
        if self._drop_p > 0.0 and self._rng.random() < self._drop_p:
            self.dropped += 1
            return 0
        if self._dup_p > 0.0 and self._rng.random() < self._dup_p:
            self.duplicated += 1
            return 2
        return 1

    def should_defer(self, remaining_in_flight: int) -> bool:
        """Whether the just-popped message is re-enqueued instead of delivered.

        ``remaining_in_flight`` is the scheduler's length *after* the pop.
        Deferral requires another message to make progress with, and at
        most ``remaining_in_flight`` consecutive deferrals are allowed, so
        a run can never livelock even at ``delay_probability=1.0``.
        """
        if self._delay_p <= 0.0 or remaining_in_flight <= 0:
            self._consecutive_deferrals = 0
            return False
        if self._consecutive_deferrals >= remaining_in_flight:
            self._consecutive_deferrals = 0
            return False
        if self._rng.random() < self._delay_p:
            self._consecutive_deferrals += 1
            self.delayed += 1
            return True
        self._consecutive_deferrals = 0
        return False

    def on_deliver(self, vertex: int, step: int) -> int:
        """Classify a counted delivery to ``vertex`` at 1-based ``step``.

        Returns :data:`DELIVER`, :data:`DELIVER_AFTER_RESET` (the vertex
        rejoined since its last transition — reset its state before the
        protocol sees the message) or :data:`SWALLOW` (the vertex is down).
        """
        vf = self._vertex_faults.get(vertex)
        if vf is None:
            return DELIVER
        if vf.crash_step is not None and step >= vf.crash_step:
            self.crashed += 1
            return SWALLOW
        for leave, rejoin in vf.intervals:
            if step >= leave and (rejoin is None or step < rejoin):
                self.churned += 1
                return SWALLOW
        reset = False
        while vf.rejoin_idx < len(vf.rejoins) and step >= vf.rejoins[vf.rejoin_idx]:
            vf.rejoin_idx += 1
            reset = True
        if reset:
            self.rejoined += 1
            return DELIVER_AFTER_RESET
        return DELIVER

    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The fault counters folded into ``RunRecord.metrics``."""
        return {
            "fault_dropped": self.dropped,
            "fault_duplicated": self.duplicated,
            "fault_delayed": self.delayed,
            "fault_crashed": self.crashed,
            "fault_churned": self.churned,
            "fault_rejoined": self.rejoined,
        }


class FaultScheduler(Scheduler):
    """Message loss, duplication and delay as a scheduler around another.

    A push enters :meth:`FaultInjector.send_copies` copies into the inner
    scheduler, each with its own sequence number.  A pop asks
    :meth:`FaultInjector.should_defer`; a deferred message goes back to
    the inner scheduler as the same object (so ``rounds`` and scripted
    replay can tell), ``on_defer(step)`` hears of it, and the pop
    continues.
    """

    def __init__(
        self,
        inner: Scheduler,
        injector: FaultInjector,
        on_defer: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.inner = inner
        self._send_copies = injector.send_copies
        self._should_defer = injector.should_defer
        self._on_defer = on_defer
        self._seq = 0
        self._delivered = 0

    def bind(self, network: DirectedNetwork) -> None:
        self.inner.bind(network)

    def push(self, event: MessageEvent) -> None:
        # MessageEvent and the fastpath's FastEvent share this signature.
        make = type(event)
        for _ in range(self._send_copies()):
            self.inner.push(
                make(event.edge_id, event.payload, self._seq, event.sent_step, event.bits)
            )
            self._seq += 1

    def pop(self) -> MessageEvent:
        inner = self.inner
        while True:
            event = inner.pop()
            if not self._should_defer(len(inner)):
                self._delivered += 1
                return event
            if self._on_defer is not None:
                self._on_defer(self._delivered)
            inner.push(event)

    def __len__(self) -> int:
        return len(self.inner)
