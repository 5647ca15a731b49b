"""Execution traces.

The lower-bound harnesses (:mod:`repro.lowerbounds`) need more than summary
metrics: Theorem 3.2 counts *distinct symbols* transmitted over the edges of
a graph (the set ``Σ_G``), and the linear-cut machinery (Lemmas 3.5–3.7)
inspects which symbol crossed which edge.  A :class:`Trace` records every
delivery — edge, payload, step, size — when tracing is enabled on the
simulator.

Both engines call one trace hook per delivery loop: ``record_trace=True``
becomes an in-memory :class:`Trace` sink at engine entry, and
:func:`trace_hook` tees it with a durable capture when both are set.

Payloads must be hashable for symbol-distinctness queries; all message types
in :mod:`repro.core.messages` are frozen/hashable for this reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["DeliveryRecord", "Trace", "trace_hook"]


@dataclass(frozen=True)
class DeliveryRecord:
    """One delivered message."""

    step: int
    edge_id: int
    payload: Any
    bits: int


@dataclass
class Trace:
    """Chronological record of every delivery in a run."""

    deliveries: List[DeliveryRecord] = field(default_factory=list)

    def record(self, step: int, edge_id: int, payload: Any, bits: int) -> None:
        """Append one delivery."""
        self.deliveries.append(DeliveryRecord(step, edge_id, payload, bits))

    def defer(self, step: int) -> None:
        """A fault-deferred pop: not a delivery, so nothing is kept."""

    def __len__(self) -> int:
        return len(self.deliveries)

    def symbols_on_edge(self, edge_id: int) -> List[Any]:
        """All payloads delivered on one edge, in delivery order."""
        return [d.payload for d in self.deliveries if d.edge_id == edge_id]

    def distinct_symbols(self) -> Set[Any]:
        """The set ``Σ_G`` of distinct symbols transmitted in this run."""
        return {d.payload for d in self.deliveries}

    def distinct_symbol_count(self) -> int:
        """``|Σ_G|`` for this run."""
        return len(self.distinct_symbols())

    def per_edge_symbols(self) -> Dict[int, List[Any]]:
        """Map edge id → payloads delivered on it, in order."""
        out: Dict[int, List[Any]] = {}
        for d in self.deliveries:
            out.setdefault(d.edge_id, []).append(d.payload)
        return out

    def messages_per_edge(self) -> Dict[int, int]:
        """Map edge id → number of deliveries on it."""
        out: Dict[int, int] = {}
        for d in self.deliveries:
            out[d.edge_id] = out.get(d.edge_id, 0) + 1
        return out

    def edge_symbol_multiset(self, edge_ids) -> Tuple[Any, ...]:
        """The multiset (as a sorted-by-repr tuple) of symbols on ``edge_ids``.

        Used by the linear-cut harness: Lemma 3.5 reasons about the multiset
        of symbols crossing a cut.  Sorting by ``repr`` gives a canonical
        multiset representation without requiring payload orderability.

        One pass over the deliveries (via :meth:`per_edge_symbols`) no
        matter how many edges the cut has; a repeated edge id contributes
        its symbols once per occurrence, as before.
        """
        per_edge = self.per_edge_symbols()
        symbols: List[Any] = []
        for eid in edge_ids:
            symbols.extend(per_edge.get(eid, ()))
        return tuple(sorted(symbols, key=repr))


class _Tee:
    """Forwards each engine hook call to an in-memory trace, then a capture."""

    __slots__ = ("trace", "capture")

    def __init__(self, trace: Trace, capture: Any) -> None:
        self.trace = trace
        self.capture = capture

    def record(self, step: int, edge_id: int, payload: Any, bits: int) -> None:
        self.trace.record(step, edge_id, payload, bits)
        self.capture.record(step, edge_id, payload, bits)

    def defer(self, step: int) -> None:
        self.capture.defer(step)


def trace_hook(trace: Optional[Trace], capture: Optional[Any]) -> Optional[Any]:
    """The single ``record``/``defer`` sink an engine's delivery loop calls.

    ``trace`` is the in-memory :class:`Trace` of a ``record_trace=True``
    run, ``capture`` a durable :class:`~repro.tracing.capture.TraceCapture`;
    either may be ``None``, and ``None`` comes back only when both are.
    """
    if trace is None:
        return capture
    if capture is None:
        return trace
    return _Tee(trace, capture)
