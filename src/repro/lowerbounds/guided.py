"""Guided adversarial schedule search: best-first over the schedule tree.

:func:`repro.lowerbounds.schedules.explore_all_schedules` walks the
collapsed schedule tree depth-first and can only *verify* small
instances.  This module walks the same quotient graph (same distinct-
choice collapsing, same :class:`~repro.lowerbounds.schedules.TranspositionTable`
keys) **best-first under a pluggable objective**, so it *finds* bad
schedules — longest executions, costliest executions, or a witness for a
target outcome — long before an exhaustive sweep would, and keeps
searching usefully on instances far beyond exhaustive reach.

Three pieces:

* :class:`SearchObjective` / :data:`OBJECTIVES` — the objective contract:
  a leaf valuation, a frontier priority, and a branch-and-bound *rank*
  used to re-open transposition entries reached along a better path (a
  maximizing search must re-expand a known configuration found deeper,
  or it would under-report the worst case the exhaustive DFS can reach).
* :func:`search_schedules` — the best-first loop, with a forced-chain
  fast path that dives through single-choice configurations without
  heap churn.  Run with a large budget it is *exhaustive*: the frontier
  drains, the outcome set equals the DFS's, and the incumbent dominates
  every DFS leaf — the differential suite in
  ``tests/lowerbounds/test_guided.py`` asserts exactly that on every
  enumerated small topology.  The search is a function of the workload,
  the objective and the node budget alone: one process, one answer.
  Parallelism belongs one level up, one whole search per unit of work.
* :func:`extract_schedule` — replays a search path through the live
  protocol objects.

Every result carries ``best_path`` — the sequence of distinct-choice
ranks from the initial configuration to the incumbent leaf.  Paths are
mode-independent (kernel and object walks enumerate choices in the same
first-occurrence order), so :func:`extract_schedule` can replay a path
found on the fast kernel through the live protocol objects and emit the
canonical delivery script a
:class:`~repro.lowerbounds.certificates.ScheduleCertificate` needs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.model import AnonymousProtocol
from ..network.graph import DirectedNetwork
from .schedules import (
    Pending,
    PendingSig,
    TranspositionTable,
    _child_sig,
    _distinct_choice_indices,
    _make_walker,
    _ObjectWalker,
    _pending_sig,
)

__all__ = [
    "OBJECTIVES",
    "ExtractedSchedule",
    "GuidedSearchResult",
    "SearchObjective",
    "extract_schedule",
    "get_objective",
    "register_objective",
    "search_schedules",
]


# ----------------------------------------------------------------------
# objectives
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchObjective:
    """The pluggable objective contract for the guided search.

    All three hooks see only schedule-level aggregates, never protocol
    state, so objectives compose with every protocol:

    ``leaf_value(depth, bits, outcome)``
        Value of a *complete* execution (``depth`` deliveries, ``bits``
        total delivered bits, ``outcome`` in {"terminated", "quiescent"}).
        The search maximizes this; the incumbent is the best leaf found.
    ``priority(depth, bits, pending)``
        Frontier ordering for a *partial* configuration — larger is
        expanded first.  An optimistic estimate of reachable leaf value
        steers the search; it does not need to be admissible for the
        exhaustive guarantee (a drained frontier is exhaustive no matter
        the order), only for how quickly good incumbents appear.
    ``rank(depth, bits)``
        Branch-and-bound re-open rank for the transposition table: a
        configuration reached again at a strictly higher rank is
        re-expanded.  Maximizing objectives rank by their accumulated
        quantity; witness searches use a constant (pure visited-set).
    ``satisfied(best_value)``
        Early-exit predicate on the incumbent value; reach-objectives
        stop the search at the first witness.
    """

    name: str
    description: str
    leaf_value: Callable[[int, int, str], float]
    priority: Callable[[int, int, int], float]
    rank: Callable[[int, int], int]
    satisfied: Callable[[float], bool] = lambda best: False


#: Registered objectives, by name (the CLI's ``--objective`` choices).
OBJECTIVES: Dict[str, SearchObjective] = {}


def register_objective(objective: SearchObjective) -> SearchObjective:
    """Add ``objective`` to :data:`OBJECTIVES` (name collisions are errors)."""
    if objective.name in OBJECTIVES:
        raise ValueError(f"objective {objective.name!r} already registered")
    OBJECTIVES[objective.name] = objective
    return objective


def get_objective(name: str) -> SearchObjective:
    """Look up an objective by name with a helpful error."""
    try:
        return OBJECTIVES[name]
    except KeyError:
        known = ", ".join(sorted(OBJECTIVES))
        raise KeyError(f"unknown objective {name!r}; known: {known}") from None


register_objective(
    SearchObjective(
        name="max-steps",
        description="longest execution: maximize delivery steps",
        leaf_value=lambda depth, bits, outcome: float(depth),
        # Optimistic: every in-flight message is at least one more delivery.
        priority=lambda depth, bits, pending: float(depth + pending),
        rank=lambda depth, bits: depth,
    )
)
register_objective(
    SearchObjective(
        name="max-bits",
        description="costliest execution: maximize total delivered bits",
        leaf_value=lambda depth, bits, outcome: float(bits),
        priority=lambda depth, bits, pending: float(bits + pending),
        rank=lambda depth, bits: bits,
    )
)
register_objective(
    SearchObjective(
        name="reach-termination",
        description="shortest witness schedule that reaches termination",
        leaf_value=lambda depth, bits, outcome: 1.0 if outcome == "terminated" else 0.0,
        # Shallow-first: the first witness found is a shortest one.
        priority=lambda depth, bits, pending: -float(depth),
        rank=lambda depth, bits: 0,
        satisfied=lambda best: best >= 1.0,
    )
)
register_objective(
    SearchObjective(
        name="reach-quiescence",
        description="shortest witness schedule that drains without termination",
        leaf_value=lambda depth, bits, outcome: 1.0 if outcome == "quiescent" else 0.0,
        priority=lambda depth, bits, pending: -float(depth),
        rank=lambda depth, bits: 0,
        satisfied=lambda best: best >= 1.0,
    )
)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class GuidedSearchResult:
    """Everything a guided search learned about the schedule space.

    When ``truncated`` is False and the objective has no early exit, the
    search drained its frontier: ``outcomes`` is the complete reachable
    set (identical to the exhaustive DFS's) and ``best_value`` dominates
    every execution of the collapsed schedule tree.
    """

    #: The objective searched under.
    objective: str
    #: Distinct leaf outcomes observed so far.
    outcomes: Set[str]
    #: Deliveries performed (search effort; comparable to DFS ``steps``).
    nodes: int
    #: Complete executions observed (confluent leaves may recount).
    executions: int
    #: True iff the node budget cut the search short.
    truncated: bool
    #: "kernel" or "object".
    mode: str
    #: Incumbent leaf value under the objective; None if no leaf was seen.
    best_value: Optional[float]
    #: Incumbent leaf's delivery count / total bits / outcome.
    best_depth: int
    best_bits: int
    best_outcome: Optional[str]
    #: Distinct-choice ranks from the initial configuration to the
    #: incumbent leaf; replayable in either walk mode.
    best_path: Optional[Tuple[int, ...]]
    #: Node count at the moment the incumbent was found (time-to-best).
    nodes_at_best: int
    #: Transposition-table counters.
    table: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """One line for the CLI."""
        best = "none" if self.best_value is None else f"{self.best_value:g}"
        return (
            f"SEARCH [{self.objective}] best={best} depth={self.best_depth} "
            f"bits={self.best_bits} outcome={self.best_outcome} "
            f"nodes={self.nodes} (best@{self.nodes_at_best}) "
            f"outcomes={sorted(self.outcomes)} mode={self.mode}"
            + (" TRUNCATED" if self.truncated else "")
        )


@dataclass
class ExtractedSchedule:
    """A concrete delivery script recovered from a search path."""

    #: ``(edge_id, canonical payload repr)`` per delivery, in order.
    deliveries: List[Tuple[int, str]]
    #: Number of deliveries (== len(deliveries)).
    steps: int
    #: Total bits across the delivered messages.
    total_bits: int
    #: "terminated" or "quiescent".
    outcome: str


# ----------------------------------------------------------------------
# the best-first loop
# ----------------------------------------------------------------------


def _descend(
    walker: Any,
    path: Sequence[int],
    delivered: Optional[List[Tuple[int, Any]]] = None,
) -> Tuple[Any, List[Pending], int, int, Optional[str]]:
    """Replay a distinct-choice path from the initial configuration.

    Returns ``(ctx, pending, depth, bits, outcome)`` where outcome is the
    leaf outcome if the path ends in a leaf, else None.  Raises
    ``ValueError`` when the path does not fit the tree (a corrupted or
    cross-instance path).  ``delivered``, when given, collects the
    ``(edge_id, payload)`` of every delivery in order.
    """
    ctx, pending = walker.initial()
    depth = 0
    bits = 0
    for rank in path:
        if not pending:
            raise ValueError(
                f"path step {depth}: configuration is already quiescent"
            )
        choices = _distinct_choice_indices(pending)
        if rank < 0 or rank >= len(choices):
            raise ValueError(
                f"path step {depth}: choice rank {rank} out of range "
                f"({len(choices)} distinct deliveries available)"
            )
        index = choices[rank]
        edge_id, payload, _text, mbits = pending[index]
        if delivered is not None:
            delivered.append((edge_id, payload))
        emissions, terminated = walker.deliver(ctx, edge_id, payload)
        depth += 1
        bits += mbits
        pending = pending[:index] + pending[index + 1 :] + emissions
        if terminated:
            if depth != len(path):
                raise ValueError(
                    f"path step {depth}: execution terminated with "
                    f"{len(path) - depth} path steps left"
                )
            return ctx, pending, depth, bits, "terminated"
        ctx, _key = walker.capture()
    return ctx, pending, depth, bits, ("quiescent" if not pending else None)


def search_schedules(
    network: DirectedNetwork,
    protocol_factory: Callable[[], AnonymousProtocol],
    *,
    objective: str = "max-steps",
    max_nodes: int = 200_000,
    use_kernel: Optional[bool] = None,
    compiled: Optional[Any] = None,
    digest: Optional[Callable[[Any], int]] = None,
) -> GuidedSearchResult:
    """Best-first search for a worst-case schedule of ``protocol`` on ``network``.

    Parameters mirror :func:`~repro.lowerbounds.schedules.explore_all_schedules`
    (``use_kernel``/``compiled``/``digest``) plus:

    objective:
        An :data:`OBJECTIVES` name; see :class:`SearchObjective`.
    max_nodes:
        Delivery budget.  An undrained frontier marks the result
        ``truncated``; a drained one makes the search exhaustive.
    """
    chosen = get_objective(objective)
    walker = _make_walker(network, protocol_factory, use_kernel, compiled)
    table = TranspositionTable(digest)

    outcomes: Set[str] = set()
    executions = 0
    nodes = 0
    truncated = False
    best_value: Optional[float] = None
    best_depth = 0
    best_bits = 0
    best_outcome: Optional[str] = None
    best_path: Optional[Tuple[int, ...]] = None
    nodes_at_best = 0

    counter = itertools.count()
    frontier: List[Tuple[Any, ...]] = []

    def record_leaf(depth: int, bits: int, outcome: str, path: Tuple[int, ...]) -> None:
        nonlocal best_value, best_depth, best_bits, best_outcome, best_path
        nonlocal nodes_at_best, executions
        outcomes.add(outcome)
        executions += 1
        value = chosen.leaf_value(depth, bits, outcome)
        if best_value is None or value > best_value:
            best_value = value
            best_depth = depth
            best_bits = bits
            best_outcome = outcome
            best_path = path
            nodes_at_best = nodes

    def push(
        ctx: Any,
        pending: List[Pending],
        sig: PendingSig,
        depth: int,
        bits: int,
        path: Tuple[int, ...],
    ) -> None:
        heapq.heappush(
            frontier,
            (
                -chosen.priority(depth, bits, len(pending)),
                next(counter),
                ctx,
                pending,
                sig,
                depth,
                bits,
                path,
            ),
        )

    ctx, pending = walker.initial()
    if pending:
        push(ctx, pending, _pending_sig(pending), 0, 0, ())
    else:
        record_leaf(0, 0, "quiescent", ())

    while frontier:
        if best_value is not None and chosen.satisfied(best_value):
            break
        if nodes >= max_nodes:
            truncated = True
            break
        _, _, ctx, pending, sig, depth, bits, path = heapq.heappop(frontier)
        # Greedy dive: expand the node, keep walking the best surviving
        # child inline (pushing the siblings) until a leaf or a dead end.
        # Every pop therefore completes at least one execution, so the
        # incumbent improves steadily even on spaces far beyond the
        # budget — exactly what a *search* (vs. a sweep) is for.
        diving = True
        while diving:
            diving = False
            choices = _distinct_choice_indices(pending)
            best_child: Optional[Tuple[Any, ...]] = None
            for rank, index in enumerate(choices):
                item = pending[index]
                edge_id, payload, _text, mbits = item
                emissions, terminated = walker.deliver(ctx, edge_id, payload)
                nodes += 1
                child_depth = depth + 1
                child_bits = bits + mbits
                child_path = path + (rank,)
                if terminated:
                    record_leaf(child_depth, child_bits, "terminated", child_path)
                    continue
                child_pending = pending[:index] + pending[index + 1 :] + emissions
                if not child_pending:
                    record_leaf(child_depth, child_bits, "quiescent", child_path)
                    continue
                child_ctx, state_key = walker.capture()
                child_sig = _child_sig(sig, item, emissions)
                key = (child_sig, state_key)
                if not table.visit(key, chosen.rank(child_depth, child_bits)):
                    continue
                child = (
                    chosen.priority(child_depth, child_bits, len(child_pending)),
                    child_ctx,
                    child_pending,
                    child_sig,
                    child_depth,
                    child_bits,
                    child_path,
                )
                if best_child is None:
                    best_child = child
                elif child[0] > best_child[0]:
                    push(*best_child[1:])
                    best_child = child
                else:
                    push(*child[1:])
            if best_child is not None:
                if nodes < max_nodes:
                    _, ctx, pending, sig, depth, bits, path = best_child
                    diving = True
                else:
                    push(*best_child[1:])

    if nodes >= max_nodes and frontier:
        truncated = True

    return GuidedSearchResult(
        objective=chosen.name,
        outcomes=outcomes,
        nodes=nodes,
        executions=executions,
        truncated=truncated,
        mode=walker.mode,
        best_value=best_value,
        best_depth=best_depth,
        best_bits=best_bits,
        best_outcome=best_outcome,
        best_path=best_path,
        nodes_at_best=nodes_at_best,
        table=table.stats(),
    )


# ----------------------------------------------------------------------
# schedule extraction (certificate material)
# ----------------------------------------------------------------------


def extract_schedule(
    network: DirectedNetwork,
    protocol_factory: Callable[[], AnonymousProtocol],
    path: Sequence[int],
) -> ExtractedSchedule:
    """Replay a search path through the live protocol; emit the delivery script.

    Always runs in object mode so payload texts are the
    :func:`~repro.tracing.format.canonical_repr` of the very objects the
    reference engine will put in flight — the format
    :class:`~repro.tracing.replay.ReplayScheduler` matches on.  Paths are
    mode-independent (both walkers enumerate distinct choices in the same
    first-occurrence order), so kernel-found paths replay here unchanged.
    """
    from ..tracing.format import canonical_repr

    delivered: List[Tuple[int, Any]] = []
    _ctx, pending, steps, total_bits, outcome = _descend(
        _ObjectWalker(network, protocol_factory()), path, delivered
    )
    if outcome is None:
        raise ValueError(
            "schedule path ends before quiescence or termination "
            f"({len(pending)} messages still in flight)"
        )
    return ExtractedSchedule(
        deliveries=[(edge_id, canonical_repr(payload)) for edge_id, payload in delivered],
        steps=steps,
        total_bits=total_bits,
        outcome=outcome,
    )
