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
* :func:`search_schedules` — the serial best-first loop, with a
  forced-chain fast path that dives through single-choice configurations
  without heap churn.  Run with a large budget it is *exhaustive*: the
  frontier drains, the outcome set equals the DFS's, and the incumbent
  dominates every DFS leaf — the differential suite in
  ``tests/lowerbounds/test_guided.py`` asserts exactly that on every
  enumerated small topology.
* :func:`search_spec_schedules` — the spec-level entry with an optional
  **parallel frontier**: the serial loop expands until it holds enough
  frontier nodes, then shards those subtree roots across
  :meth:`~repro.api.runner.BatchRunner.map_payloads` workers in waves,
  threading the incumbent between waves (periodic incumbent exchange) so
  later shards inherit the bound found by earlier ones.

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
    TranspositionTable,
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
    "search_spec_schedules",
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
    #: Subtree shards dispatched by the parallel frontier (0 = serial).
    shards: int = 0

    def summary(self) -> str:
        """One line for the CLI."""
        best = "none" if self.best_value is None else f"{self.best_value:g}"
        return (
            f"SEARCH [{self.objective}] best={best} depth={self.best_depth} "
            f"bits={self.best_bits} outcome={self.best_outcome} "
            f"nodes={self.nodes} (best@{self.nodes_at_best}) "
            f"outcomes={sorted(self.outcomes)} mode={self.mode}"
            + (f" shards={self.shards}" if self.shards else "")
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


def _best_first(
    walker: Any,
    objective: SearchObjective,
    max_nodes: int,
    table: TranspositionTable,
    *,
    root: Tuple[Any, List[Pending], int, int, Tuple[int, ...]],
    incumbent: Optional[float] = None,
    frontier_target: Optional[int] = None,
) -> Tuple[GuidedSearchResult, List[Tuple[Any, ...]]]:
    """The serial best-first loop shared by all entry points.

    ``root`` is ``(ctx, pending, depth, bits, path)``.  ``incumbent``
    seeds the best value (parallel shards inherit the bound found by
    earlier waves — only strictly better leaves update the incumbent).
    With ``frontier_target`` set, the loop stops expanding as soon as the
    frontier holds that many nodes and returns them (the parallel
    frontier's shard roots); the returned result is then *partial*.
    """
    outcomes: Set[str] = set()
    executions = 0
    nodes = 0
    truncated = False
    best_value = incumbent
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
        value = objective.leaf_value(depth, bits, outcome)
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
        depth: int,
        bits: int,
        path: Tuple[int, ...],
    ) -> None:
        heapq.heappush(
            frontier,
            (
                -objective.priority(depth, bits, len(pending)),
                next(counter),
                ctx,
                pending,
                depth,
                bits,
                path,
            ),
        )

    ctx, pending, depth, bits, path = root
    if not pending:
        record_leaf(depth, bits, "quiescent", path)
    else:
        push(ctx, pending, depth, bits, path)

    while frontier:
        if best_value is not None and objective.satisfied(best_value):
            break
        if frontier_target is not None and len(frontier) >= frontier_target:
            break
        if nodes >= max_nodes:
            truncated = True
            break
        _, _, ctx, pending, depth, bits, path = heapq.heappop(frontier)
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
                edge_id, payload, _text, mbits = pending[index]
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
                key = (_pending_sig(child_pending), state_key)
                if not table.visit(key, objective.rank(child_depth, child_bits)):
                    continue
                child = (
                    objective.priority(child_depth, child_bits, len(child_pending)),
                    child_ctx,
                    child_pending,
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
                    _, ctx, pending, depth, bits, path = best_child
                    diving = True
                else:
                    push(*best_child[1:])

    if nodes >= max_nodes and frontier:
        truncated = True

    result = GuidedSearchResult(
        objective=objective.name,
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
    return result, frontier


def search_schedules(
    network: DirectedNetwork,
    protocol_factory: Callable[[], AnonymousProtocol],
    *,
    objective: str = "max-steps",
    max_nodes: int = 200_000,
    use_kernel: Optional[bool] = None,
    compiled: Optional[Any] = None,
    digest: Optional[Callable[[Any], int]] = None,
    root_path: Sequence[int] = (),
    incumbent: Optional[float] = None,
) -> GuidedSearchResult:
    """Best-first search for a worst-case schedule of ``protocol`` on ``network``.

    Parameters mirror :func:`~repro.lowerbounds.schedules.explore_all_schedules`
    (``use_kernel``/``compiled``/``digest``) plus:

    objective:
        An :data:`OBJECTIVES` name; see :class:`SearchObjective`.
    max_nodes:
        Delivery budget.  An undrained frontier marks the result
        ``truncated``; a drained one makes the search exhaustive.
    root_path:
        Start from the configuration this distinct-choice path reaches
        instead of the initial one (parallel shards resume subtrees this
        way).  Recorded ``best_path`` values stay global, i.e. they
        include the prefix.
    incumbent:
        Seed incumbent value; only strictly better leaves are recorded
        as the new best (the parallel frontier's bound exchange).
    """
    chosen = get_objective(objective)
    walker = _make_walker(network, protocol_factory, use_kernel, compiled)
    table = TranspositionTable(digest)
    ctx, pending, depth, bits, outcome = _descend(walker, tuple(root_path))
    if outcome is not None and tuple(root_path):
        # The shard root itself is a leaf; report it and stop.
        result = GuidedSearchResult(
            objective=chosen.name,
            outcomes={outcome},
            nodes=0,
            executions=1,
            truncated=False,
            mode=walker.mode,
            best_value=chosen.leaf_value(depth, bits, outcome),
            best_depth=depth,
            best_bits=bits,
            best_outcome=outcome,
            best_path=tuple(root_path),
            nodes_at_best=0,
            table=table.stats(),
        )
        return result
    result, _frontier = _best_first(
        walker,
        chosen,
        max_nodes,
        table,
        root=(ctx, pending, depth, bits, tuple(root_path)),
        incumbent=incumbent,
    )
    return result


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


# ----------------------------------------------------------------------
# spec-level entry + parallel frontier
# ----------------------------------------------------------------------


def _search_shard_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry for one subtree shard (dict in / dict out, picklable)."""
    from ..api.spec import RunSpec

    spec = RunSpec.from_dict(payload["spec"])
    network = spec.build_graph()
    result = search_schedules(
        network,
        spec.build_protocol,
        objective=payload["objective"],
        max_nodes=payload["max_nodes"],
        use_kernel=payload.get("use_kernel"),
        root_path=tuple(payload["root_path"]),
        incumbent=payload.get("incumbent"),
    )
    return {
        "outcomes": sorted(result.outcomes),
        "nodes": result.nodes,
        "executions": result.executions,
        "truncated": result.truncated,
        "best_value": result.best_value,
        "best_depth": result.best_depth,
        "best_bits": result.best_bits,
        "best_outcome": result.best_outcome,
        "best_path": list(result.best_path) if result.best_path is not None else None,
        "nodes_at_best": result.nodes_at_best,
        "table": result.table,
    }


def search_spec_schedules(
    spec: Any,
    *,
    objective: str = "max-steps",
    max_nodes: int = 200_000,
    max_workers: Optional[int] = None,
    shard_target: Optional[int] = None,
    use_kernel: Optional[bool] = None,
    digest: Optional[Callable[[Any], int]] = None,
) -> GuidedSearchResult:
    """Guided search for a :class:`~repro.api.spec.RunSpec` workload.

    Only the spec's graph/protocol fields matter (the search *is* the
    scheduler).  With ``max_workers`` ≥ 2 the **parallel frontier**
    engages: the serial loop expands until it holds ``shard_target``
    frontier nodes (default ``4 × max_workers``), then those subtree
    roots — serialized as distinct-choice paths, so nothing
    protocol-specific crosses the process boundary — are dispatched in
    waves across :class:`~repro.api.runner.BatchRunner` workers.  Between
    waves the incumbent is merged and handed to the next wave as the
    seed bound (periodic incumbent/bound exchange), so later shards skip
    recording leaves an earlier wave already dominated.
    """
    chosen = get_objective(objective)
    network = spec.build_graph()
    if max_workers is None or max_workers <= 1:
        return search_schedules(
            network,
            spec.build_protocol,
            objective=objective,
            max_nodes=max_nodes,
            use_kernel=use_kernel,
            digest=digest,
        )

    from ..api.runner import BatchRunner

    walker = _make_walker(network, spec.build_protocol, use_kernel, None)
    table = TranspositionTable(digest)
    ctx, pending = walker.initial()
    target = shard_target if shard_target is not None else 4 * max_workers
    partial, frontier = _best_first(
        walker,
        chosen,
        max_nodes,
        table,
        root=(ctx, pending, 0, 0, ()),
        frontier_target=max(2, target),
    )

    outcomes = set(partial.outcomes)
    executions = partial.executions
    nodes = partial.nodes
    truncated = partial.truncated
    best = {
        "value": partial.best_value,
        "depth": partial.best_depth,
        "bits": partial.best_bits,
        "outcome": partial.best_outcome,
        "path": partial.best_path,
        "at": partial.nodes_at_best,
    }
    table_stats = dict(partial.table)
    shards = 0

    # Expansion-order frontier: best-priority subtrees dispatch first, so
    # the first wave already produces a strong incumbent for later waves.
    roots = [entry[-1] for entry in sorted(frontier)]
    if roots and not truncated and not (
        best["value"] is not None and chosen.satisfied(best["value"])
    ):
        budget_pool = max(0, max_nodes - nodes)
        # Deep budgets sized for ~`target` shards; a flood of shallow
        # subtree roots shrinks later waves' budgets rather than starving
        # every shard equally.
        per_shard = max(1, budget_pool // max(1, target))
        runner = BatchRunner(max_workers=max_workers, parallel=True)
        spec_dict = spec.to_dict()
        # At most ~8 waves: each wave is one pool dispatch and one
        # incumbent exchange, so exchange stays periodic without paying a
        # pool spin-up per handful of subtrees.
        wave_size = max(max_workers, -(-len(roots) // 8))
        for start in range(0, len(roots), wave_size):
            if nodes >= max_nodes:
                truncated = True
                break
            if best["value"] is not None and chosen.satisfied(best["value"]):
                break
            wave = roots[start : start + wave_size]
            wave_budget = min(per_shard, max(1, (max_nodes - nodes) // len(wave)))
            payloads = [
                {
                    "spec": spec_dict,
                    "objective": objective,
                    "root_path": list(path),
                    "max_nodes": wave_budget,
                    "use_kernel": use_kernel,
                    "incumbent": best["value"],
                }
                for path in wave
            ]
            for shard in runner.map_payloads(_search_shard_payload, payloads):
                shards += 1
                outcomes.update(shard["outcomes"])
                executions += shard["executions"]
                truncated = truncated or shard["truncated"]
                for key, count in shard["table"].items():
                    table_stats[key] = table_stats.get(key, 0) + count
                if shard["best_path"] is not None and (
                    best["value"] is None or shard["best_value"] > best["value"]
                ):
                    best = {
                        "value": shard["best_value"],
                        "depth": shard["best_depth"],
                        "bits": shard["best_bits"],
                        "outcome": shard["best_outcome"],
                        "path": tuple(shard["best_path"]),
                        "at": nodes + shard["nodes_at_best"],
                    }
                nodes += shard["nodes"]

    return GuidedSearchResult(
        objective=objective,
        outcomes=outcomes,
        nodes=nodes,
        executions=executions,
        truncated=truncated,
        mode=walker.mode,
        best_value=best["value"],
        best_depth=best["depth"],
        best_bits=best["bits"],
        best_outcome=best["outcome"],
        best_path=best["path"],
        nodes_at_best=best["at"],
        table=table_stats,
        shards=shards,
    )
