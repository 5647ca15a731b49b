"""Bounded model checking over *all* delivery schedules.

The correctness theorems are ∀-schedule statements.  Seeded random and
adversarial schedulers sample the schedule space; this module *exhausts* it
on small instances: :func:`explore_all_schedules` walks the tree of every
possible delivery order (at each step, any in-flight message may be the
next delivered) and reports the set of reachable final outcomes.

Branching never deep-copies anything.  One DFS walks the tree through a
*walker* — the object that performs one delivery from a saved
configuration and captures the result — and there are two walkers:

* **Kernel walker** (the fast default): when the protocol compiles a
  fast-path kernel (:meth:`~repro.core.model.AnonymousProtocol.compile_fastpath`)
  that supports ``snapshot()``/``restore()``, a configuration is the
  kernel's whole-network flat state as nested tuples sharing the
  immutable leaves, and a branch is a restore + one delivery.  This turns
  E14's exhaustive search from allocation-bound into tuple-copy-bound.
* **Object walker** (the general fallback, and always used when an
  ``invariant`` hook needs live vertex states): per-branch state forks go
  through :meth:`~repro.core.model.AnonymousProtocol.clone_state`
  (deepcopy by default; the shipped protocols override it with cheap
  immutable-sharing copies) and in-flight payloads through
  :meth:`~repro.core.model.AnonymousProtocol.clone_message`.

Confluent configurations are collapsed through a
:class:`TranspositionTable`: configurations are keyed by a compact digest
of the exact (in-flight multiset, state) pair, with an exact-compare
bucket behind every digest so a hash collision can never merge two
genuinely different configurations.  Payload reprs are computed once at
emission time and reused across every branch that carries the message,
replacing the old per-node re-``repr`` of the whole pending list.

Both walkers enumerate the same distinct choices in the same order and
key configurations exactly, so outcome/execution/step counts agree —
``tests/lowerbounds/test_schedules.py`` asserts mode equivalence on
enumerated topologies.  The schedule tree is exponential in the number of
concurrent messages; callers bound the instance size (≤ ~10 messages in
flight is comfortable) and/or pass a node budget.  The integration tests
run it over every ≤-4-internal-vertex network from
:mod:`repro.graphs.enumerate_graphs`, which machine-checks the
termination "iff" against *every* schedule on *every* small topology —
about as close to the theorem as testing can get.

The best-first *guided* search over the same collapsed configuration
graph, with the same walkers, lives in :mod:`repro.lowerbounds.guided`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.model import AnonymousProtocol, VertexView
from ..network.graph import DirectedNetwork

__all__ = [
    "ScheduleExploration",
    "TranspositionTable",
    "explore_all_schedules",
]


def _freeze(obj: Any) -> Any:
    """Recursively tuple-ify lists so any exact key becomes hashable.

    Kernel snapshots share flat unions (plain lists) by reference; those
    make the snapshot unhashable even though equality compares fine.  The
    default digest freezes on demand — only when ``hash`` refuses.
    """
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(item) for item in obj)
    return obj


def _config_digest(key: Any) -> int:
    """The default compact digest: Python's tuple hash, freezing if needed."""
    try:
        return hash(key)
    except TypeError:
        return hash(_freeze(key))


class TranspositionTable:
    """Digest-keyed visited-set with a collision-safe exact-compare fallback.

    Every configuration key (an exact ``(pending multiset, state)`` pair)
    maps to a compact integer digest; behind each digest sits a bucket of
    the exact keys (with their best *rank*, see below) that produced it.
    A digest hit therefore never suffices on its own — membership is
    decided by comparing the exact keys — so two different configurations
    that collide in the digest are both explored (tallied under
    :attr:`collisions`) instead of silently merged.

    ``rank`` supports branch-and-bound re-opening: a maximizing search
    that reaches a known configuration along a *deeper/costlier* path
    must re-expand it, because its subtree now yields longer executions.
    The exhaustive DFS passes a constant rank, which reduces the table to
    a plain visited-set.

    Parameters
    ----------
    digest:
        Optional override for the digest function (``key -> int``).
        Exists for fault injection in tests: a constant digest forces
        every lookup through the exact-compare fallback, proving the
        table degrades to correct (if slower) behaviour under collisions.
    """

    __slots__ = ("_buckets", "_digest", "entries", "hits", "collisions", "reopened")

    def __init__(self, digest: Optional[Callable[[Any], int]] = None) -> None:
        self._buckets: Dict[int, List[List[Any]]] = {}
        self._digest = digest if digest is not None else _config_digest
        #: Distinct configurations stored.
        self.entries = 0
        #: Lookups that found the configuration already present (≥ rank).
        self.hits = 0
        #: Distinct configurations sharing a digest with an earlier one.
        self.collisions = 0
        #: Re-openings: a known configuration reached at a better rank.
        self.reopened = 0

    def visit(self, key: Any, rank: int = 0) -> bool:
        """Record ``key`` at ``rank``; return True iff it should be expanded.

        True means the configuration is new, collided into a fresh bucket
        slot, or was re-opened at a strictly better rank; False means it
        was already visited at an equal-or-better rank.
        """
        digest = self._digest(key)
        bucket = self._buckets.get(digest)
        if bucket is None:
            self._buckets[digest] = [[key, rank]]
            self.entries += 1
            return True
        for entry in bucket:
            if entry[0] == key:
                if rank > entry[1]:
                    entry[1] = rank
                    self.reopened += 1
                    return True
                self.hits += 1
                return False
        self.collisions += 1
        self.entries += 1
        bucket.append([key, rank])
        return True

    def stats(self) -> Dict[str, int]:
        """The counters as a plain dict (for results and artifacts)."""
        return {
            "entries": self.entries,
            "hits": self.hits,
            "collisions": self.collisions,
            "reopened": self.reopened,
        }


#: An in-flight message: ``(edge_id, payload, payload_repr, bits)``.  The
#: repr and bit size are computed once at emission time and shared by
#: every branch that carries the message.
Pending = Tuple[int, Any, str, int]


def _pending_sig(pending: Sequence[Pending]) -> Tuple[Tuple[int, str], ...]:
    """Order-free exact signature of the in-flight multiset.

    Items carry their payload repr from emission time, so the signature
    never re-``repr``\\ s a payload; sorting on (edge, text) makes equal
    multisets produce equal signatures regardless of delivery history.
    """
    return tuple(sorted((item[0], item[2]) for item in pending))


def _distinct_choice_indices(pending: Sequence[Pending]) -> List[int]:
    """First-occurrence index of every distinct (edge, payload) delivery.

    Deliveries of equal payloads on the same edge are interchangeable;
    collapsing them here is what keeps the walk over the *quotient*
    schedule tree.  First-occurrence order is emission order, which both
    walkers share — the guided search's certificate paths rely on it.
    """
    seen: Dict[Tuple[int, str], int] = {}
    for index, item in enumerate(pending):
        seen.setdefault((item[0], item[2]), index)
    return list(seen.values())


class _KernelWalker:
    """Flat-kernel stepping: restore + deliver + snapshot."""

    mode = "kernel"

    def __init__(self, network: DirectedNetwork, kernel: Any) -> None:
        self.kernel = kernel
        self.root = network.root
        self.terminal = network.terminal
        self.out_edge_ids = [
            network.out_edge_ids(v) for v in range(network.num_vertices)
        ]
        self.edge_head = [network.edge_head(e) for e in range(network.num_edges)]
        self.in_port_of = [
            network.in_port_of_edge(e) for e in range(network.num_edges)
        ]

    def initial(self) -> Tuple[Any, List[Pending]]:
        root_ports = self.out_edge_ids[self.root]
        pending = [
            (root_ports[out_port], payload, repr(payload), bits)
            for out_port, payload, bits in self.kernel.initial_emissions(self.root)
        ]
        return self.kernel.snapshot(), pending

    def key(self, ctx: Any) -> Any:
        """Exact state key of a configuration: kernel snapshots are flat
        tuples over immutable leaves, so they key themselves."""
        return ctx

    def deliver(
        self, ctx: Any, edge_id: int, payload: Any
    ) -> Tuple[List[Pending], bool]:
        kernel = self.kernel
        kernel.restore(ctx)
        head = self.edge_head[edge_id]
        emissions = kernel.deliver(head, self.in_port_of[edge_id], payload)
        out_ids = self.out_edge_ids[head]
        out = [
            (out_ids[out_port], out_payload, repr(out_payload), bits)
            for out_port, out_payload, bits in emissions
        ]
        terminated = head == self.terminal and kernel.check_terminal(self.terminal)
        return out, terminated

    def capture(self) -> Tuple[Any, Any]:
        """The just-delivered configuration as (frontier ctx, exact state key)."""
        snap = self.kernel.snapshot()
        return snap, snap


class _ObjectWalker:
    """Live-protocol stepping: clone_state + on_receive.

    ``invariant``, when given, is checked on the vertex-state dict after
    every delivery; a ``False`` return raises :class:`AssertionError`.
    """

    mode = "object"

    def __init__(
        self,
        network: DirectedNetwork,
        protocol: AnonymousProtocol,
        invariant: Optional[Callable[[Dict[int, Any]], bool]] = None,
    ) -> None:
        self.protocol = protocol
        self.network = network
        self.terminal = network.terminal
        self.invariant = invariant
        self.views = [
            VertexView(
                in_degree=network.in_degree(v), out_degree=network.out_degree(v)
            )
            for v in range(network.num_vertices)
        ]
        self._last_states: Optional[Dict[int, Any]] = None

    def initial(self) -> Tuple[Dict[int, Any], List[Pending]]:
        network, protocol = self.network, self.protocol
        states = {
            v: protocol.create_state(self.views[v])
            for v in range(network.num_vertices)
        }
        root_ports = network.out_edge_ids(network.root)
        pending = [
            (
                root_ports[out_port],
                payload,
                repr(payload),
                protocol.message_bits(payload),
            )
            for out_port, payload in protocol.initial_emissions(
                self.views[network.root]
            )
        ]
        return states, pending

    def key(self, states: Dict[int, Any]) -> Tuple[str, ...]:
        """Exact state key of a configuration.  Reprs are complete for the
        shipped protocols' state types (the GeneralState repr is kept
        exhaustive for exactly this purpose), so equal keys really are
        confluent configurations."""
        return tuple(repr(states[v]) for v in range(self.network.num_vertices))

    def deliver(
        self, ctx: Dict[int, Any], edge_id: int, payload: Any
    ) -> Tuple[List[Pending], bool]:
        network, protocol = self.network, self.protocol
        branch = {v: protocol.clone_state(s) for v, s in ctx.items()}
        head = network.edge_head(edge_id)
        in_port = network.in_port_of_edge(edge_id)
        new_state, emissions = protocol.on_receive(
            branch[head], self.views[head], in_port, protocol.clone_message(payload)
        )
        branch[head] = new_state
        if self.invariant is not None and not self.invariant(branch):
            raise AssertionError(f"invariant violated after delivering edge {edge_id}")
        out_ids = network.out_edge_ids(head)
        out = [
            (
                out_ids[out_port],
                out_payload,
                repr(out_payload),
                protocol.message_bits(out_payload),
            )
            for out_port, out_payload in emissions
        ]
        terminated = head == self.terminal and protocol.is_terminated(new_state)
        self._last_states = branch
        return out, terminated

    def capture(self) -> Tuple[Dict[int, Any], Tuple[str, ...]]:
        """The just-delivered configuration as (frontier ctx, exact state key)."""
        states = self._last_states
        assert states is not None, "capture() before deliver()"
        return states, self.key(states)


def _make_walker(
    network: DirectedNetwork,
    protocol_factory: Callable[[], AnonymousProtocol],
    use_kernel: Optional[bool],
    compiled: Optional[Any],
    invariant: Optional[Callable[[Dict[int, Any]], bool]] = None,
) -> Any:
    """Pick the walker: the kernel one whenever the protocol offers a
    snapshot-capable kernel, unless ``use_kernel`` is False or an
    ``invariant`` needs live states.  ``use_kernel=True`` raises
    :class:`ValueError` if the kernel walker is unavailable."""
    protocol = protocol_factory()
    kernel = None
    if use_kernel is not False and invariant is None:
        from ..network.fastpath import CompiledNetwork

        if compiled is None or getattr(compiled, "network", None) is not network:
            compiled = CompiledNetwork(network)
        candidate = protocol.compile_fastpath(compiled)
        if (
            candidate is not None
            and callable(getattr(candidate, "snapshot", None))
            and callable(getattr(candidate, "restore", None))
        ):
            kernel = candidate
    if use_kernel is True and kernel is None:
        raise ValueError(
            "use_kernel=True but the protocol offers no snapshot-capable "
            "kernel (or an invariant hook forced object mode)"
        )
    if kernel is not None:
        return _KernelWalker(network, kernel)
    return _ObjectWalker(network, protocol, invariant)


@dataclass
class ScheduleExploration:
    """Aggregate result of walking the schedule tree."""

    #: Distinct terminal outcomes reached: "terminated" / "quiescent".
    outcomes: Set[str]
    #: Complete executions explored (leaves of the schedule tree).
    executions: int
    #: Delivery steps across all branches (search effort).
    steps: int
    #: True iff the walk was cut short by the node budget.
    truncated: bool
    #: Longest single execution explored, in delivery steps.
    max_depth: int = 0
    #: Transposition-table counters for the walk (entries/hits/collisions).
    table: Optional[Dict[str, int]] = None

    @property
    def always_terminates(self) -> bool:
        """Every schedule reached termination — only claimed on full walks.

        A truncated walk has unexplored schedules, so it cannot support a
        ∀-schedule claim; both properties then report False (inconclusive)
        rather than a silently over-confident answer.
        """
        return not self.truncated and self.outcomes == {"terminated"}

    @property
    def never_terminates(self) -> bool:
        """No schedule reached termination — only claimed on full walks."""
        return not self.truncated and self.outcomes == {"quiescent"}


def explore_all_schedules(
    network: DirectedNetwork,
    protocol_factory: Callable[[], AnonymousProtocol],
    *,
    max_steps_total: int = 200_000,
    invariant: Optional[Callable[[Dict[int, Any]], bool]] = None,
    use_kernel: Optional[bool] = None,
    compiled: Optional[Any] = None,
    digest: Optional[Callable[[Any], int]] = None,
) -> ScheduleExploration:
    """Explore every delivery order of ``protocol`` on ``network``.

    Parameters
    ----------
    network / protocol_factory:
        The instance under check; a fresh protocol is created once (its
        transition functions are shared; per-branch state is snapshotted).
    max_steps_total:
        Global budget on delivered messages across all branches; when
        exceeded the result is marked ``truncated`` and the
        ``always_terminates``/``never_terminates`` verdicts report
        inconclusive (False).
    invariant:
        Optional predicate over the vertex-state dict, checked after every
        delivery on every branch; a ``False`` return raises
        :class:`AssertionError` naming the delivered edge.  Providing an
        invariant forces the object walker (the hook needs live
        per-vertex states).
    use_kernel:
        Force (``True``) or forbid (``False``) the kernel walker;
        ``None`` (default) uses the kernel whenever the protocol offers a
        snapshot-capable one and no invariant was given.  Forcing ``True``
        raises :class:`ValueError` if the protocol cannot satisfy it.
    compiled:
        Optional pre-built :class:`~repro.network.fastpath.CompiledNetwork`
        for ``network`` — callers that explore many protocols on one
        topology (E14, the guided differential suite) compile once and
        pass it here, exactly like ``run_protocol_fastpath(compiled=...)``.
        Ignored (and recompiled) unless it wraps this very ``network``.
    digest:
        Optional override of the transposition-table digest function; see
        :class:`TranspositionTable`.  Testing/diagnostic hook.

    Notes
    -----
    Branches that reach the stopping predicate still continue to quiescence
    conceptually, but for outcome classification it suffices to record that
    termination was reached; the branch is closed at that point ("terminated"
    is absorbing for the paper's semantics — ``S`` is checked on ``t``'s
    monotone state).
    """
    walker = _make_walker(network, protocol_factory, use_kernel, compiled, invariant)
    ctx, initial = walker.initial()

    outcomes: Set[str] = set()
    executions = 0
    steps = 0
    max_depth = 0
    truncated = False

    # Explicit DFS over (configuration, in-flight multiset) to avoid
    # recursion limits; each frame owns its configuration.  Configurations
    # are deduplicated at push time, collapsing confluent schedule branches.
    table = TranspositionTable(digest)
    stack: List[Tuple[Any, List[Pending], int]] = [(ctx, initial, 0)]
    table.visit((_pending_sig(initial), walker.key(ctx)))
    deliver = walker.deliver
    capture = walker.capture

    while stack:
        ctx, pending, depth = stack.pop()
        if not pending:
            outcomes.add("quiescent")
            executions += 1
            max_depth = max(max_depth, depth)
            continue
        if steps >= max_steps_total:
            truncated = True
            break

        for index in _distinct_choice_indices(pending):
            edge_id, payload, _text, _bits = pending[index]
            emissions, terminated = deliver(ctx, edge_id, payload)
            steps += 1
            if terminated:
                outcomes.add("terminated")
                executions += 1
                max_depth = max(max_depth, depth + 1)
                continue
            branch_pending = pending[:index] + pending[index + 1 :] + emissions
            branch_ctx, state_key = capture()
            if table.visit((_pending_sig(branch_pending), state_key)):
                stack.append((branch_ctx, branch_pending, depth + 1))

    return ScheduleExploration(
        outcomes=outcomes,
        executions=executions,
        steps=steps,
        truncated=truncated,
        max_depth=max_depth,
        table=table.stats(),
    )
