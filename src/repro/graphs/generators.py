"""Random graph families for the scaling experiments.

All generators produce :class:`~repro.network.graph.DirectedNetwork`
instances satisfying the paper's standing assumptions — root ``s`` with no
in-edges and a single out-edge, terminal ``t`` with no out-edges, every
vertex reachable from ``s`` — and, unless a generator says otherwise, every
vertex connected to ``t`` (so the protocols must terminate).  Each generator
takes an explicit ``seed``; runs are exactly reproducible.

Families:

* :func:`random_grounded_tree` — uniform-attachment grounded trees (every
  internal vertex in-degree 1; leaves wired to ``t``) for E1/E9.
* :func:`random_dag` — layered random DAGs with tunable width/density for E3.
* :func:`random_digraph` — general digraphs with tunable back-edge (cycle)
  density for E5/E6/E11.
* :func:`layered_diamond_dag` — the path-multiplicity worst case for the
  eager-splitting ablation E10.
* :func:`path_network` — a simple ``s → v₁ → … → v_n → t`` path.
* :func:`with_unreachable_terminal_region` — mutates a family into the
  non-termination regime for E8 by adding a vertex that cannot reach ``t``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..api.registry import GRAPH_TRANSFORMS, GRAPHS
from ..network.graph import DirectedNetwork

__all__ = [
    "random_grounded_tree",
    "random_dag",
    "random_digraph",
    "layered_diamond_dag",
    "path_network",
    "geometric_sensor_field",
    "with_dead_end_vertex",
    "with_stranded_cycle",
]

Edge = Tuple[int, int]


def _grounded_tree_edges(num_internal: int, seed: int) -> List[Edge]:
    """The edge list of :func:`random_grounded_tree` (its own seeded stream)."""
    if num_internal < 1:
        raise ValueError("need at least one internal vertex")
    rng = random.Random(seed)
    root, terminal = 0, 1
    first_internal = 2
    n = num_internal + 2
    edges: List[Edge] = []
    children_of = {v: [] for v in range(first_internal, n)}

    edges.append((root, first_internal))  # s's single out-edge
    for v in range(first_internal + 1, n):
        parent = rng.randrange(first_internal, v)
        children_of[parent].append(v)
        edges.append((parent, v))

    for v in range(first_internal, n):
        if not children_of[v] or rng.random() < 0.5:
            edges.append((v, terminal))
    return edges


def _dag_edges(num_internal: int, seed: int, extra_edge_factor: float) -> List[Edge]:
    """The edge list of :func:`random_dag`: the tree's edges plus forward edges."""
    rng = random.Random(seed)
    edges = _grounded_tree_edges(num_internal, seed)
    n = num_internal + 2
    first_internal = 2
    if num_internal >= 2:
        for _ in range(int(extra_edge_factor * num_internal)):
            a = rng.randrange(first_internal, n - 1)
            b = rng.randrange(a + 1, n)
            edges.append((a, b))
    return edges


@GRAPHS.register()
def random_grounded_tree(num_internal: int, seed: int = 0) -> DirectedNetwork:
    """A random grounded tree with ``num_internal`` internal vertices.

    Construction: vertex 0 is the root ``s``, vertex 1 the terminal ``t``.
    Internal vertices ``2 .. num_internal+1`` attach, in order, to a parent
    drawn uniformly from the internal vertices before them (no cap on a
    parent's children); after attachment, every internal vertex with no
    children yet is wired to ``t``, and every internal vertex additionally
    gets a ``t`` edge with probability ½ — matching the paper's picture where
    the terminal may have many in-edges.  Every internal vertex has in-degree
    exactly 1 and is connected to ``t``.
    """
    edges = _grounded_tree_edges(num_internal, seed)
    return DirectedNetwork(num_internal + 2, edges, root=0, terminal=1, strict_root=True)


@GRAPHS.register()
def random_dag(
    num_internal: int,
    seed: int = 0,
    *,
    extra_edge_factor: float = 1.5,
) -> DirectedNetwork:
    """A random DAG: a grounded-tree skeleton plus random forward edges.

    The skeleton guarantees reachability from ``s`` and connectivity to
    ``t``; ``extra_edge_factor · num_internal`` additional forward edges
    (from lower- to higher-numbered internal vertices, hence acyclic) add the
    in-degree-greater-than-one structure that distinguishes DAGs from
    grounded trees.
    """
    edges = _dag_edges(num_internal, seed, extra_edge_factor)
    return DirectedNetwork(num_internal + 2, edges, root=0, terminal=1, strict_root=True)


@GRAPHS.register()
def random_digraph(
    num_internal: int,
    seed: int = 0,
    *,
    extra_edge_factor: float = 1.0,
    back_edge_factor: float = 0.5,
) -> DirectedNetwork:
    """A general digraph: a DAG plus random *back* edges creating cycles.

    ``back_edge_factor · num_internal`` edges from higher- to lower-numbered
    internal vertices close directed cycles — the regime that defeats the
    scalar-commodity protocols and requires Section 4's interval machinery.
    Connectivity to ``t`` is preserved (back edges only add paths).
    """
    rng = random.Random(seed + 7919)
    edges = _dag_edges(num_internal, seed, extra_edge_factor)
    n = num_internal + 2
    first_internal = 2
    if num_internal >= 2:
        for _ in range(int(back_edge_factor * num_internal)):
            a = rng.randrange(first_internal + 1, n)
            b = rng.randrange(first_internal, a)
            edges.append((a, b))
    return DirectedNetwork(n, edges, root=0, terminal=1, strict_root=True)


@GRAPHS.register()
def layered_diamond_dag(depth: int) -> DirectedNetwork:
    """The path-multiplicity worst case: ``depth`` stacked 2-diamonds.

    Layer ``i`` has two parallel vertices both feeding both vertices of layer
    ``i+1``; the number of ``s → v`` paths doubles every layer, so an eager
    per-message splitting protocol sends ``2^depth`` messages on the last
    edges while the aggregating DAG protocol sends exactly one per edge
    (ablation E10).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    root, terminal = 0, 1
    edges: List[Edge] = []
    next_id = 2
    top = next_id  # single entry vertex after the root
    edges.append((root, top))
    next_id += 1
    prev_layer = [top]
    for _ in range(depth):
        a, b = next_id, next_id + 1
        next_id += 2
        for u in prev_layer:
            edges.append((u, a))
            edges.append((u, b))
        prev_layer = [a, b]
    for u in prev_layer:
        edges.append((u, terminal))
    return DirectedNetwork(next_id, edges, root=root, terminal=terminal, strict_root=True)


@GRAPHS.register()
def path_network(length: int) -> DirectedNetwork:
    """``s → v₁ → v₂ → … → v_length → t``, the minimal grounded tree."""
    if length < 1:
        raise ValueError("length must be >= 1")
    root, terminal = 0, 1
    edges: List[Edge] = [(root, 2)]
    for i in range(length - 1):
        edges.append((2 + i, 3 + i))
    edges.append((1 + length, terminal))
    return DirectedNetwork(length + 2, edges, root=root, terminal=terminal, strict_root=True)


@GRAPHS.register()
def geometric_sensor_field(
    num_sensors: int,
    seed: int = 0,
    *,
    base_range: float = 0.35,
    range_spread: float = 0.25,
) -> DirectedNetwork:
    """A unidirectional wireless sensor field — the paper's motivating domain.

    ``num_sensors`` nodes are placed uniformly in the unit square, each with
    its own transmit range drawn from
    ``[base_range, base_range + range_spread]``.  Sensor ``i`` has a
    directed link to sensor ``j`` when ``j`` lies within ``i``'s range —
    asymmetric radio power makes links *directed*, which is exactly the
    regime the paper targets (a node may be heard by nodes it cannot hear).

    The root ``s`` is a gateway wired into the sensor nearest the origin;
    the terminal ``t`` is a sink that the sensors nearest the far corner
    report to.  Connectivity is then patched minimally so the standing model
    assumptions hold: every sensor unreachable from ``s`` gains an in-link
    from a reachable sensor (a relay deployment), and every sensor that
    cannot reach ``t`` gains an uplink to the sink.  The patching is
    deterministic given the seed.
    """
    if num_sensors < 2:
        raise ValueError("need at least two sensors")
    rng = random.Random(seed)
    root, terminal = 0, 1
    first = 2
    n = num_sensors + 2
    positions = {v: (rng.random(), rng.random()) for v in range(first, n)}
    ranges = {
        v: base_range + range_spread * rng.random() for v in range(first, n)
    }

    def dist2(a: int, b: int) -> float:
        (xa, ya), (xb, yb) = positions[a], positions[b]
        return (xa - xb) ** 2 + (ya - yb) ** 2

    edges: List[Edge] = []
    gateway_target = min(positions, key=lambda v: positions[v][0] ** 2 + positions[v][1] ** 2)
    edges.append((root, gateway_target))
    for a in range(first, n):
        for b in range(first, n):
            if a != b and dist2(a, b) <= ranges[a] ** 2:
                edges.append((a, b))
    # Sensors near the far corner report to the sink.
    for v in range(first, n):
        (x, y) = positions[v]
        if (1 - x) ** 2 + (1 - y) ** 2 <= ranges[v] ** 2:
            edges.append((v, terminal))

    def build() -> DirectedNetwork:
        return DirectedNetwork(n, edges, root=root, terminal=terminal, strict_root=True)

    # Patch reachability from s: attach stragglers to an already-reachable
    # sensor (deterministic order).
    net = build()
    while True:
        reachable = net.reachable_from(root)
        missing = [v for v in range(first, n) if v not in reachable]
        if not missing:
            break
        anchor = sorted(r for r in reachable if r not in (root, terminal))[0]
        edges.append((anchor, missing[0]))
        net = build()
    # Patch connectivity to t: give stranded sensors a long-range uplink.
    while True:
        coreach = net.coreachable_to(terminal)
        missing = [v for v in range(first, n) if v not in coreach]
        if not missing:
            break
        edges.append((missing[0], terminal))
        net = build()
    return net


@GRAPH_TRANSFORMS.register()
def with_dead_end_vertex(network: DirectedNetwork, attach_to: Optional[int] = None) -> DirectedNetwork:
    """Add a vertex reachable from ``s`` but with no path to ``t``.

    The new vertex hangs off ``attach_to`` (default: the root's unique
    successor) with out-degree 0.  On the result, every protocol in the paper
    must **not** terminate (the "iff" direction of Theorems 3.1/4.2/5.1); the
    commodity routed into the dead end can never be accounted for at ``t``.
    """
    if attach_to is None:
        attach_to = network.edge_head(network.out_edge_ids(network.root)[0])
    if attach_to in (network.root, network.terminal):
        raise ValueError("attach the dead end to an internal vertex")
    n = network.num_vertices
    edges = list(network.edges) + [(attach_to, n)]
    return DirectedNetwork(
        n + 1, edges, root=network.root, terminal=network.terminal, strict_root=False
    )


@GRAPH_TRANSFORMS.register()
def with_stranded_cycle(network: DirectedNetwork, attach_to: Optional[int] = None) -> DirectedNetwork:
    """Add a 2-cycle reachable from ``s`` with no path back to ``t``.

    Unlike :func:`with_dead_end_vertex` the stranded region is cyclic, so the
    general protocol's cycle detection *will* fire inside it — but the β
    notification also cannot reach ``t`` (no outgoing path), covering the
    subtler non-termination case for Section 4/5 protocols.
    """
    if attach_to is None:
        attach_to = network.edge_head(network.out_edge_ids(network.root)[0])
    if attach_to in (network.root, network.terminal):
        raise ValueError("attach the stranded cycle to an internal vertex")
    n = network.num_vertices
    a, b = n, n + 1
    edges = list(network.edges) + [(attach_to, a), (a, b), (b, a)]
    return DirectedNetwork(
        n + 2, edges, root=network.root, terminal=network.terminal, strict_root=False
    )
