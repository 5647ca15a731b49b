"""The driver experiments E2, E4, E7, E14 and E19.

These experiments do not execute ``RunSpec`` grids: their work lives in
the lower-bound, exhaustive-verification and schedule-search harnesses.
Each is registered in :data:`~repro.api.registry.EXPERIMENTS` as a
:class:`~repro.api.campaign.DriverExperiment` that names its function here
by dotted path, so ``repro experiment``, ``repro run`` and ``repro report``
run them through the same :class:`~repro.api.campaign.CampaignRunner` as
the grid campaigns in :mod:`repro.analysis.campaigns`.  Every function
takes explicit size parameters; the defaults are the full-size run.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from ..api import PROTOCOLS
from ..graphs.enumerate_graphs import all_grounded_trees, all_internal_wirings
from ..lowerbounds.alphabet import alphabet_on_gn
from ..lowerbounds.commodity import (
    bandwidth_growth,
    collect_subset_sums,
    hair_quantities,
    verify_inequality_chain,
)
from ..lowerbounds.labels import label_growth_on_pruned, pruning_preserves_label
# A module global on purpose: e14 looks it up here at call time, so patching
# ``repro.analysis.experiments.explore_all_schedules`` (perfbench's ledger
# does) instruments e14.
from ..lowerbounds.schedules import explore_all_schedules

__all__ = [
    "experiment_e02_tree_lowerbound",
    "experiment_e04_commodity_lowerbound",
    "experiment_e07_label_lowerbound",
    "experiment_e14_exhaustive_verification",
    "experiment_e19_schedule_search",
]


def experiment_e02_tree_lowerbound(ns: Sequence[int] = (4, 8, 16, 32, 64, 128, 256)) -> List[Dict]:
    """E2 / Theorem 3.2, Figure 5: alphabet growth and bit floor on ``Gₙ``."""
    rows: List[Dict] = []
    for row in alphabet_on_gn(PROTOCOLS.get("tree-broadcast"), ns):
        rows.append(
            {
                "n": row.n,
                "E": row.num_edges,
                "distinct_symbols": row.distinct_symbols,
                "at_least_n": row.distinct_symbols >= row.n,
                "huffman_floor_bits": row.floor_bits,
                "measured_bits": row.measured_bits,
                "floor/(E·logE)": row.floor_per_edge_log_e,
            }
        )
    return rows


def experiment_e04_commodity_lowerbound(
    ns: Sequence[int] = (2, 4, 6, 8, 12, 16), subset_n: int = 6
) -> List[Dict]:
    """E4 / Theorem 3.8, Figure 4: skeleton-tree subset sums and bandwidth."""
    dag_protocol = PROTOCOLS.get("dag-broadcast")
    sums = collect_subset_sums(subset_n, dag_protocol)
    distinct = len(set(sums.values()))
    chain_ok = verify_inequality_chain(hair_quantities(subset_n, dag_protocol), subset_n)
    rows: List[Dict] = []
    for row in bandwidth_growth(ns, dag_protocol):
        rows.append(
            {
                "n": row.n,
                "E": row.num_edges,
                "max_msg_bits": row.max_message_bits,
                "bits_per_E": row.max_message_bits / row.num_edges,
                "subset_count": len(sums) if row.n == subset_n else "",
                "distinct_sums": distinct if row.n == subset_n else "",
                "chain_(1)_holds": chain_ok if row.n == subset_n else "",
            }
        )
    return rows


def experiment_e07_label_lowerbound(
    cases: Sequence[tuple] = ((2, 4), (2, 8), (2, 16), (2, 32), (3, 8), (4, 8))
) -> List[Dict]:
    """E7 / Theorem 5.2, Figure 6: pruning preserves labels; size grows
    ``Θ(h log d)`` on an ``(h+3)``-vertex graph."""
    rows: List[Dict] = []
    preserved = {
        (d, h): pruning_preserves_label(d, h)
        for d, h in cases
        if d ** h <= 4096  # full-tree runs stay tractable
    }
    for row in label_growth_on_pruned(cases):
        key = (row.degree, row.height)
        rows.append(
            {
                "degree": row.degree,
                "height": row.height,
                "V_pruned": row.num_vertices_pruned,
                "leaf_label_bits": row.leaf_label_bits,
                "bits/(h·logd)": row.bits_per_h_log_d,
                "pruning_identical": preserved.get(key, ""),
            }
        )
    return rows


def experiment_e14_exhaustive_verification(
    max_wiring_edges: int = 5, tree_internal: int = 3
) -> List[Dict]:
    """E14 (beyond the paper): exhaustive ∀-schedule, ∀-topology checking.

    Model-checks the termination "iff" over *every* delivery schedule on
    *every* small topology: all grounded trees with ``tree_internal``
    internal vertices under the tree protocol, and all 2-internal-vertex
    wirings (cycles and self-loops included) with at most
    ``max_wiring_edges`` edges under the general interval protocol.  The
    state spaces are exhausted (no truncation permitted), so on these
    instances the theorem holds with certainty rather than confidence.
    """
    rows: List[Dict] = []

    tree_count = 0
    tree_steps = 0
    tree_protocol = PROTOCOLS.get("tree-broadcast")
    for net in all_grounded_trees(tree_internal):
        result = explore_all_schedules(net, tree_protocol)
        assert not result.truncated
        assert result.always_terminates
        tree_count += 1
        tree_steps += result.steps
    rows.append(
        {
            "family": f"all grounded trees (k={tree_internal})",
            "protocol": "tree-broadcast",
            "topologies": tree_count,
            "delivered_msgs_explored": tree_steps,
            "iff_violations": 0,
        }
    )

    wiring_count = 0
    wiring_steps = 0
    violations = 0
    general_protocol = PROTOCOLS.get("general-broadcast")
    for net in all_internal_wirings(2):
        if net.num_edges > max_wiring_edges:
            continue
        result = explore_all_schedules(net, general_protocol, max_steps_total=400_000)
        assert not result.truncated
        expected = net.all_connected_to_terminal()
        ok = result.always_terminates if expected else result.never_terminates
        if not ok:
            violations += 1
        wiring_count += 1
        wiring_steps += result.steps
    rows.append(
        {
            "family": f"all 2-internal wirings (|E|<={max_wiring_edges})",
            "protocol": "general-broadcast",
            "topologies": wiring_count,
            "delivered_msgs_explored": wiring_steps,
            "iff_violations": violations,
        }
    )
    return rows


def experiment_e19_schedule_search(
    ns: Sequence[int] = (2, 3, 4),
    objective: str = "max-steps",
    max_nodes: int = 20_000,
    seed: int = 0,
    store=None,
) -> List[Dict]:
    """E19 (beyond the paper): guided adversarial schedule search vs. n.

    The ∀-schedule theorems say the protocols terminate under *every*
    adversary; E14 exhausts tiny schedule trees to confirm it.  E19 asks
    the complementary worst-case question at sizes exhaustion cannot
    reach: *how bad* can an adversary make the execution?  A best-first
    branch-and-bound search (:mod:`repro.lowerbounds.guided`) drives the
    general protocol on random digraphs toward the objective's worst
    leaf, and each row's incumbent is emitted as a replayable
    :class:`~repro.lowerbounds.certificates.ScheduleCertificate` — an
    artifact any third party can check bit-for-bit without trusting the
    search.  When a result store is attached (``repro experiment e19
    --store``), certificates also land under ``<store>/schedules/`` and
    each row's ``certificate_path`` (``schedules/<cert_id>.json``)
    resolves against the store root.
    """
    from ..api.spec import RunSpec
    from ..lowerbounds.certificates import search_and_certify, store_certificate

    rows: List[Dict] = []
    for n in ns:
        spec = RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": n, "seed": seed},
            protocol="general-broadcast",
            seed=seed,
        )
        network = spec.build_graph()
        result, certificate = search_and_certify(spec, objective=objective, max_nodes=max_nodes)
        row = {
            "n": n,
            "vertices": network.num_vertices,
            "edges": network.num_edges,
            "protocol": spec.protocol,
            "objective": objective,
            "worst_steps": result.best_depth,
            "worst_bits": result.best_bits,
            "outcome": result.best_outcome,
            "nodes": result.nodes,
            "nodes_at_best": result.nodes_at_best,
            "executions": result.executions,
            "exhausted": not result.truncated,
            "mode": result.mode,
            # Always 0 since the search runs in one process; kept because
            # the benchmark's pinned e19 row digests cover this key.
            "shards": 0,
            "certificate": certificate.cert_id if certificate is not None else None,
        }
        if certificate is not None and store is not None:
            # Relative to the store root (the row cache serves rows
            # verbatim, so a copied or moved store must stay valid).
            path = store_certificate(store, certificate)
            row["certificate_path"] = os.path.relpath(path, store.root)
        rows.append(row)
    return rows
