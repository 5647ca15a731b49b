"""Experiment drivers E1–E18 — the paper's objects plus the fault axis.

Each ``experiment_eNN`` function runs the full workload for its experiment
and returns a list of dict rows; the matching bench in ``benchmarks/``
prints the rows and asserts the expected shape, and EXPERIMENTS.md records a
snapshot.  Sizes default to values that keep a full sweep comfortably inside
a laptop run; every driver takes explicit parameters so larger sweeps are a
call away.

Since the campaign redesign, the simulation-backed drivers are thin
keyword-argument veneers over the *registered experiment campaigns* in
:mod:`repro.analysis.campaigns`: each one looks up its
:class:`~repro.api.campaign.ExperimentSpec` in
:data:`~repro.api.registry.EXPERIMENTS`, swaps in the caller's grid axes
via :meth:`~repro.api.campaign.ExperimentSpec.with_overrides`, and executes
it with an in-process :class:`~repro.api.campaign.CampaignRunner` — so
``experiment_e05_general_broadcast()`` and
``repro experiment e05`` run the *same* declarative campaign.  The
white-box experiments (E6, E11, E12) wrap the same grid expansion with
``white_box`` aggregators that inspect live per-vertex states.  Only the
lower-bound and exhaustive-verification harnesses (E2, E4, E7, E14) remain
imperative here; they are registered as
:class:`~repro.api.campaign.DriverExperiment` entries.

Engine selection is an explicit ``engine=...`` keyword on the
simulation-backed drivers (or ``CampaignRunner(engine=...)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import EXPERIMENTS, PROTOCOLS
from ..api.campaign import CampaignRunner, ExperimentSpec
from ..graphs.enumerate_graphs import all_grounded_trees, all_internal_wirings
from ..lowerbounds.alphabet import alphabet_on_gn
from ..lowerbounds.commodity import (
    bandwidth_growth,
    collect_subset_sums,
    hair_quantities,
    verify_inequality_chain,
)
from ..lowerbounds.labels import label_growth_on_pruned, pruning_preserves_label
from ..lowerbounds.schedules import explore_all_schedules
from . import campaigns as _campaigns  # noqa: F401  (registers EXPERIMENTS)

__all__ = [
    "experiment_e01_tree_broadcast",
    "experiment_e02_tree_lowerbound",
    "experiment_e03_dag_broadcast",
    "experiment_e04_commodity_lowerbound",
    "experiment_e05_general_broadcast",
    "experiment_e06_labeling",
    "experiment_e07_label_lowerbound",
    "experiment_e08_nontermination",
    "experiment_e09_split_ablation",
    "experiment_e10_eager_ablation",
    "experiment_e11_mapping",
    "experiment_e12_gap",
    "experiment_e13_round_complexity",
    "experiment_e14_exhaustive_verification",
    "experiment_e15_state_space",
    "experiment_e16_scheduler_sensitivity",
    "experiment_e17_loss_termination",
    "experiment_e18_churn_labeling",
    "experiment_e19_schedule_search",
    "ALL_EXPERIMENTS",
]

def _experiment(name: str) -> ExperimentSpec:
    spec = EXPERIMENTS.get(name)
    assert isinstance(spec, ExperimentSpec), name
    return spec


def _campaign_rows(experiment: ExperimentSpec, engine: Optional[str]) -> List[Dict]:
    """Execute a campaign serially in-process and return its rows.

    Serial on purpose — process-level parallelism belongs to the CLI
    (``repro experiment``/``repro batch``), and nesting pools inside
    drivers would oversubscribe it.
    """
    return CampaignRunner(engine=engine, parallel=False).run(experiment).rows


def experiment_e01_tree_broadcast(
    sizes: Sequence[int] = (50, 100, 200, 400, 800),
    seeds: Sequence[int] = (0, 1, 2),
    engine: Optional[str] = None,
) -> List[Dict]:
    """E1 / Theorem 3.1: grounded-tree broadcast cost vs ``|E| log |E|``."""
    exp = _experiment("e01").with_overrides(
        axes={"graph_params.num_internal": list(sizes), "seed": list(seeds)}
    )
    return _campaign_rows(exp, engine)


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


def experiment_e03_dag_broadcast(
    sizes: Sequence[int] = (25, 50, 100, 200),
    seeds: Sequence[int] = (0, 1, 2),
    engine: Optional[str] = None,
) -> List[Dict]:
    """E3 / Section 3.3: DAG broadcast; one message per edge, dyadic widths."""
    exp = _experiment("e03").with_overrides(
        axes={"graph_params.num_internal": list(sizes), "seed": list(seeds[:1])}
    )
    return _campaign_rows(exp, engine)


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


def experiment_e05_general_broadcast(
    sizes: Sequence[int] = (10, 20, 40, 80),
    seeds: Sequence[int] = (0, 1),
    engine: Optional[str] = None,
) -> List[Dict]:
    """E5 / Theorems 4.2–4.3: interval broadcast on cyclic digraphs."""
    exp = _experiment("e05").with_overrides(
        axes={"graph_params.num_internal": list(sizes), "seed": list(seeds[:1])}
    )
    return _campaign_rows(exp, engine)


def experiment_e06_labeling(
    sizes: Sequence[int] = (10, 20, 40, 80),
    seeds: Sequence[int] = (0, 1),
    engine: Optional[str] = None,
) -> List[Dict]:
    """E6 / Theorem 5.1: label uniqueness and size vs ``|V| log d_out``."""
    exp = _experiment("e06").with_overrides(
        axes={"graph_params.num_internal": list(sizes), "seed": list(seeds[:1])}
    )
    return _campaign_rows(exp, engine)


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


def experiment_e08_nontermination(
    sizes: Sequence[int] = (8, 14),
    seeds: Sequence[int] = (0, 1),
    engine: Optional[str] = None,
) -> List[Dict]:
    """E8: the "iff" direction — zero false terminations on bad graphs."""
    exp = _experiment("e08").with_overrides(
        axes={"graph_params.num_internal": list(sizes), "seed": list(seeds)}
    )
    return _campaign_rows(exp, engine)


def experiment_e09_split_ablation(
    sizes: Sequence[int] = (50, 100, 200, 400),
    seed: int = 0,
    engine: Optional[str] = None,
) -> List[Dict]:
    """E9 / Section 3.1 ablation: naive ``x/d`` split vs power-of-two split."""
    exp = _experiment("e09").with_overrides(
        axes={"graph_params.num_internal": list(sizes)}, base={"seed": seed}
    )
    return _campaign_rows(exp, engine)


def experiment_e10_eager_ablation(
    depths: Sequence[int] = (2, 4, 6, 8, 10, 12), engine: Optional[str] = None
) -> List[Dict]:
    """E10 / Section 3.3 ablation: eager vs aggregating DAG commodity."""
    exp = _experiment("e10").with_overrides(axes={"graph_params.depth": list(depths)})
    return _campaign_rows(exp, engine)


def experiment_e11_mapping(
    sizes: Sequence[int] = (10, 20, 40),
    seeds: Sequence[int] = (0, 1, 2),
    engine: Optional[str] = None,
) -> List[Dict]:
    """E11 / Section 6: topology reconstruction success and cost."""
    exp = _experiment("e11").with_overrides(
        axes={"graph_params.num_internal": list(sizes), "seed": list(seeds)}
    )
    return _campaign_rows(exp, engine)


def experiment_e12_gap(
    heights: Sequence[int] = (4, 8, 16, 32, 64), engine: Optional[str] = None
) -> List[Dict]:
    """E12 / Section 6: the exponential gap, directed vs undirected labels.

    Both protocols label the *same* topology: the Figure-6 pruned tree (the
    directed lower-bound witness) and its undirected shadow.  Directed
    labels must grow ``Θ(|V|)``; undirected DFS labels ``Θ(log |V|)``.
    """
    exp = _experiment("e12").with_overrides(axes={"graph_params.height": list(heights)})
    return _campaign_rows(exp, engine)


def experiment_e13_round_complexity(
    sizes: Sequence[int] = (25, 50, 100, 200), seeds: Sequence[int] = (0, 1)
) -> List[Dict]:
    """E13 / §2 synchronous extension: rounds-to-termination vs path depth.

    In lockstep rounds the commodity protocols terminate after exactly the
    longest root-to-terminal chain of waits: on trees and DAGs that is the
    longest directed path; on cyclic digraphs the interval protocol adds
    cycle-detection and β-flood traversals on top (reported as a multiple
    of |V| for scale).  The engine is part of the experiment's semantics
    (``engine_locked``), so there is no ``engine`` parameter here.
    """
    exp = _experiment("e13").with_overrides(
        axes={
            "seed": list(seeds[:1]),
            "@case": _campaigns.round_complexity_cases(sizes),
        }
    )
    return _campaign_rows(exp, None)


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


def experiment_e15_state_space(
    sizes: Sequence[int] = (10, 20, 40), seed: int = 0, engine: Optional[str] = None
) -> List[Dict]:
    """E15 / §2: the state-space quality measure, measured.

    Section 2 lists "the size of the state space … related to the amount of
    memory needed at each vertex" among the quality parameters but proves
    nothing about it.  We measure the per-vertex state high-water mark (in
    encoded bits) for each protocol on a common graph family: the scalar
    protocols need O(|E|)-bit states at most, while the interval protocols'
    states grow with the commodity fragmentation — the memory price of
    cycle detection.
    """
    exp = _experiment("e15").with_overrides(
        axes={"graph_params.num_internal": list(sizes)}, base={"seed": seed}
    )
    return _campaign_rows(exp, engine)


def experiment_e16_scheduler_sensitivity(
    n_internal: int = 30, seed: int = 0, engine: Optional[str] = None
) -> List[Dict]:
    """E16 (ablation): how much the asynchronous adversary costs.

    Same graph, same protocol, every scheduler: correctness (termination,
    delivery) is identical by the ∀-schedule theorems, but the *cost* of the
    interval protocol varies — adversaries that starve the terminal or
    deliver depth-first maximise cycle churn (β re-floods) before the
    accounting can close.  This quantifies the spread the upper bounds must
    absorb.
    """
    exp = _experiment("e16").with_overrides(
        base={"graph_params.num_internal": n_internal, "seed": seed}
    )
    return _campaign_rows(exp, engine)


def experiment_e17_loss_termination(
    rates: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4),
    seeds: Sequence[int] = (0, 1, 2, 3, 4, 5, 6, 7),
    n_internal: int = 16,
    engine: Optional[str] = None,
) -> List[Dict]:
    """E17 (faults): broadcast termination rate vs. message-loss rate.

    The paper's protocols assume reliable delivery; under seeded message
    loss they must fail *safe* — the termination rate decays toward zero
    as the loss rate rises, and every non-terminating run ends quiescent,
    never falsely terminated (lost commodity can only delay the terminal's
    accounting forever, not complete it spuriously).
    """
    from .campaigns import loss_rate_axis

    exp = _experiment("e17").with_overrides(
        axes={"faults": loss_rate_axis(rates), "seed": list(seeds)},
        base={"graph_params.num_internal": n_internal},
    )
    return _campaign_rows(exp, engine)


def experiment_e18_churn_labeling(
    seeds: Sequence[int] = (0, 1, 2),
    n_internal: int = 12,
    engine: Optional[str] = None,
) -> List[Dict]:
    """E18 (faults): label uniqueness under node churn.

    Vertices leave mid-run (their deliveries are swallowed) and rejoin
    with reset state — the self-stabilization notion of a transient node.
    Liveness goes (the runs usually end quiescent), but the white-box rows
    check that *safety* holds: live vertices' labels stay pairwise
    disjoint and coverage stays within the unit interval across resets.
    """
    exp = _experiment("e18").with_overrides(
        axes={"seed": list(seeds)},
        base={"graph_params.num_internal": n_internal},
    )
    return _campaign_rows(exp, engine)


def experiment_e19_schedule_search(
    ns: Sequence[int] = (2, 3, 4),
    objective: str = "max-steps",
    max_nodes: int = 20_000,
    seed: int = 0,
    store=None,
    max_workers: Optional[int] = None,
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
    --store``), certificates also land under ``<store>/schedules/``.
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
        result, certificate = search_and_certify(
            spec, objective=objective, max_nodes=max_nodes, max_workers=max_workers
        )
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
            "shards": result.shards,
            "certificate": certificate.cert_id if certificate is not None else None,
        }
        if certificate is not None and store is not None:
            row["certificate_path"] = store_certificate(store, certificate)
        rows.append(row)
    return rows


#: Name → driver, used by the report CLI and the EXPERIMENTS.md generator.
#: ``repro list`` derives from the EXPERIMENTS registry instead; a parity
#: test keeps the two views identical.
ALL_EXPERIMENTS = {
    "E1": experiment_e01_tree_broadcast,
    "E2": experiment_e02_tree_lowerbound,
    "E3": experiment_e03_dag_broadcast,
    "E4": experiment_e04_commodity_lowerbound,
    "E5": experiment_e05_general_broadcast,
    "E6": experiment_e06_labeling,
    "E7": experiment_e07_label_lowerbound,
    "E8": experiment_e08_nontermination,
    "E9": experiment_e09_split_ablation,
    "E10": experiment_e10_eager_ablation,
    "E11": experiment_e11_mapping,
    "E12": experiment_e12_gap,
    "E13": experiment_e13_round_complexity,
    "E14": experiment_e14_exhaustive_verification,
    "E15": experiment_e15_state_space,
    "E16": experiment_e16_scheduler_sensitivity,
    "E17": experiment_e17_loss_termination,
    "E18": experiment_e18_churn_labeling,
    "E19": experiment_e19_schedule_search,
}
