"""The registered experiment campaigns ``e01`` … ``e19``.

Importing this module populates :data:`~repro.api.registry.EXPERIMENTS`
(:func:`repro.api.ensure_registered` does it for you): every paper
experiment becomes a registry entry, so ``repro list``, ``repro experiment``
and the benches all draw from one source of truth and a registered
experiment can never be missing from a listing.

Two kinds of entry:

* **Grid campaigns** — :class:`~repro.api.campaign.ExperimentSpec` whose
  axes expand to :class:`~repro.api.spec.RunSpec` lists and whose rows come
  from a records-level aggregator (E1, E3, E5, E8, E9, E10, E13, E15, E16,
  and the fault campaigns E17 and E18, whose axes sweep ``faults``
  payloads).  These are pure data: serializable, resumable,
  engine-overridable.  E6 labeling, E11 mapping, E12 label gap and E18
  churn safety read facts off the final vertex states; their specs set
  ``observe``, so the protocol's observables are in the records and the
  aggregators registered here read them there.
* **Driver experiments** — :class:`~repro.api.campaign.DriverExperiment`
  wrapping the lower-bound, exhaustive and schedule-search harnesses that
  do not execute spec grids (E2, E4, E7, E14, E19), referenced lazily by
  dotted name so registering them does not import the harnesses.

Row shapes are frozen interfaces — they are compared verbatim against the
pre-campaign imperative drivers in
``tests/analysis/test_campaign_differential.py``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

from ..api.aggregators import grouped_by_spec_path
from ..api.campaign import DriverExperiment, ExperimentSpec, register_experiment
from ..api.registry import AGGREGATORS
from ..api.spec import RunRecord, cached_network
from ..network.scheduler import standard_scheduler_specs

__all__ = [
    "scheduler_patches",
    "round_complexity_cases",
    "loss_rate_axis",
    "churn_scenarios",
    "STATE_SPACE_WORKLOADS",
    "labeling_quality",
    "mapping_accuracy",
    "label_gap",
    "churn_labeling",
    "trace_profile",
]


def scheduler_patches(random_seeds: int) -> List[Dict[str, Any]]:
    """The standard adversary batch as ``@scheduler`` patch-axis values."""
    return [
        {"scheduler": name, "scheduler_params": params}
        for name, params in standard_scheduler_specs(random_seeds=random_seeds)
    ]


def round_complexity_cases(sizes: Sequence[int]) -> List[Dict[str, Any]]:
    """E13's (tree, dag, general) workload triples as one patch axis.

    The general interval protocol is capped at 60 internal vertices per the
    original driver — its synchronous runs grow superlinearly — so the
    size relation is baked into the enumerated patches.
    """
    cases: List[Dict[str, Any]] = []
    for n in sizes:
        cases.append(
            {
                "graph": "random-grounded-tree",
                "graph_params": {"num_internal": n},
                "protocol": "tree-broadcast",
            }
        )
        cases.append(
            {
                "graph": "random-dag",
                "graph_params": {"num_internal": n},
                "protocol": "dag-broadcast",
            }
        )
        cases.append(
            {
                "graph": "random-digraph",
                "graph_params": {"num_internal": min(n, 60)},
                "protocol": "general-broadcast",
            }
        )
    return cases


def loss_rate_axis(rates: Sequence[float]) -> List[Dict[str, Any]]:
    """E17's ``faults`` axis: one fault payload per message-loss rate.

    ``FaultSpec.seed`` stays unset, so each run's fault RNG follows the
    run seed — a seed sweep varies topology and loss pattern together.
    """
    return [{"drop_probability": rate} for rate in rates]


def churn_scenarios(heavy: bool = True) -> List[Dict[str, Any]]:
    """E18's ``@scenario`` patch-axis values: named churn fault payloads.

    Vertex ids follow the generator convention (root 0, terminal 1,
    internal vertices from 2); steps are delivery steps.  The baseline
    scenario runs fault-free (``faults=None``) so every E18 table carries
    its own reliable-model control row.  ``heavy=False`` drops the
    heaviest scenario (the quick scale).
    """
    scenarios: List[Dict[str, Any]] = [
        {"label": "baseline", "faults": None},
        {
            "label": "brief-leave",
            "faults": {"churn": [{"vertex": 3, "leave_step": 10, "rejoin_step": 60}]},
        },
        {
            "label": "permanent-leave",
            "faults": {"churn": [{"vertex": 4, "leave_step": 15, "rejoin_step": None}]},
        },
    ]
    if heavy:
        scenarios.append(
            {
                "label": "double-churn",
                "faults": {
                    "churn": [
                        {"vertex": 2, "leave_step": 5, "rejoin_step": 40},
                        {"vertex": 5, "leave_step": 20, "rejoin_step": 90},
                    ]
                },
            }
        )
    return scenarios


#: E15's per-protocol workloads, in row-column order (tree/dag/general/labeling).
STATE_SPACE_WORKLOADS: List[Dict[str, str]] = [
    {"graph": "random-grounded-tree", "protocol": "tree-broadcast"},
    {"graph": "random-dag", "protocol": "dag-broadcast"},
    {"graph": "random-digraph", "protocol": "general-broadcast"},
    {"graph": "random-digraph", "protocol": "label-assignment"},
]


# ----------------------------------------------------------------------
# aggregators over observed records (specs set ``observe`` or
# ``record_trace``, so the facts they read are in the record's metrics)
# ----------------------------------------------------------------------


def _metrics_with(record: RunRecord, key: str, field: str) -> Dict[str, Any]:
    """The record's metrics, or a one-line error naming the spec field
    that puts ``key`` there."""
    if key not in record.metrics:
        raise ValueError(
            f"metric {key!r} is missing: spec {record.spec.spec_id} must set {field}=True"
        )
    return record.metrics


@AGGREGATORS.register("labeling-quality")
def labeling_quality(records: Sequence[RunRecord]) -> List[Dict]:
    """E6: label uniqueness and size vs the ``|V| log d_out`` bound."""
    from ..core.complexity import label_length_bits_bound

    rows: List[Dict] = []
    for record in records:
        assert record.terminated
        metrics = _metrics_with(record, "max_label_bits", "observe")
        max_bits = metrics["max_label_bits"]
        bound = label_length_bits_bound(cached_network(record.spec))
        rows.append(
            {
                "n_internal": record.spec.graph_params["num_internal"],
                "V": record.num_vertices,
                "all_labeled": metrics["all_labeled"],
                "labels_disjoint": metrics["labels_disjoint"],
                "max_label_bits": max_bits,
                "bound_VlogD": round(bound),
                "ratio": max_bits / bound,
            }
        )
    return rows


@AGGREGATORS.register("mapping-accuracy")
def mapping_accuracy(records: Sequence[RunRecord]) -> List[Dict]:
    """E11: exact topology reconstructions and worst-case cost per size."""
    rows: List[Dict] = []
    for n, group in grouped_by_spec_path(records, "graph_params.num_internal"):
        rows.append(
            {
                "n_internal": n,
                "runs": len(group),
                "exact_reconstructions": sum(
                    1 for record in group
                    if _metrics_with(record, "mapping_exact", "observe")["mapping_exact"]
                ),
                "messages_max": max(record.metrics["total_messages"] for record in group),
                "total_bits_max": max(record.metrics["total_bits"] for record in group),
            }
        )
    return rows


@AGGREGATORS.register("label-gap")
def label_gap(records: Sequence[RunRecord]) -> List[Dict]:
    """E12: directed Θ(|V|) vs undirected Θ(log |V|) label length.

    On the pruned tree the longest directed label is the deepest leaf's;
    the undirected DFS labeling runs on the same graph's undirected view.
    """
    from ..baselines.undirected import (
        DfsLabelingProtocol,
        UndirectedNetwork,
        run_undirected_protocol,
    )

    rows: List[Dict] = []
    for record in records:
        assert record.terminated
        directed_bits = _metrics_with(record, "max_label_bits", "observe")["max_label_bits"]
        undirected = UndirectedNetwork.from_directed(cached_network(record.spec))
        dfs = run_undirected_protocol(undirected, DfsLabelingProtocol(), seed=0)
        assert dfs.finished
        max_label = max(state["label"] for state in dfs.states.values())
        undirected_bits = max(1, math.ceil(math.log2(max_label + 1)))
        rows.append(
            {
                "V": record.num_vertices,
                "directed_label_bits": directed_bits,
                "undirected_label_bits": undirected_bits,
                "gap_factor": directed_bits / undirected_bits,
            }
        )
    return rows


@AGGREGATORS.register("churn-labeling")
def churn_labeling(records: Sequence[RunRecord]) -> List[Dict]:
    """E18: label uniqueness under node churn (a safety check).

    Churn breaks liveness — a vertex that leaves mid-run takes received
    commodity with it, so the terminal's accounting usually never closes —
    but it must never break *safety*: the labels held by live vertices
    stay pairwise disjoint even across state resets, because a reset only
    discards commodity and can never mint overlapping intervals.
    """
    rows: List[Dict] = []
    for record in records:
        faults = record.spec.faults
        metrics = _metrics_with(record, "labels_disjoint", "observe")
        rows.append(
            {
                "scenario": record.spec.label or "baseline",
                "seed": record.spec.seed,
                "churn_events": len(faults.churn) if faults is not None else 0,
                "terminated": record.terminated,
                "labels_disjoint": metrics["labels_disjoint"],
                "coverage_safe": metrics["coverage_safe"],
                "messages": metrics["total_messages"],
                "churned_deliveries": metrics.get("fault_churned", 0),
                "rejoins": metrics.get("fault_rejoined", 0),
            }
        )
    return rows


@AGGREGATORS.register("trace-profile")
def trace_profile(records: Sequence[RunRecord]) -> List[Dict]:
    """Per-run trace profile (message sizes, loads, termination).

    The campaign's specs must set ``record_trace``: the engines then fold
    the trace's distinct message sizes and maximal vertex load into the
    record (see :mod:`repro.api.engines`), and the rest of the profile is
    the record's own metrics.  The same scalars come out of
    :class:`~repro.tracing.profiler.TraceProfiler` for ``repro trace
    profile`` over a recorded file.
    """
    rows: List[Dict] = []
    for record in records:
        metrics = _metrics_with(record, "max_vertex_load", "record_trace")
        messages = metrics["total_messages"]
        mean_bits = metrics["total_bits"] / messages if messages else 0.0
        rows.append(
            {
                "protocol": record.spec.protocol,
                "graph": record.spec.graph,
                "seed": record.spec.seed,
                "V": record.num_vertices,
                "E": record.num_edges,
                "events": messages,
                "total_bits": metrics["total_bits"],
                "max_message_bits": metrics["max_message_bits"],
                "mean_message_bits": round(mean_bits, 2),
                "distinct_sizes": metrics["distinct_message_sizes"],
                "max_edge_messages": metrics["max_edge_messages"],
                "max_vertex_load": metrics["max_vertex_load"],
                "termination_step": metrics["termination_step"],
            }
        )
    return rows


# ----------------------------------------------------------------------
# grid campaigns
# ----------------------------------------------------------------------

register_experiment(
    ExperimentSpec(
        name="e01",
        title="Thm 3.1  grounded-tree broadcast upper bound",
        base={"graph": "random-grounded-tree", "protocol": "tree-broadcast"},
        axes={
            "graph_params.num_internal": [50, 100, 200, 400, 800],
            "seed": [0, 1, 2],
        },
        aggregator="worst-seed",
        aggregator_params={"bound": "tree", "bound_key": "bound_E_logE"},
        scales={"quick": {"graph_params.num_internal": [50, 100, 200], "seed": [0]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e03",
        title="§3.3     DAG broadcast upper bound",
        base={"graph": "random-dag", "protocol": "dag-broadcast"},
        axes={"graph_params.num_internal": [25, 50, 100, 200], "seed": [0]},
        aggregator="bound-ratio",
        aggregator_params={
            "bound": "dag",
            "bound_key": "bound_E2",
            "columns": [
                "n_internal",
                "E",
                "messages",
                "one_msg_per_edge",
                "total_bits",
                "max_msg_bits",
            ],
        },
        scales={"quick": {"graph_params.num_internal": [20, 40]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e05",
        title="Thm 4.2  general-graph broadcast upper bound",
        base={"graph": "random-digraph", "protocol": "general-broadcast"},
        axes={"graph_params.num_internal": [10, 20, 40, 80], "seed": [0]},
        aggregator="bound-ratio",
        aggregator_params={
            "bound": "general",
            "bound_key": "bound_E2VlogD",
            "columns": [
                "n_internal",
                "V",
                "E",
                "messages",
                "total_bits",
                "max_msg_bits",
                "max_edge_bits",
            ],
        },
        scales={"quick": {"graph_params.num_internal": [10, 20]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e06",
        title="Thm 5.1  unique labeling upper bound",
        base={"graph": "random-digraph", "protocol": "label-assignment", "observe": True},
        axes={"graph_params.num_internal": [10, 20, 40, 80], "seed": [0]},
        aggregator="labeling-quality",
        scales={"quick": {"graph_params.num_internal": [10, 20]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e08",
        title="iff      non-termination on disconnected graphs",
        base={"graph": "random-digraph"},
        axes={
            "protocol": ["general-broadcast", "label-assignment", "topology-mapping"],
            "graph_params.num_internal": [8, 14],
            "seed": [0, 1],
            "graph_transforms": [["with-dead-end-vertex"], ["with-stranded-cycle"]],
            "@scheduler": scheduler_patches(random_seeds=1),
        },
        aggregator="false-terminations",
        aggregator_params={"rename": {"topology-mapping": "mapping"}},
        scales={"quick": {"graph_params.num_internal": [8], "seed": [0]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e09",
        title="§3.1     ablation: naive vs power-of-two split",
        base={"graph": "random-grounded-tree", "seed": 0},
        axes={
            "graph_params.num_internal": [50, 100, 200, 400],
            "protocol": ["naive-tree-broadcast", "tree-broadcast"],
        },
        aggregator="split-ablation",
        scales={"quick": {"graph_params.num_internal": [50, 100]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e10",
        title="§3.3     ablation: eager vs aggregated commodity",
        base={"graph": "layered-diamond-dag"},
        axes={
            "graph_params.depth": [2, 4, 6, 8, 10, 12],
            "protocol": ["eager-dag-broadcast", "dag-broadcast"],
        },
        aggregator="eager-ablation",
        scales={"quick": {"graph_params.depth": [2, 4, 6]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e11",
        title="§6       topology mapping",
        base={"graph": "random-digraph", "protocol": "topology-mapping", "observe": True},
        axes={"graph_params.num_internal": [10, 20, 40], "seed": [0, 1, 2]},
        aggregator="mapping-accuracy",
        scales={"quick": {"graph_params.num_internal": [10], "seed": [0, 1]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e12",
        title="§6       directed/undirected label gap",
        base={
            "graph": "pruned-tree",
            "graph_params": {"degree": 2},
            "protocol": "label-assignment",
            "observe": True,
        },
        axes={"graph_params.height": [4, 8, 16, 32, 64]},
        aggregator="label-gap",
        scales={"quick": {"graph_params.height": [4, 8]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e13",
        title="§2       synchronous round complexity",
        base={"engine": "synchronous", "seed": 0},
        axes={"seed": [0], "@case": round_complexity_cases([25, 50, 100, 200])},
        aggregator="round-complexity",
        engine_locked=True,
        scales={"quick": {"@case": round_complexity_cases([25, 50])}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e15",
        title="§2       per-vertex state-space (memory) measure",
        base={"seed": 0, "track_state_bits": True},
        axes={
            "graph_params.num_internal": [10, 20, 40],
            "@workload": STATE_SPACE_WORKLOADS,
        },
        aggregator="state-space",
        scales={"quick": {"graph_params.num_internal": [10, 20]}},
    )
)

register_experiment(
    ExperimentSpec(
        name="e16",
        title="ablation scheduler (adversary) cost sensitivity",
        base={
            "graph": "random-digraph",
            "graph_params": {"num_internal": 30},
            "protocol": "general-broadcast",
            "seed": 0,
        },
        axes={"@scheduler": scheduler_patches(random_seeds=2)},
        aggregator="scheduler-spread",
        scales={"quick": {"@scheduler": scheduler_patches(random_seeds=1)}},
    )
)


register_experiment(
    ExperimentSpec(
        name="e17",
        title="faults   broadcast termination vs. message-loss rate",
        base={
            "graph": "random-digraph",
            "graph_params": {"num_internal": 16},
            "protocol": "general-broadcast",
        },
        axes={
            "faults": loss_rate_axis([0.0, 0.02, 0.05, 0.1, 0.2, 0.4]),
            "seed": [0, 1, 2, 3, 4, 5, 6, 7],
        },
        aggregator="loss-termination",
        scales={
            "quick": {
                "faults": loss_rate_axis([0.0, 0.1, 0.3]),
                "seed": [0, 1, 2],
            }
        },
    )
)

register_experiment(
    ExperimentSpec(
        name="e18",
        title="faults   labeling uniqueness under node churn",
        base={
            "graph": "random-digraph",
            "graph_params": {"num_internal": 12},
            "protocol": "label-assignment",
            "observe": True,
        },
        axes={
            "@scenario": churn_scenarios(),
            "seed": [0, 1, 2],
        },
        aggregator="churn-labeling",
        scales={
            "quick": {
                "@scenario": churn_scenarios(heavy=False),
                "seed": [0, 1],
            }
        },
    )
)


# ----------------------------------------------------------------------
# driver experiments (no RunSpec grid: lower-bound / exhaustive harnesses)
# ----------------------------------------------------------------------

register_experiment(
    DriverExperiment(
        name="e02",
        title="Thm 3.2  G_n alphabet lower bound (Fig 5)",
        driver="repro.analysis.experiments:experiment_e02_tree_lowerbound",
        scales={"quick": {"ns": [4, 8, 16]}},
    )
)

register_experiment(
    DriverExperiment(
        name="e04",
        title="Thm 3.8  commodity bandwidth lower bound (Fig 4)",
        driver="repro.analysis.experiments:experiment_e04_commodity_lowerbound",
        scales={"quick": {"ns": [2, 4], "subset_n": 4}},
    )
)

register_experiment(
    DriverExperiment(
        name="e07",
        title="Thm 5.2  label-length lower bound (Fig 6)",
        driver="repro.analysis.experiments:experiment_e07_label_lowerbound",
        scales={"quick": {"cases": [[2, 4], [2, 8]]}},
    )
)

register_experiment(
    DriverExperiment(
        name="e14",
        title="beyond   exhaustive ∀-schedule ∀-topology verification",
        driver="repro.analysis.experiments:experiment_e14_exhaustive_verification",
        scales={"quick": {"max_wiring_edges": 4, "tree_internal": 2}},
    )
)

register_experiment(
    DriverExperiment(
        name="e19",
        title="beyond   guided worst-case schedule search + certificates",
        driver="repro.analysis.experiments:experiment_e19_schedule_search",
        scales={"quick": {"ns": [2, 3], "max_nodes": 6000}},
    )
)
