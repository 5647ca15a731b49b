"""The registered experiment campaigns ``e01`` … ``e19``.

Importing this module populates :data:`~repro.api.registry.EXPERIMENTS`
(:func:`repro.api.ensure_registered` does it for you): every paper
experiment becomes a registry entry, so ``repro list``, ``repro experiment``
and the benches all draw from one source of truth and a registered
experiment can never be missing from a listing.

Three kinds of entry:

* **Grid campaigns** — :class:`~repro.api.campaign.ExperimentSpec` whose
  axes expand to :class:`~repro.api.spec.RunSpec` lists and whose rows come
  from a records-level aggregator (E1, E3, E5, E8, E9, E10, E13, E15, E16,
  and the fault campaign E17, whose axes sweep ``faults`` payloads).
  These are pure data: serializable, resumable, engine-overridable.
* **White-box campaigns** — the same grid expansion, but the aggregator
  (registered here with ``white_box = True``) consumes live engine results
  because the rows inspect per-vertex states or protocol output
  (E6 labeling, E11 mapping, E12 label gap, E18 churn safety).
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
from typing import Any, Dict, List, Sequence, Tuple

from ..api.aggregators import grouped_by_spec_path
from ..api.campaign import DriverExperiment, ExperimentSpec, WhiteBoxRun, register_experiment
from ..api.registry import AGGREGATORS
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
# white-box aggregators (need live states, not just records)
# ----------------------------------------------------------------------


def _grouped_runs(
    runs: Sequence[WhiteBoxRun], path: str = "graph_params.num_internal"
) -> List[Tuple[Any, List[WhiteBoxRun]]]:
    return grouped_by_spec_path(runs, path, record_of=lambda run: run.record)


@AGGREGATORS.register("labeling-quality")
def labeling_quality(runs: Sequence[WhiteBoxRun]) -> List[Dict]:
    """E6: label uniqueness and size vs the ``|V| log d_out`` bound."""
    from ..core.complexity import label_length_bits_bound
    from ..core.intervals import union_cost
    from ..core.labeling import extract_labels, labels_pairwise_disjoint

    rows: List[Dict] = []
    for record, result, net in runs:
        assert record.terminated
        labels = extract_labels(result.states)
        label_list = list(labels.values())
        disjoint = labels_pairwise_disjoint(label_list)
        max_bits = max(union_cost(label) for label in label_list)
        bound = label_length_bits_bound(net)
        rows.append(
            {
                "n_internal": record.spec.graph_params["num_internal"],
                "V": record.num_vertices,
                "all_labeled": set(labels) == set(net.internal_vertices()),
                "labels_disjoint": disjoint,
                "max_label_bits": max_bits,
                "bound_VlogD": round(bound),
                "ratio": max_bits / bound,
            }
        )
    return rows


labeling_quality.white_box = True


@AGGREGATORS.register("mapping-accuracy")
def mapping_accuracy(runs: Sequence[WhiteBoxRun]) -> List[Dict]:
    """E11: exact topology reconstructions and worst-case cost per size."""
    from ..core.mapping import ROOT_MARKER, TERMINAL_MARKER

    rows: List[Dict] = []
    for n, group in _grouped_runs(runs):
        successes = 0
        count = 0
        messages = 0
        bits = 0
        for record, result, net in group:
            count += 1
            if record.terminated and result.output is not None:
                ident = {net.root: ROOT_MARKER, net.terminal: TERMINAL_MARKER}
                for v in net.internal_vertices():
                    ident[v] = result.states[v].base.label
                if result.output.matches_network(net, ident):
                    successes += 1
            messages = max(messages, record.metrics["total_messages"])
            bits = max(bits, record.metrics["total_bits"])
        rows.append(
            {
                "n_internal": n,
                "runs": count,
                "exact_reconstructions": successes,
                "messages_max": messages,
                "total_bits_max": bits,
            }
        )
    return rows


mapping_accuracy.white_box = True


@AGGREGATORS.register("label-gap")
def label_gap(runs: Sequence[WhiteBoxRun]) -> List[Dict]:
    """E12: directed Θ(|V|) vs undirected Θ(log |V|) label length."""
    from ..baselines.undirected import (
        DfsLabelingProtocol,
        UndirectedNetwork,
        run_undirected_protocol,
    )
    from ..core.intervals import union_cost

    rows: List[Dict] = []
    for record, directed, net in runs:
        assert record.terminated
        height = record.spec.graph_params["height"]
        label = directed.states[2 + height].label
        assert label is not None
        directed_bits = union_cost(label)

        undirected = UndirectedNetwork.from_directed(net)
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


label_gap.white_box = True


@AGGREGATORS.register("churn-labeling")
def churn_labeling(runs: Sequence[WhiteBoxRun]) -> List[Dict]:
    """E18: label uniqueness under node churn (white-box safety check).

    Churn breaks liveness — a vertex that leaves mid-run takes received
    commodity with it, so the terminal's accounting usually never closes —
    but it must never break *safety*: the labels held by live vertices
    stay pairwise disjoint even across state resets, because a reset only
    discards commodity and can never mint overlapping intervals.
    """
    from ..core.invariants import coverage_within_unit, labels_disjoint_globally

    rows: List[Dict] = []
    for record, result, net in runs:
        faults = record.spec.faults
        rows.append(
            {
                "scenario": record.spec.label or "baseline",
                "seed": record.spec.seed,
                "churn_events": len(faults.churn) if faults is not None else 0,
                "terminated": record.terminated,
                "labels_disjoint": labels_disjoint_globally(result.states),
                "coverage_safe": coverage_within_unit(result.states),
                "messages": record.metrics["total_messages"],
                "churned_deliveries": record.metrics.get("fault_churned", 0),
                "rejoins": record.metrics.get("fault_rejoined", 0),
            }
        )
    return rows


churn_labeling.white_box = True


@AGGREGATORS.register("trace-profile")
def trace_profile(runs: Sequence[WhiteBoxRun]) -> List[Dict]:
    """Per-run trace histogramming (message sizes, loads, termination).

    White-box: profiles the live in-memory :class:`~repro.network.trace.
    Trace` of each run (the campaign's specs must set ``record_trace``),
    so no ``.rtrace`` artifact is needed — the same
    :class:`~repro.tracing.profiler.TraceProfiler` also reads recorded
    files for ``repro trace profile``.  Rows carry the scalar profile
    plus the histogram spreads that summarize the distributions.
    """
    from ..tracing.profiler import TraceProfiler

    rows: List[Dict] = []
    for record, result, net in runs:
        trace = getattr(result, "trace", None)
        if trace is None:
            raise ValueError(
                "trace-profile is white-box over recorded traces: spec "
                f"{record.spec.spec_id} must set record_trace=True"
            )
        profile = TraceProfiler.from_trace(
            trace, net, termination_step=record.metrics.get("termination_step")
        ).profile()
        rows.append(
            {
                "protocol": record.spec.protocol,
                "graph": record.spec.graph,
                "seed": record.spec.seed,
                "V": record.num_vertices,
                "E": record.num_edges,
                "events": profile.events,
                "total_bits": profile.total_bits,
                "max_message_bits": profile.max_message_bits,
                "mean_message_bits": round(profile.mean_message_bits, 2),
                "distinct_sizes": len(profile.message_size_histogram),
                "max_edge_messages": profile.max_edge_messages,
                "max_vertex_load": profile.max_vertex_load,
                "termination_step": profile.termination_step,
            }
        )
    return rows


trace_profile.white_box = True


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
        base={"graph": "random-digraph", "protocol": "label-assignment"},
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
        base={"graph": "random-digraph", "protocol": "topology-mapping"},
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
