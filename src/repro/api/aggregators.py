"""Named row aggregators: ``RunRecord`` lists in, experiment-table rows out.

An experiment campaign (:class:`~repro.api.campaign.ExperimentSpec`) names
its aggregator by string, so the *whole* experiment — grid plus reduction —
is serializable data.  An aggregator is a callable registered in
:data:`~repro.api.registry.AGGREGATORS`::

    aggregator(records, **params) -> list of dict rows

where ``records`` is the campaign's :class:`~repro.api.spec.RunRecord`
list in deterministic grid-expansion order.  The library here covers the
reductions the E-experiment drivers historically hand-rolled:

* generic: :func:`records_rows` (one row per record), :func:`min_mean_max`
  (per-group spread of one metric);
* bound-checking: :func:`worst_seed` (per-group worst case vs a paper
  bound — E1's shape) and :func:`bound_ratio` (per-record bound ratio —
  E3/E5's shape);
* experiment-faithful reductions for the remaining simulation-backed
  drivers: :func:`false_terminations` (E8), :func:`split_ablation` (E9),
  :func:`eager_ablation` (E10), :func:`round_complexity` (E13),
  :func:`state_space` (E15) and :func:`scheduler_spread` (E16);
* fault-model reductions: :func:`loss_termination` (E17's termination
  rate vs. message-loss rate).

The aggregators over protocol observables (E6, E11, E12, E18's churn
safety) and traced runs are registered from
:mod:`repro.analysis.campaigns`; they are record aggregators too, reading
what ``observe=True`` or ``record_trace=True`` put in the metrics.

Rows are compared verbatim against the pre-campaign imperative drivers in
``tests/analysis/test_campaign_differential.py``; treat the row shapes as
frozen interfaces.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .registry import AGGREGATORS
from .spec import RunRecord

__all__ = [
    "AGGREGATORS",
    "bound_function",
    "grouped_by_spec_path",
    "records_rows",
    "min_mean_max",
    "worst_seed",
    "bound_ratio",
    "false_terminations",
    "split_ablation",
    "eager_ablation",
    "round_complexity",
    "state_space",
    "scheduler_spread",
    "loss_termination",
]


def bound_function(name: str) -> Callable[..., float]:
    """The paper bound ``name`` refers to (``"tree"``/``"dag"``/``"general"``).

    Aggregator params are JSON, so bounds are addressed by short name and
    resolved lazily here (keeps ``import repro.api`` light).
    """
    from ..core import complexity

    bounds: Dict[str, Callable[..., float]] = {
        "tree": complexity.tree_broadcast_total_bits_bound,
        "dag": complexity.dag_broadcast_total_bits_bound,
        "general": complexity.general_broadcast_total_bits_bound,
    }
    try:
        return bounds[name]
    except KeyError:
        raise ValueError(
            f"unknown bound {name!r}; choose from {', '.join(sorted(bounds))}"
        ) from None


def _spec_value(record: RunRecord, path: str) -> Any:
    """Walk a dotted path (``"graph_params.num_internal"``) into the spec.

    Reads the frozen dataclass directly — no ``to_dict()`` deep copy per
    lookup, which matters when grouping hundreds of records.
    """
    first, _, rest = path.partition(".")
    value: Any = getattr(record.spec, first)
    for part in rest.split(".") if rest else ():
        value = value[part]
    return value


def grouped_by_spec_path(
    records: Sequence[RunRecord], path: str
) -> List[Tuple[Any, List[RunRecord]]]:
    """Group records by a dotted spec path, in first-occurrence order."""
    order: List[Any] = []
    groups: Dict[Any, List[RunRecord]] = {}
    for record in records:
        key = _spec_value(record, path)
        if key not in groups:
            order.append(key)
            groups[key] = []
        groups[key].append(record)
    return [(key, groups[key]) for key in order]


_grouped = grouped_by_spec_path


def _chunked(records: Sequence[RunRecord], size: int) -> Iterable[Sequence[RunRecord]]:
    if len(records) % size:
        raise ValueError(f"expected a multiple of {size} records, got {len(records)}")
    for start in range(0, len(records), size):
        yield records[start : start + size]


def _assert_terminated(records: Iterable[RunRecord]) -> None:
    for record in records:
        assert record.terminated, (
            f"run unexpectedly failed to terminate: {record.spec.to_json()}"
        )


@AGGREGATORS.register("records")
def records_rows(records: Sequence[RunRecord]) -> List[Dict]:
    """The identity reduction: one row per record, spec identity + metrics."""
    rows: List[Dict] = []
    for record in records:
        spec = record.spec
        row: Dict[str, Any] = {
            "spec_id": spec.spec_id,
            "graph": spec.graph,
            "protocol": spec.protocol,
            "scheduler": spec.scheduler,
            "engine": spec.engine,
            "seed": spec.seed,
            "outcome": record.outcome,
            "terminated": record.terminated,
            "V": record.num_vertices,
            "E": record.num_edges,
        }
        row.update(record.metrics)
        rows.append(row)
    return rows


@AGGREGATORS.register("min-mean-max")
def min_mean_max(
    records: Sequence[RunRecord],
    *,
    group_by: str = "graph_params.num_internal",
    group_key: str = "n_internal",
    metric: str = "total_bits",
) -> List[Dict]:
    """Per-group spread of one metric (the seed-sweep summary)."""
    rows: List[Dict] = []
    for value, group in _grouped(records, group_by):
        samples = [record.metrics[metric] for record in group]
        cleaned = [s for s in samples if s is not None]
        rows.append(
            {
                group_key: value,
                "runs": len(group),
                f"{metric}_min": min(cleaned),
                f"{metric}_mean": sum(cleaned) / len(cleaned),
                f"{metric}_max": max(cleaned),
            }
        )
    return rows


@AGGREGATORS.register("worst-seed")
def worst_seed(
    records: Sequence[RunRecord],
    *,
    group_by: str = "graph_params.num_internal",
    group_key: str = "n_internal",
    bound: str = "tree",
    bound_key: str = "bound_E_logE",
) -> List[Dict]:
    """Worst case over each group's seeds, against a paper bound (E1)."""
    bound_fn = bound_function(bound)
    rows: List[Dict] = []
    for value, group in _grouped(records, group_by):
        _assert_terminated(group)
        last = group[-1]
        bits = max(record.metrics["total_bits"] for record in group)
        bound_value = bound_fn(last.spec.build_graph())
        rows.append(
            {
                group_key: value,
                "E": last.num_edges,
                "messages": max(record.metrics["total_messages"] for record in group),
                "total_bits": bits,
                "max_msg_bits": max(
                    record.metrics["max_message_bits"] for record in group
                ),
                bound_key: round(bound_value),
                "ratio": bits / bound_value,
            }
        )
    return rows


@AGGREGATORS.register("bound-ratio")
def bound_ratio(
    records: Sequence[RunRecord],
    *,
    bound: str = "general",
    bound_key: str = "bound",
    columns: Sequence[str] = ("n_internal", "E", "messages", "total_bits", "max_msg_bits"),
) -> List[Dict]:
    """Per-record cost columns plus the bound and the measured/bound ratio.

    ``columns`` is drawn from a fixed vocabulary (``n_internal``, ``V``,
    ``E``, ``messages``, ``one_msg_per_edge``, ``total_bits``,
    ``max_msg_bits``, ``max_edge_bits``); the bound column and ``ratio``
    are always appended.  E3 and E5 are both instances of this shape.
    """
    bound_fn = bound_function(bound)
    rows: List[Dict] = []
    for record in records:
        _assert_terminated((record,))
        metrics = record.metrics
        available: Dict[str, Any] = {
            "n_internal": record.spec.graph_params.get("num_internal"),
            "V": record.num_vertices,
            "E": record.num_edges,
            "messages": metrics["total_messages"],
            "one_msg_per_edge": metrics["total_messages"] == record.num_edges,
            "total_bits": metrics["total_bits"],
            "max_msg_bits": metrics["max_message_bits"],
            "max_edge_bits": metrics["max_edge_bits"],
        }
        unknown = [column for column in columns if column not in available]
        if unknown:
            raise ValueError(f"unknown bound-ratio column(s): {', '.join(unknown)}")
        row = {column: available[column] for column in columns}
        bound_value = bound_fn(record.spec.build_graph())
        row[bound_key] = round(bound_value)
        row["ratio"] = metrics["total_bits"] / bound_value
        rows.append(row)
    return rows


@AGGREGATORS.register("false-terminations")
def false_terminations(
    records: Sequence[RunRecord],
    *,
    group_by: str = "protocol",
    rename: Optional[Dict[str, str]] = None,
) -> List[Dict]:
    """Count terminations per group — zero expected on bad graphs (E8)."""
    rename = rename or {}
    rows: List[Dict] = []
    for value, group in _grouped(records, group_by):
        rows.append(
            {
                "protocol": rename.get(value, value),
                "bad_graph_runs": len(group),
                "false_terminations": sum(1 for r in group if r.terminated),
            }
        )
    return rows


@AGGREGATORS.register("split-ablation")
def split_ablation(
    records: Sequence[RunRecord], *, group_by: str = "graph_params.num_internal"
) -> List[Dict]:
    """Naive-vs-power-of-two split pairs per size (E9)."""
    rows: List[Dict] = []
    for value, group in _grouped(records, group_by):
        if len(group) != 2:
            raise ValueError(f"split-ablation expects (naive, pow2) pairs, got {len(group)}")
        naive, pow2 = group
        _assert_terminated(group)
        rows.append(
            {
                "n_internal": value,
                "E": naive.num_edges,
                "naive_bits": naive.metrics["total_bits"],
                "pow2_bits": pow2.metrics["total_bits"],
                "naive_max_msg": naive.metrics["max_message_bits"],
                "pow2_max_msg": pow2.metrics["max_message_bits"],
                "bits_ratio": naive.metrics["total_bits"] / pow2.metrics["total_bits"],
            }
        )
    return rows


@AGGREGATORS.register("eager-ablation")
def eager_ablation(
    records: Sequence[RunRecord], *, group_by: str = "graph_params.depth"
) -> List[Dict]:
    """Eager-vs-aggregating DAG commodity pairs per depth (E10)."""
    rows: List[Dict] = []
    for value, group in _grouped(records, group_by):
        if len(group) != 2:
            raise ValueError(f"eager-ablation expects (eager, waiting) pairs, got {len(group)}")
        eager, waiting = group
        _assert_terminated(group)
        rows.append(
            {
                "depth": value,
                "E": eager.num_edges,
                "eager_messages": eager.metrics["total_messages"],
                "waiting_messages": waiting.metrics["total_messages"],
                "waiting_is_E": waiting.metrics["total_messages"] == waiting.num_edges,
                "eager_max_msg_bits": eager.metrics["max_message_bits"],
                "waiting_max_msg_bits": waiting.metrics["max_message_bits"],
            }
        )
    return rows


@AGGREGATORS.register("round-complexity")
def round_complexity(records: Sequence[RunRecord]) -> List[Dict]:
    """Synchronous rounds vs longest directed path, per (tree, dag, general)
    triple (E13)."""
    from ..graphs.properties import longest_path_length

    rows: List[Dict] = []
    for tree_run, dag_run, dig_run in _chunked(records, 3):
        _assert_terminated((tree_run, dag_run, dig_run))
        rows.append(
            {
                "n_internal": tree_run.spec.graph_params["num_internal"],
                "tree_rounds": tree_run.metrics["termination_round"],
                "tree_longest_path": longest_path_length(tree_run.spec.build_graph()),
                "dag_rounds": dag_run.metrics["termination_round"],
                "dag_longest_path": longest_path_length(dag_run.spec.build_graph()),
                "general_rounds": dig_run.metrics["termination_round"],
                "general_V": dig_run.num_vertices,
                "general_rounds/V": dig_run.metrics["termination_round"]
                / dig_run.num_vertices,
            }
        )
    return rows


@AGGREGATORS.register("state-space")
def state_space(
    records: Sequence[RunRecord], *, group_by: str = "graph_params.num_internal"
) -> List[Dict]:
    """Per-vertex state high-water marks per workload quadruple (E15)."""
    names = ("tree", "dag", "general", "labeling")
    rows: List[Dict] = []
    for value, group in _grouped(records, group_by):
        if len(group) != len(names):
            raise ValueError(f"state-space expects {len(names)} workloads, got {len(group)}")
        _assert_terminated(group)
        measurements = {
            name: record.metrics["max_state_bits"]
            for name, record in zip(names, group)
        }
        rows.append(
            {
                "n_internal": value,
                "tree_state_bits": measurements["tree"],
                "dag_state_bits": measurements["dag"],
                "general_state_bits": measurements["general"],
                "labeling_state_bits": measurements["labeling"],
                "general/dag_ratio": round(
                    measurements["general"] / max(1, measurements["dag"]), 1
                ),
            }
        )
    return rows


@AGGREGATORS.register("loss-termination")
def loss_termination(records: Sequence[RunRecord]) -> List[Dict]:
    """Termination rate per message-loss rate, over the seed sweep (E17).

    Groups records by their fault model's ``drop_probability`` (``0.0``
    for fault-free records) in first-occurrence order.  The paper's
    protocols are not loss-tolerant but must fail *safe*: as the loss rate
    rises the termination rate falls toward zero while every
    non-terminating run ends quiescent — never falsely terminated.
    """
    order: List[float] = []
    groups: Dict[float, List[RunRecord]] = {}
    for record in records:
        faults = record.spec.faults
        rate = faults.drop_probability if faults is not None else 0.0
        if rate not in groups:
            order.append(rate)
            groups[rate] = []
        groups[rate].append(record)
    rows: List[Dict] = []
    for rate in order:
        group = groups[rate]
        terminated = sum(1 for r in group if r.terminated)
        budget_exhausted = sum(
            1 for r in group if r.outcome == "budget-exhausted"
        )
        dropped = [r.metrics.get("fault_dropped", 0) or 0 for r in group]
        messages = [r.metrics["total_messages"] for r in group]
        rows.append(
            {
                "drop_probability": rate,
                "runs": len(group),
                "terminated": terminated,
                "termination_rate": round(terminated / len(group), 3),
                "quiescent": len(group) - terminated - budget_exhausted,
                "dropped_mean": round(sum(dropped) / len(group), 1),
                "messages_mean": round(sum(messages) / len(group), 1),
            }
        )
    return rows


@AGGREGATORS.register("scheduler-spread")
def scheduler_spread(records: Sequence[RunRecord]) -> List[Dict]:
    """Cost spread across adversaries, normalised to the cheapest (E16)."""
    rows: List[Dict] = []
    for record in records:
        assert record.terminated, record.spec.scheduler
        metrics = record.metrics
        rows.append(
            {
                "scheduler": record.spec.build_scheduler().name,
                "terminated": record.terminated,
                "messages": metrics["total_messages"],
                "total_bits": metrics["total_bits"],
                "msgs_at_termination": metrics["messages_at_termination"],
                "max_msg_bits": metrics["max_message_bits"],
            }
        )
    baseline = min(row["messages"] for row in rows)
    for row in rows:
        row["vs_best"] = round(row["messages"] / baseline, 2)
    return rows
