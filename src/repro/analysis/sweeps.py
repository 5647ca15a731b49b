"""Multi-seed sweep statistics.

The experiment campaigns report worst-seed numbers (bounds are worst-case
claims); for exploration it is also useful to see spread.
:func:`sweep_spec_metrics` clones one :class:`~repro.api.spec.RunSpec`
across seeds, executes the clones through a
:class:`~repro.api.runner.BatchRunner` (so a sweep persists, resumes and
parallelises like any other batch) and aggregates every numeric metric
into (min, mean, max); :func:`summarize` renders the aggregate for reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..api import BatchRunner, RunSpec

__all__ = ["MetricSummary", "sweep_spec_metrics", "summarize"]

#: Metrics every sweep aggregates, in report order.
SWEEP_METRICS = (
    "total_messages",
    "total_bits",
    "max_message_bits",
    "max_edge_bits",
    "termination_step",
)


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one metric over a sweep."""

    name: str
    minimum: float
    mean: float
    maximum: float
    samples: int

    @property
    def spread(self) -> float:
        """``max / min`` (∞-safe: 0 when the minimum is 0)."""
        if self.minimum == 0:
            return 0.0
        return self.maximum / self.minimum


def sweep_spec_metrics(
    base_spec: RunSpec,
    seeds: Sequence[int],
    *,
    require_termination: bool = True,
    runner: Optional[BatchRunner] = None,
    output_path: Optional[str] = None,
) -> Dict[str, MetricSummary]:
    """Sweep ``base_spec`` across ``seeds`` and aggregate the run metrics.

    Each seed yields ``base_spec.with_seed(seed)``; the batch executes on
    ``runner`` (default: in-process) and may be persisted/resumed through
    ``output_path`` like any other batch.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    specs = [base_spec.with_seed(seed) for seed in seeds]
    records = (runner or BatchRunner(parallel=False)).run(specs, output_path=output_path)
    samples: Dict[str, List[float]] = {name: [] for name in SWEEP_METRICS}
    for spec, record in zip(specs, records):
        if require_termination and not record.terminated:
            raise AssertionError(f"run for seed {spec.seed} did not terminate")
        for name in SWEEP_METRICS:
            value = record.metrics.get(name)
            samples[name].append(value if value is not None else 0)
    return {
        name: MetricSummary(
            name=name,
            minimum=min(values),
            mean=sum(values) / len(values),
            maximum=max(values),
            samples=len(values),
        )
        for name, values in samples.items()
    }


def summarize(summaries: Dict[str, MetricSummary]) -> List[Dict]:
    """Rows (for :func:`repro.analysis.report.render_table`) from a sweep."""
    return [
        {
            "metric": s.name,
            "min": s.minimum,
            "mean": round(s.mean, 2),
            "max": s.maximum,
            "spread": round(s.spread, 3),
            "n": s.samples,
        }
        for s in summaries.values()
    ]
