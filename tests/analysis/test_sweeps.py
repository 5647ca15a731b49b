"""Tests for the multi-seed sweep statistics."""

import pytest

from repro.analysis.report import render_table
from repro.analysis.sweeps import MetricSummary, summarize, sweep_spec_metrics
from repro.api import BatchRunner, RunSpec


def _tree(num_internal):
    return RunSpec(
        graph="random-grounded-tree",
        graph_params={"num_internal": num_internal},
        protocol="tree-broadcast",
    )


class TestSweep:
    def test_aggregates_all_metrics(self):
        summaries = sweep_spec_metrics(_tree(20), seeds=range(4))
        assert set(summaries) == {
            "total_messages",
            "total_bits",
            "max_message_bits",
            "max_edge_bits",
            "termination_step",
        }
        for summary in summaries.values():
            assert summary.samples == 4
            assert summary.minimum <= summary.mean <= summary.maximum

    def test_spread(self):
        s = MetricSummary(name="x", minimum=2, mean=3, maximum=6, samples=3)
        assert s.spread == 3.0
        zero = MetricSummary(name="x", minimum=0, mean=0, maximum=0, samples=1)
        assert zero.spread == 0.0


class TestSummarize:
    def test_renders(self):
        rows = summarize(sweep_spec_metrics(_tree(10), seeds=range(3)))
        text = render_table(rows)
        assert "total_bits" in text
        assert "spread" in text


class TestSpecSweep:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            sweep_spec_metrics(_tree(5), seeds=[])

    def test_termination_requirement(self):
        base = RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": 8},
            graph_transforms=("with-dead-end-vertex",),
            protocol="general-broadcast",
        )
        with pytest.raises(AssertionError):
            sweep_spec_metrics(base, seeds=[0])
        summaries = sweep_spec_metrics(base, seeds=[0, 1], require_termination=False)
        assert summaries["termination_step"].maximum == 0

    def test_persists_and_resumes(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        runner = BatchRunner(parallel=False)
        first = sweep_spec_metrics(_tree(10), seeds=range(3), runner=runner, output_path=str(out))
        assert runner.stats.executed == 3
        second = sweep_spec_metrics(_tree(10), seeds=range(3), runner=runner, output_path=str(out))
        assert runner.stats.executed == 0
        assert first == second
