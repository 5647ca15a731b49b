"""The registered fault campaigns e17 (loss) and e18 (churn)."""

import pytest

from repro.analysis.campaigns import loss_rate_axis
from repro.api import EXPERIMENTS, ensure_registered
from repro.api.campaign import ExperimentSpec, run_experiment

from ..conftest import campaign_rows


class TestE17LossTermination:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_experiment("e17", scale="quick", parallel=False).rows

    def test_registered_as_grid(self):
        ensure_registered()
        assert isinstance(EXPERIMENTS.get("e17"), ExperimentSpec)

    def test_one_row_per_loss_rate(self, rows):
        assert [row["drop_probability"] for row in rows] == [0.0, 0.1, 0.3]

    def test_fault_free_baseline_always_terminates(self, rows):
        baseline = rows[0]
        assert baseline["termination_rate"] == 1.0
        assert baseline["dropped_mean"] == 0.0

    def test_loss_degrades_termination_but_fails_safe(self, rows):
        # with loss, termination can only get rarer — and whatever does not
        # terminate must be quiescent, never budget-exhausted
        rates = [row["termination_rate"] for row in rows]
        assert rates[0] >= rates[-1]
        for row in rows[1:]:
            assert row["runs"] == row["terminated"] + row["quiescent"]

    def test_overridden_grid_matches_quick_scale(self, rows):
        overridden = campaign_rows(
            "e17",
            axes={"faults": loss_rate_axis((0.0, 0.1, 0.3)), "seed": [0, 1, 2]},
            base={"graph_params.num_internal": 16},
        )
        assert overridden == rows


class TestE18ChurnLabeling:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_experiment("e18", scale="quick", parallel=False).rows

    def test_scenarios_in_grid_order(self, rows):
        assert [row["scenario"] for row in rows] == [
            "baseline",
            "baseline",
            "brief-leave",
            "brief-leave",
            "permanent-leave",
            "permanent-leave",
        ]

    def test_baseline_terminates_without_churn(self, rows):
        for row in rows:
            if row["scenario"] == "baseline":
                assert row["terminated"]
                assert row["churn_events"] == 0
                assert row["churned_deliveries"] == 0

    def test_churn_scenarios_swallow_deliveries(self, rows):
        churned = [row for row in rows if row["scenario"] != "baseline"]
        assert all(row["churned_deliveries"] > 0 for row in churned)

    def test_safety_survives_churn_everywhere(self, rows):
        assert all(row["labels_disjoint"] for row in rows)
        assert all(row["coverage_safe"] for row in rows)

    def test_rejoin_counted_for_brief_leave(self, rows):
        brief = [row for row in rows if row["scenario"] == "brief-leave"]
        assert all(row["rejoins"] >= 1 for row in brief)

    def test_overridden_grid_matches_quick_scale(self, rows):
        # the overridden grid keeps the full scenario set; quick drops the heavy one
        overridden = campaign_rows(
            "e18", axes={"seed": [0, 1]}, base={"graph_params.num_internal": 12}
        )
        by_key = {(row["scenario"], row["seed"]): row for row in overridden}
        for row in rows:
            assert by_key[(row["scenario"], row["seed"])] == row

    def test_campaigns_deterministic(self):
        first = run_experiment("e18", scale="quick", parallel=False).rows
        second = run_experiment("e18", scale="quick", parallel=False).rows
        assert first == second

    def test_engine_override_equivalence(self):
        async_rows = run_experiment("e17", scale="quick", parallel=False, engine="async").rows
        fast_rows = run_experiment("e17", scale="quick", parallel=False, engine="fastpath").rows
        assert async_rows == fast_rows
