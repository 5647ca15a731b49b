"""Smoke tests for the experiments (small parameters).

Each registered campaign runs end to end on a reduced grid and exhibits
the shape its theorem predicts; ``repro report`` and the benches run the
full-size versions.
"""

from repro.analysis.campaigns import round_complexity_cases
from repro.analysis.experiments import (
    experiment_e02_tree_lowerbound,
    experiment_e04_commodity_lowerbound,
    experiment_e07_label_lowerbound,
)
from repro.api import EXPERIMENTS, ensure_registered

from ..conftest import campaign_rows


def test_registry_complete():
    ensure_registered()
    assert EXPERIMENTS.names() == tuple(f"e{i:02d}" for i in range(1, 20))


def test_e16_all_schedulers_terminate():
    rows = campaign_rows("e16", base={"graph_params.num_internal": 15, "seed": 0})
    assert all(row["terminated"] for row in rows)
    assert max(row["vs_best"] for row in rows) >= 1.0


def test_e15_state_space_ordering():
    rows = campaign_rows(
        "e15", axes={"graph_params.num_internal": [10, 20]}, base={"seed": 0}
    )
    for row in rows:
        # Interval-protocol states dominate the scalar protocols' states —
        # the memory cost of identifiable commodity.
        assert row["general_state_bits"] > row["dag_state_bits"]
        assert row["labeling_state_bits"] > 0


def test_e13_rounds_match_longest_paths():
    rows = campaign_rows(
        "e13", axes={"seed": [0], "@case": round_complexity_cases((25, 50))}
    )
    for row in rows:
        assert row["tree_rounds"] == row["tree_longest_path"]
        assert row["dag_rounds"] == row["dag_longest_path"]
        assert row["general_rounds"] <= row["general_V"]


def test_e01_ratio_flat():
    rows = campaign_rows(
        "e01", axes={"graph_params.num_internal": [50, 100, 200], "seed": [0]}
    )
    ratios = [row["ratio"] for row in rows]
    assert max(ratios) / min(ratios) < 2.0


def test_e02_alphabet():
    rows = experiment_e02_tree_lowerbound(ns=(4, 16, 64))
    assert all(row["at_least_n"] for row in rows)
    assert all(row["measured_bits"] >= row["huffman_floor_bits"] for row in rows)


def test_e03_one_message_per_edge():
    rows = campaign_rows("e03", axes={"graph_params.num_internal": [20, 40], "seed": [0]})
    assert all(row["one_msg_per_edge"] for row in rows)
    assert all(row["ratio"] < 1.0 for row in rows)


def test_e04_subset_sums():
    rows = experiment_e04_commodity_lowerbound(ns=(2, 4), subset_n=4)
    row4 = next(row for row in rows if row["n"] == 4)
    assert row4["distinct_sums"] == 16
    assert row4["chain_(1)_holds"]


def test_e05_within_bound():
    rows = campaign_rows("e05", axes={"graph_params.num_internal": [10, 20], "seed": [0]})
    assert all(row["ratio"] < 1.0 for row in rows)


def test_e06_labels_valid():
    rows = campaign_rows("e06", axes={"graph_params.num_internal": [10, 20], "seed": [0]})
    assert all(row["all_labeled"] and row["labels_disjoint"] for row in rows)


def test_e07_pruning():
    rows = experiment_e07_label_lowerbound(cases=((2, 4), (2, 8)))
    assert all(row["pruning_identical"] for row in rows if row["pruning_identical"] != "")
    bits = [row["leaf_label_bits"] for row in rows]
    assert bits[0] < bits[1]


def test_e08_no_false_terminations():
    rows = campaign_rows("e08", axes={"graph_params.num_internal": [8], "seed": [0]})
    assert all(row["false_terminations"] == 0 for row in rows)
    assert all(row["bad_graph_runs"] > 0 for row in rows)


def test_e09_gap():
    rows = campaign_rows(
        "e09", axes={"graph_params.num_internal": [50, 200]}, base={"seed": 0}
    )
    assert all(row["bits_ratio"] > 1.5 for row in rows)
    assert rows[-1]["bits_ratio"] >= rows[0]["bits_ratio"]


def test_e10_blowup():
    rows = campaign_rows("e10", axes={"graph_params.depth": [4, 8]})
    assert all(row["waiting_is_E"] for row in rows)
    assert rows[1]["eager_messages"] > 10 * rows[1]["waiting_messages"]


def test_e11_mapping_exact():
    rows = campaign_rows("e11", axes={"graph_params.num_internal": [10], "seed": [0, 1]})
    assert all(row["exact_reconstructions"] == row["runs"] for row in rows)


def test_e12_gap_grows():
    rows = campaign_rows("e12", axes={"graph_params.height": [4, 16]})
    assert rows[1]["gap_factor"] > rows[0]["gap_factor"]
    assert all(row["directed_label_bits"] > row["undirected_label_bits"] for row in rows)
