"""Smoke tests for the experiment drivers (small parameters).

Each driver must run end to end and exhibit the shape asserted in
EXPERIMENTS.md; the benches run the full-size versions.
"""

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    experiment_e01_tree_broadcast,
    experiment_e02_tree_lowerbound,
    experiment_e03_dag_broadcast,
    experiment_e04_commodity_lowerbound,
    experiment_e05_general_broadcast,
    experiment_e06_labeling,
    experiment_e07_label_lowerbound,
    experiment_e08_nontermination,
    experiment_e09_split_ablation,
    experiment_e10_eager_ablation,
    experiment_e11_mapping,
    experiment_e12_gap,
)


def test_registry_complete():
    assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 20)}


def test_e16_all_schedulers_terminate():
    from repro.analysis.experiments import experiment_e16_scheduler_sensitivity

    rows = experiment_e16_scheduler_sensitivity(n_internal=15)
    assert all(row["terminated"] for row in rows)
    assert max(row["vs_best"] for row in rows) >= 1.0


def test_e15_state_space_ordering():
    from repro.analysis.experiments import experiment_e15_state_space

    rows = experiment_e15_state_space(sizes=(10, 20))
    for row in rows:
        # Interval-protocol states dominate the scalar protocols' states —
        # the memory cost of identifiable commodity.
        assert row["general_state_bits"] > row["dag_state_bits"]
        assert row["labeling_state_bits"] > 0


def test_e13_rounds_match_longest_paths():
    from repro.analysis.experiments import experiment_e13_round_complexity

    rows = experiment_e13_round_complexity(sizes=(25, 50))
    for row in rows:
        assert row["tree_rounds"] == row["tree_longest_path"]
        assert row["dag_rounds"] == row["dag_longest_path"]
        assert row["general_rounds"] <= row["general_V"]


def test_e01_ratio_flat():
    rows = experiment_e01_tree_broadcast(sizes=(50, 100, 200), seeds=(0,))
    ratios = [row["ratio"] for row in rows]
    assert max(ratios) / min(ratios) < 2.0


def test_e02_alphabet():
    rows = experiment_e02_tree_lowerbound(ns=(4, 16, 64))
    assert all(row["at_least_n"] for row in rows)
    assert all(row["measured_bits"] >= row["huffman_floor_bits"] for row in rows)


def test_e03_one_message_per_edge():
    rows = experiment_e03_dag_broadcast(sizes=(20, 40), seeds=(0,))
    assert all(row["one_msg_per_edge"] for row in rows)
    assert all(row["ratio"] < 1.0 for row in rows)


def test_e04_subset_sums():
    rows = experiment_e04_commodity_lowerbound(ns=(2, 4), subset_n=4)
    row4 = next(row for row in rows if row["n"] == 4)
    assert row4["distinct_sums"] == 16
    assert row4["chain_(1)_holds"]


def test_e05_within_bound():
    rows = experiment_e05_general_broadcast(sizes=(10, 20), seeds=(0,))
    assert all(row["ratio"] < 1.0 for row in rows)


def test_e06_labels_valid():
    rows = experiment_e06_labeling(sizes=(10, 20), seeds=(0,))
    assert all(row["all_labeled"] and row["labels_disjoint"] for row in rows)


def test_e07_pruning():
    rows = experiment_e07_label_lowerbound(cases=((2, 4), (2, 8)))
    assert all(row["pruning_identical"] for row in rows if row["pruning_identical"] != "")
    bits = [row["leaf_label_bits"] for row in rows]
    assert bits[0] < bits[1]


def test_e08_no_false_terminations():
    rows = experiment_e08_nontermination(sizes=(8,), seeds=(0,))
    assert all(row["false_terminations"] == 0 for row in rows)
    assert all(row["bad_graph_runs"] > 0 for row in rows)


def test_e09_gap():
    rows = experiment_e09_split_ablation(sizes=(50, 200))
    assert all(row["bits_ratio"] > 1.5 for row in rows)
    assert rows[-1]["bits_ratio"] >= rows[0]["bits_ratio"]


def test_e10_blowup():
    rows = experiment_e10_eager_ablation(depths=(4, 8))
    assert all(row["waiting_is_E"] for row in rows)
    assert rows[1]["eager_messages"] > 10 * rows[1]["waiting_messages"]


def test_e11_mapping_exact():
    rows = experiment_e11_mapping(sizes=(10,), seeds=(0, 1))
    assert all(row["exact_reconstructions"] == row["runs"] for row in rows)


def test_e12_gap_grows():
    rows = experiment_e12_gap(heights=(4, 16))
    assert rows[1]["gap_factor"] > rows[0]["gap_factor"]
    assert all(row["directed_label_bits"] > row["undirected_label_bits"] for row in rows)
