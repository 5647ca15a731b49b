"""E13 — §2 time measure: lockstep rounds-to-termination.

Paper context: "In a synchronous model one may also consider the time it
takes for the protocol to terminate."  Expected shape: tree/DAG commodity
protocols terminate in exactly longest-path rounds (the wait chain); the
general interval protocol stays well under a small multiple of |V| on
random cyclic digraphs.  The rounds are the ``rounds`` scheduler's, so
the campaign runs on every engine.
"""


from conftest import run_experiment


def test_bench_e13_round_complexity(benchmark, engine):
    rows = run_experiment(benchmark, "e13", engine)
    for row in rows:
        assert row["tree_rounds"] == row["tree_longest_path"]
        assert row["dag_rounds"] == row["dag_longest_path"]
        assert row["general_rounds"] <= row["general_V"]
