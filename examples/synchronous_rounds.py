#!/usr/bin/env python3
"""Round-by-round: time complexity and the anatomy of a labeling run.

The paper's Section 2 notes that in a synchronous model one may also ask
how much *time* a protocol takes.  Lockstep rounds (every in-flight
message delivered per round) are one admissible schedule, so they are a
scheduler: ``RunSpec(scheduler="rounds")`` on any engine, with the rounds
reported in the record's metrics.  This example shows:

1. broadcast time on trees and DAGs equals the longest root→terminal path
   (the chain of waits), measured against the graph's true longest path;
2. the label map a labeling run produces, drawn as ASCII slices of
   ``[0, 1)`` — Theorem 5.1's disjointness, visible;
3. how the heterogeneous-latency scheduler changes delivery order but not
   any correctness property.

Run:  python examples/synchronous_rounds.py
"""

from repro import LabelAssignmentProtocol, RunSpec, execute_spec_full, extract_labels, run_protocol
from repro.analysis.visualize import render_label_map
from repro.graphs import random_digraph
from repro.graphs.properties import longest_path_length
from repro.network import LatencyScheduler


def time_complexity() -> None:
    print("--- time in lockstep rounds = longest wait chain ---")
    for name, graph, protocol in (
        ("grounded tree", "random-grounded-tree", "tree-broadcast"),
        ("random DAG   ", "random-dag", "dag-broadcast"),
    ):
        spec = RunSpec(
            graph=graph,
            graph_params={"num_internal": 60},
            protocol=protocol,
            scheduler="rounds",
            engine="fastpath",
            seed=2,
        )
        record, _, net = execute_spec_full(spec)
        assert record.terminated
        depth = longest_path_length(net)
        print(
            f"{name}: |V|={net.num_vertices:3d}  longest s→…→t path = {depth:2d}  "
            f"terminated after {record.metrics['termination_round']:2d} rounds"
        )
    print()


def label_anatomy() -> None:
    print("--- the label map of a cyclic digraph (Theorem 5.1) ---")
    spec = RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": 10},
        protocol="label-assignment",
        scheduler="rounds",
        seed=11,
    )
    record, result, _ = execute_spec_full(spec)
    assert record.terminated
    labels = extract_labels(result.states)
    print(f"{len(labels)} anonymous vertices each retained a disjoint slice of [0, 1):\n")
    print(render_label_map(labels, width=56))
    print(f"\n(labeling finished after {record.metrics['termination_round']} rounds)")
    print()


def heterogeneous_links() -> None:
    print("--- heterogeneous link latencies (asynchronous adversary) ---")
    net = random_digraph(15, seed=3)
    for seed in (0, 1, 2):
        scheduler = LatencyScheduler(seed=seed, min_latency=1.0, max_latency=50.0)
        result = run_protocol(net, LabelAssignmentProtocol(), scheduler)
        assert result.terminated
        labels = extract_labels(result.states)
        print(
            f"latency seed {seed}: terminated at virtual time "
            f"{scheduler.virtual_time:8.1f}, {len(labels)} labels, "
            f"{result.metrics.total_messages} messages"
        )
    print("\nDelivery order varies wildly with link speeds; every correctness")
    print("property holds regardless — the ∀-schedule guarantees of the paper.")


def main() -> None:
    time_complexity()
    label_anatomy()
    heterogeneous_links()


if __name__ == "__main__":
    main()
