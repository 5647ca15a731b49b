"""Differential tests: campaign rows == pre-redesign imperative driver rows.

The campaign redesign re-expressed the simulation-backed experiment
drivers as registered :class:`~repro.api.campaign.ExperimentSpec` grids
plus named aggregators.  These tests freeze the *pre-redesign* imperative
implementations (verbatim copies of the old ``analysis/experiments.py``
loops, with the deleted ``_ENGINE_STACK`` pinned to its ``"async"``
default) and assert the registered campaigns reproduce their row dicts
exactly — keys, values, ints-vs-floats, order — at reduced sizes.

If a campaign definition or aggregator drifts, the mismatching row pair
is the diff.
"""

import math

from repro.api import BatchRunner, RunSpec, execute_spec_full
from repro.analysis.campaigns import round_complexity_cases
from repro.core.complexity import (
    dag_broadcast_total_bits_bound,
    general_broadcast_total_bits_bound,
    tree_broadcast_total_bits_bound,
)
from repro.graphs.properties import longest_path_length
from repro.network.scheduler import standard_scheduler_specs

from ..conftest import campaign_rows

_RUNNER = BatchRunner(parallel=False)


def _tree_spec(n, seed, protocol="tree-broadcast", **kw):
    kw.setdefault("engine", "async")
    return RunSpec(
        graph="random-grounded-tree",
        graph_params={"num_internal": n},
        protocol=protocol,
        seed=seed,
        **kw,
    )


def _digraph_spec(n, seed, protocol, **kw):
    kw.setdefault("engine", "async")
    return RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": n},
        protocol=protocol,
        seed=seed,
        **kw,
    )


# ----------------------------------------------------------------------
# frozen imperative references (pre-redesign driver bodies)
# ----------------------------------------------------------------------


def imperative_e01(sizes, seeds):
    rows = []
    for n in sizes:
        specs = [_tree_spec(n, seed) for seed in seeds]
        records = _RUNNER.run(specs)
        assert all(record.terminated for record in records)
        bits = [record.metrics["total_bits"] for record in records]
        msgs = [record.metrics["total_messages"] for record in records]
        maxmsg = [record.metrics["max_message_bits"] for record in records]
        bound = tree_broadcast_total_bits_bound(specs[-1].build_graph())
        rows.append(
            {
                "n_internal": n,
                "E": records[-1].num_edges,
                "messages": max(msgs),
                "total_bits": max(bits),
                "max_msg_bits": max(maxmsg),
                "bound_E_logE": round(bound),
                "ratio": max(bits) / bound,
            }
        )
    return rows


def imperative_e03(sizes, seeds):
    specs = [
        RunSpec(
            graph="random-dag",
            graph_params={"num_internal": n},
            protocol="dag-broadcast",
            seed=seed,
            engine="async",
        )
        for n in sizes
        for seed in seeds[:1]
    ]
    rows = []
    for spec, record in zip(specs, _RUNNER.run(specs)):
        assert record.terminated
        bound = dag_broadcast_total_bits_bound(spec.build_graph())
        rows.append(
            {
                "n_internal": spec.graph_params["num_internal"],
                "E": record.num_edges,
                "messages": record.metrics["total_messages"],
                "one_msg_per_edge": record.metrics["total_messages"] == record.num_edges,
                "total_bits": record.metrics["total_bits"],
                "max_msg_bits": record.metrics["max_message_bits"],
                "bound_E2": round(bound),
                "ratio": record.metrics["total_bits"] / bound,
            }
        )
    return rows


def imperative_e05(sizes, seeds):
    specs = [
        _digraph_spec(n, seed, "general-broadcast") for n in sizes for seed in seeds[:1]
    ]
    rows = []
    for spec, record in zip(specs, _RUNNER.run(specs)):
        assert record.terminated
        bound = general_broadcast_total_bits_bound(spec.build_graph())
        rows.append(
            {
                "n_internal": spec.graph_params["num_internal"],
                "V": record.num_vertices,
                "E": record.num_edges,
                "messages": record.metrics["total_messages"],
                "total_bits": record.metrics["total_bits"],
                "max_msg_bits": record.metrics["max_message_bits"],
                "max_edge_bits": record.metrics["max_edge_bits"],
                "bound_E2VlogD": round(bound),
                "ratio": record.metrics["total_bits"] / bound,
            }
        )
    return rows


def imperative_e08(sizes, seeds):
    protocols = (
        ("general-broadcast", "general-broadcast"),
        ("label-assignment", "label-assignment"),
        ("mapping", "topology-mapping"),
    )
    rows = []
    for display_name, protocol in protocols:
        specs = [
            _digraph_spec(
                n,
                seed,
                protocol,
                graph_transforms=(transform,),
                scheduler=sched_name,
                scheduler_params=sched_params,
            )
            for n in sizes
            for seed in seeds
            for transform in ("with-dead-end-vertex", "with-stranded-cycle")
            for sched_name, sched_params in standard_scheduler_specs(random_seeds=1)
        ]
        records = _RUNNER.run(specs)
        rows.append(
            {
                "protocol": display_name,
                "bad_graph_runs": len(records),
                "false_terminations": sum(1 for r in records if r.terminated),
            }
        )
    return rows


def imperative_e09(sizes, seed):
    rows = []
    for n in sizes:
        naive, pow2 = _RUNNER.run(
            [_tree_spec(n, seed, "naive-tree-broadcast"), _tree_spec(n, seed)]
        )
        assert naive.terminated and pow2.terminated
        rows.append(
            {
                "n_internal": n,
                "E": naive.num_edges,
                "naive_bits": naive.metrics["total_bits"],
                "pow2_bits": pow2.metrics["total_bits"],
                "naive_max_msg": naive.metrics["max_message_bits"],
                "pow2_max_msg": pow2.metrics["max_message_bits"],
                "bits_ratio": naive.metrics["total_bits"] / pow2.metrics["total_bits"],
            }
        )
    return rows


def imperative_e10(depths):
    rows = []
    for depth in depths:
        specs = [
            RunSpec(
                graph="layered-diamond-dag",
                graph_params={"depth": depth},
                protocol=protocol,
                engine="async",
            )
            for protocol in ("eager-dag-broadcast", "dag-broadcast")
        ]
        eager, waiting = _RUNNER.run(specs)
        assert eager.terminated and waiting.terminated
        rows.append(
            {
                "depth": depth,
                "E": eager.num_edges,
                "eager_messages": eager.metrics["total_messages"],
                "waiting_messages": waiting.metrics["total_messages"],
                "waiting_is_E": waiting.metrics["total_messages"] == waiting.num_edges,
                "eager_max_msg_bits": eager.metrics["max_message_bits"],
                "waiting_max_msg_bits": waiting.metrics["max_message_bits"],
            }
        )
    return rows


def imperative_e13(sizes, seeds):
    rows = []
    for n in sizes:
        for seed in seeds[:1]:
            tree_spec = _tree_spec(n, seed, engine="synchronous")
            dag_spec = RunSpec(
                graph="random-dag",
                graph_params={"num_internal": n},
                protocol="dag-broadcast",
                seed=seed,
                engine="synchronous",
            )
            dig_spec = _digraph_spec(
                min(n, 60), seed, "general-broadcast", engine="synchronous"
            )
            specs = [tree_spec, dag_spec, dig_spec]
            tree_run, dag_run, dig_run = _RUNNER.run(specs)
            assert tree_run.terminated and dag_run.terminated and dig_run.terminated
            rows.append(
                {
                    "n_internal": n,
                    "tree_rounds": tree_run.metrics["termination_round"],
                    "tree_longest_path": longest_path_length(tree_spec.build_graph()),
                    "dag_rounds": dag_run.metrics["termination_round"],
                    "dag_longest_path": longest_path_length(dag_spec.build_graph()),
                    "general_rounds": dig_run.metrics["termination_round"],
                    "general_V": dig_run.num_vertices,
                    "general_rounds/V": dig_run.metrics["termination_round"]
                    / dig_run.num_vertices,
                }
            )
    return rows


def imperative_e15(sizes, seed):
    workloads = (
        ("tree", "random-grounded-tree", "tree-broadcast"),
        ("dag", "random-dag", "dag-broadcast"),
        ("general", "random-digraph", "general-broadcast"),
        ("labeling", "random-digraph", "label-assignment"),
    )
    rows = []
    for n in sizes:
        specs = [
            RunSpec(
                graph=graph,
                graph_params={"num_internal": n},
                protocol=protocol,
                seed=seed,
                track_state_bits=True,
                engine="async",
            )
            for _, graph, protocol in workloads
        ]
        records = _RUNNER.run(specs)
        assert all(record.terminated for record in records)
        measurements = {
            name: record.metrics["max_state_bits"]
            for (name, _, _), record in zip(workloads, records)
        }
        rows.append(
            {
                "n_internal": n,
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


def imperative_e16(n_internal, seed):
    specs = [
        _digraph_spec(
            n_internal,
            seed,
            "general-broadcast",
            scheduler=sched_name,
            scheduler_params=sched_params,
        )
        for sched_name, sched_params in standard_scheduler_specs(random_seeds=2)
    ]
    rows = []
    for spec, record in zip(specs, _RUNNER.run(specs)):
        assert record.terminated, spec.scheduler
        rows.append(
            {
                "scheduler": spec.build_scheduler().name,
                "terminated": record.terminated,
                "messages": record.metrics["total_messages"],
                "total_bits": record.metrics["total_bits"],
                "msgs_at_termination": record.metrics["messages_at_termination"],
                "max_msg_bits": record.metrics["max_message_bits"],
            }
        )
    baseline = min(row["messages"] for row in rows)
    for row in rows:
        row["vs_best"] = round(row["messages"] / baseline, 2)
    return rows


def imperative_e06(sizes, seeds):
    from repro.core.complexity import label_length_bits_bound
    from repro.core.intervals import union_cost
    from repro.core.labeling import extract_labels, labels_pairwise_disjoint

    rows = []
    for n in sizes:
        for seed in seeds[:1]:
            spec = _digraph_spec(n, seed, "label-assignment")
            record, result, net = execute_spec_full(spec)
            assert record.terminated
            labels = extract_labels(result.states)
            label_list = list(labels.values())
            disjoint = labels_pairwise_disjoint(label_list)
            max_bits = max(union_cost(label) for label in label_list)
            bound = label_length_bits_bound(net)
            rows.append(
                {
                    "n_internal": n,
                    "V": record.num_vertices,
                    "all_labeled": set(labels) == set(net.internal_vertices()),
                    "labels_disjoint": disjoint,
                    "max_label_bits": max_bits,
                    "bound_VlogD": round(bound),
                    "ratio": max_bits / bound,
                }
            )
    return rows


def imperative_e11(sizes, seeds):
    from repro.core.mapping import ROOT_MARKER, TERMINAL_MARKER

    rows = []
    for n in sizes:
        successes = 0
        runs = 0
        messages = 0
        bits = 0
        for seed in seeds:
            spec = _digraph_spec(n, seed, "topology-mapping")
            record, result, net = execute_spec_full(spec)
            runs += 1
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
                "runs": runs,
                "exact_reconstructions": successes,
                "messages_max": messages,
                "total_bits_max": bits,
            }
        )
    return rows


def imperative_e12(heights):
    from repro.baselines.undirected import (
        DfsLabelingProtocol,
        UndirectedNetwork,
        run_undirected_protocol,
    )
    from repro.core.intervals import union_cost

    degree = 2
    rows = []
    for h in heights:
        spec = RunSpec(
            graph="pruned-tree",
            graph_params={"degree": degree, "height": h},
            protocol="label-assignment",
            engine="async",
        )
        record, directed, net = execute_spec_full(spec)
        assert record.terminated
        label = directed.states[2 + h].label
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


# ----------------------------------------------------------------------
# campaign == imperative, row for row
# ----------------------------------------------------------------------


def test_e01_rows_identical():
    assert campaign_rows(
        "e01", axes={"graph_params.num_internal": [50, 100], "seed": [0, 1]}
    ) == imperative_e01((50, 100), (0, 1))


def test_e03_rows_identical():
    assert campaign_rows(
        "e03", axes={"graph_params.num_internal": [20, 40], "seed": [0]}
    ) == imperative_e03((20, 40), (0,))


def test_e05_rows_identical():
    assert campaign_rows(
        "e05", axes={"graph_params.num_internal": [10, 20], "seed": [0]}
    ) == imperative_e05((10, 20), (0,))


def test_e06_rows_identical():
    assert campaign_rows(
        "e06", axes={"graph_params.num_internal": [10, 20], "seed": [0]}
    ) == imperative_e06((10, 20), (0,))


def test_e08_rows_identical():
    assert campaign_rows(
        "e08", axes={"graph_params.num_internal": [8], "seed": [0]}
    ) == imperative_e08((8,), (0,))


def test_e09_rows_identical():
    assert campaign_rows(
        "e09", axes={"graph_params.num_internal": [50, 100]}, base={"seed": 0}
    ) == imperative_e09((50, 100), 0)


def test_e10_rows_identical():
    assert campaign_rows("e10", axes={"graph_params.depth": [2, 4]}) == imperative_e10((2, 4))


def test_e11_rows_identical():
    assert campaign_rows(
        "e11", axes={"graph_params.num_internal": [10], "seed": [0, 1]}
    ) == imperative_e11((10,), (0, 1))


def test_e12_rows_identical():
    assert campaign_rows("e12", axes={"graph_params.height": [4, 8]}) == imperative_e12((4, 8))


def test_e13_rows_identical():
    assert campaign_rows(
        "e13", axes={"seed": [0], "@case": round_complexity_cases((25, 50))}
    ) == imperative_e13((25, 50), (0, 1))


def test_e15_rows_identical():
    assert campaign_rows(
        "e15", axes={"graph_params.num_internal": [10, 20]}, base={"seed": 0}
    ) == imperative_e15((10, 20), 0)


def test_e16_rows_identical():
    assert campaign_rows(
        "e16", base={"graph_params.num_internal": 15, "seed": 0}
    ) == imperative_e16(15, 0)


def test_fastpath_engine_override_matches_async_rows():
    """Engine overrides change wall-clock, never rows (differential contract)."""
    assert campaign_rows(
        "e05",
        axes={"graph_params.num_internal": [10, 20], "seed": [0]},
        engine="fastpath",
    ) == imperative_e05((10, 20), (0,))
