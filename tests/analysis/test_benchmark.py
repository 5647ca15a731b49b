"""Tests for the benchmark harness, its floor rules and the ``repro bench`` CLI."""

import copy
import io
import json
from pathlib import Path

import pytest

from repro.analysis import benchmark
from repro.analysis.benchmark import (
    BENCH_SUITES,
    bench_environment,
    bench_spec,
    check_floors,
    load_floors,
    measure_spec,
    protocol_bench_spec,
    render_bench_table,
    run_engine_benchmarks,
    run_protocol_matrix,
    write_benchmarks,
)
from repro.api import PROTOCOLS, ensure_registered
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
FLOORS_PATH = ROOT / "benchmarks" / "floors.json"
CHECKED_IN_PAYLOAD = ROOT / "BENCH_engines.json"


def tiny_payload(**kwargs):
    """A real (small) ``engines`` block: n=8 keeps this test-suite fast."""
    defaults = dict(sizes=(8,), engines=("async", "fastpath"), repeats=1)
    defaults.update(kwargs)
    return run_engine_benchmarks(**defaults)


class TestHarness:
    def test_bench_spec_has_requested_size(self):
        spec = bench_spec(16, "fastpath")
        assert spec.build_graph().num_vertices == 16
        assert spec.engine == "fastpath"

    def test_measure_spec_reports_throughput(self):
        row = measure_spec(bench_spec(8, "fastpath"), repeats=2)
        assert row["engine"] == "fastpath"
        assert row["n"] == 8
        assert row["steps"] > 0
        assert row["steps_per_sec"] > 0
        assert row["outcome"] == "terminated"

    def test_measure_spec_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            measure_spec(bench_spec(8, "async"), repeats=0)

    def test_payload_shape_and_comparisons(self):
        block = tiny_payload()
        assert {row["engine"] for row in block["results"]} == {"async", "fastpath"}
        (comparison,) = block["comparisons"]
        assert comparison["n"] == 8
        assert comparison["fastpath_vs_async"] > 0
        assert "python" in bench_environment()

    def test_write_benchmarks_round_trips(self, tmp_path):
        payload = {"engines": tiny_payload()}
        path = tmp_path / "BENCH_engines.json"
        write_benchmarks(payload, str(path))
        assert json.loads(path.read_text(encoding="utf-8")) == payload

    def test_render_bench_table_mentions_every_engine(self):
        text = render_bench_table({"engines": tiny_payload()})
        assert "async" in text and "fastpath" in text and "steps/sec" in text

    def test_measure_spec_inner_loops_amortise_short_runs(self):
        row = measure_spec(bench_spec(8, "fastpath"), repeats=1, inner_loops=3)
        assert row["inner_loops"] == 3
        assert row["steps_per_sec"] > 0

    def test_measure_spec_rejects_zero_inner_loops(self):
        with pytest.raises(ValueError):
            measure_spec(bench_spec(8, "async"), inner_loops=0)

    def test_registry_names_the_seven_suites_in_order(self):
        assert list(BENCH_SUITES) == [
            "engines",
            "protocols",
            "store",
            "batch",
            "batch_protocols",
            "trace",
            "schedules",
        ]


def tiny_matrix(**kwargs):
    """A real (small) protocol coverage matrix: n=8 keeps the suite fast."""
    defaults = dict(n=8, repeats=1, min_seconds=0.0)
    defaults.update(kwargs)
    return run_protocol_matrix(**defaults)


class TestProtocolMatrix:
    def test_protocol_bench_spec_uses_natural_graph_family(self):
        assert protocol_bench_spec("tree-broadcast", 16, "async").graph == (
            "random-grounded-tree"
        )
        assert protocol_bench_spec("general-broadcast", 16, "async").graph == (
            "random-digraph"
        )

    def test_matrix_covers_every_registered_protocol(self):
        ensure_registered()
        matrix = tiny_matrix()
        benched = {row["protocol"] for row in matrix["results"]}
        assert benched == set(PROTOCOLS.names())
        compared = {c["protocol"] for c in matrix["comparisons"]}
        assert compared == set(PROTOCOLS.names())
        for comparison in matrix["comparisons"]:
            assert comparison["fastpath_vs_async"] > 0
        rules = [{"path": "protocols.comparisons[*].protocol", "covers": "protocols"}]
        assert check_floors({"protocols": matrix}, rules) == []

    def test_matrix_rows_carry_both_engines(self):
        matrix = tiny_matrix()
        for protocol in PROTOCOLS.names():
            engines = {
                row["engine"]
                for row in matrix["results"]
                if row["protocol"] == protocol
            }
            assert engines == {"async", "fastpath"}

    def test_render_table_includes_protocol_coverage(self):
        payload = {"engines": tiny_payload(), "protocols": tiny_matrix()}
        text = render_bench_table(payload)
        assert "protocol kernel coverage" in text
        assert "tree-broadcast" in text


STAR_RATIO = "protocols.comparisons[*].fastpath_vs_async"


class TestFloorRules:
    """The path-rule evaluator behind ``check_floors``."""

    @pytest.fixture(scope="class")
    def payload(self):
        return {"engines": tiny_payload()}

    def test_min_passes_and_fails(self, payload):
        path = "engines.results[engine=fastpath,n=8].steps_per_sec"
        assert check_floors(payload, [{"path": path, "min": 1}]) == []
        violations = check_floors(payload, [{"path": path, "min": 10**12}])
        assert len(violations) == 1
        assert "below the floor" in violations[0]
        assert path in violations[0]

    def test_ratio_floor_violation(self, payload):
        violations = check_floors(
            payload,
            [{"path": "engines.comparisons[n=8].fastpath_vs_async", "min": 10**6}],
        )
        assert len(violations) == 1
        assert "fastpath_vs_async" in violations[0]

    def test_selector_matching_no_row_is_a_violation(self, payload):
        violations = check_floors(
            payload,
            [
                {
                    "path": "engines.results[engine=fastpath,n=512].steps_per_sec",
                    "min": 1,
                },
                {"path": "engines.comparisons[n=512].fastpath_vs_async", "min": 1.0},
            ],
        )
        assert len(violations) == 2
        assert all("nothing at" in v and "n=512" in v for v in violations)

    def test_star_over_an_empty_list_is_a_violation(self):
        violations = check_floors(
            {"protocols": {"comparisons": []}},
            [{"path": STAR_RATIO, "min": 2.0}],
        )
        assert violations == [
            "protocols.comparisons[*].fastpath_vs_async: "
            "nothing at protocols.comparisons[*]"
        ]

    def test_star_violation_names_the_row(self):
        payload = {
            "protocols": {
                "comparisons": [
                    {"protocol": "flooding", "n": 64, "fastpath_vs_async": 1.5},
                    {"protocol": "tree-broadcast", "n": 64, "fastpath_vs_async": 3.0},
                ]
            }
        }
        violations = check_floors(
            payload, [{"path": STAR_RATIO, "min": 2.0}]
        )
        assert len(violations) == 1
        assert "protocol=flooding" in violations[0]

    def test_row_missing_the_field_is_a_violation(self):
        payload = {"protocols": {"comparisons": [{"protocol": "flooding", "n": 64}]}}
        violations = check_floors(
            payload, [{"path": STAR_RATIO, "min": 2.0}]
        )
        assert len(violations) == 1
        assert "nothing at" in violations[0] and "flooding" in violations[0]

    def test_max_is_a_ceiling(self):
        payload = {"trace": {"overhead": {"traced_full_vs_untraced": 1.2}}}
        path = "trace.overhead.traced_full_vs_untraced"
        assert check_floors(payload, [{"path": path, "max": 1.5}]) == []
        violations = check_floors(payload, [{"path": path, "max": 1.1}])
        assert len(violations) == 1
        assert "above the ceiling" in violations[0]

    def test_equals(self):
        payload = {"protocols": {"n": 8}, "schedules": {"agrees": True}}
        assert check_floors(
            payload,
            [
                {"path": "protocols.n", "equals": 8},
                {"path": "schedules.agrees", "equals": True},
            ],
        ) == []
        violations = check_floors(payload, [{"path": "protocols.n", "equals": 64}])
        assert violations == ["protocols.n is 8, expected 64"]

    def test_min_on_a_non_number_is_a_violation(self):
        violations = check_floors(
            {"schedules": {"node_speedup": "fast"}},
            [{"path": "schedules.node_speedup", "min": 3.0}],
        )
        assert len(violations) == 1 and "not a number" in violations[0]

    def test_covers_protocols(self):
        ensure_registered()
        names = sorted(PROTOCOLS.names())
        rule = {"path": "protocols.comparisons[*].protocol", "covers": "protocols"}
        rows = [{"protocol": name} for name in names]
        assert check_floors({"protocols": {"comparisons": rows}}, [rule]) == []
        violations = check_floors(
            {"protocols": {"comparisons": rows[1:]}}, [rule]
        )
        assert len(violations) == 1
        assert repr(names[0]) in violations[0]

    def test_covers_batchable_skips_the_exempt_protocols(self):
        from repro.network.batchpath import BATCH_KERNEL_EXEMPT

        ensure_registered()
        batchable = sorted(set(PROTOCOLS.names()) - set(BATCH_KERNEL_EXEMPT))
        assert batchable and BATCH_KERNEL_EXEMPT
        rule = {"path": "batch_protocols.results[*].protocol", "covers": "batchable"}
        rows = [{"protocol": name} for name in batchable]
        assert check_floors({"batch_protocols": {"results": rows}}, [rule]) == []
        violations = check_floors(
            {"batch_protocols": {"results": rows[:-1]}}, [rule]
        )
        assert len(violations) == 1
        assert repr(batchable[-1]) in violations[0]

    def test_no_block_fails_coverage_for_every_protocol(self):
        ensure_registered()
        violations = check_floors(
            {}, [{"path": "protocols.comparisons[*].protocol", "covers": "protocols"}]
        )
        assert len(violations) == 1 + len(PROTOCOLS.names())

    @pytest.mark.parametrize(
        "path",
        [
            "engines.results[engine=fastpath,n=64].steps_per_sec",
            "protocols.comparisons[*].fastpath_vs_async",
            "store.cache_hit_rate",
            "batch.results[k=64].ratio",
            "batch_protocols.results[*].ratio",
            "trace.overhead.traced_full_vs_untraced",
            "schedules.node_speedup",
        ],
    )
    def test_missing_suite_block_is_a_violation(self, path):
        suite = path.split(".")[0]
        violations = check_floors({"environment": {}}, [{"path": path, "min": 1.0}])
        assert violations == [f"{path}: nothing at {suite}"]

    def test_malformed_rules_are_violations(self):
        violations = check_floors(
            {"store": {"cache_hit_rate": 1.0}},
            [
                {"path": "store.cache_hit_rate"},
                {"path": "store.cache_hit_rate", "min": 0.9, "max": 1.0},
                {"min": 0.9},
                "store.cache_hit_rate",
                {"path": "store..cache_hit_rate", "min": 0.9},
                {"path": "batch.results[k].ratio", "min": 1.0},
                {"path": "protocols.comparisons[*].protocol", "covers": "everything"},
            ],
        )
        assert len(violations) == 7
        assert all(v.startswith("malformed floor") for v in violations)

    def test_why_is_ignored(self):
        rule = {"path": "store.cache_hit_rate", "min": 0.95, "why": "integrity"}
        assert check_floors({"store": {"cache_hit_rate": 1.0}}, [rule]) == []


#: The per-protocol floors of the keyed floors file these rules replaced:
#: the ``[*]`` rules must keep gating at least these protocols.
OLD_PROTOCOL_FLOORS = (
    "dag-broadcast",
    "eager-dag-broadcast",
    "flooding",
    "general-broadcast",
    "label-assignment",
    "naive-tree-broadcast",
    "topology-mapping",
    "tree-broadcast",
)
OLD_BATCH_PROTOCOL_FLOORS = (
    "dag-broadcast",
    "eager-dag-broadcast",
    "flooding",
    "naive-tree-broadcast",
    "tree-broadcast",
)


def _row(rows, **fields):
    (row,) = [r for r in rows if all(r.get(k) == v for k, v in fields.items())]
    return row


def _break(path_fn, key, value):
    def mutate(payload):
        path_fn(payload)[key] = value

    return mutate


def _drop(suite, table, protocol):
    def mutate(payload):
        rows = payload[suite][table]
        rows[:] = [row for row in rows if row["protocol"] != protocol]

    return mutate


#: Every bound of the keyed floors file, each broken just past its value.
OLD_BOUNDS = [
    (
        "fastpath_min_steps_per_sec-64",
        _break(
            lambda p: _row(p["engines"]["results"], engine="fastpath", n=64),
            "steps_per_sec",
            3999.0,
        ),
        "engines.results[engine=fastpath,n=64].steps_per_sec is 3999",
    ),
    (
        "fastpath_vs_async_min_ratio-16",
        _break(
            lambda p: _row(p["engines"]["comparisons"], n=16), "fastpath_vs_async", 1.49
        ),
        "engines.comparisons[n=16].fastpath_vs_async is 1.49",
    ),
    (
        "fastpath_vs_async_min_ratio-64",
        _break(
            lambda p: _row(p["engines"]["comparisons"], n=64), "fastpath_vs_async", 1.99
        ),
        "engines.comparisons[n=64].fastpath_vs_async is 1.99",
    ),
    *[
        (
            f"protocol_vs_async_min_ratio-{name}",
            _break(
                lambda p, name=name: _row(p["protocols"]["comparisons"], protocol=name),
                "fastpath_vs_async",
                1.99,
            ),
            f"protocols.comparisons[protocol={name}].fastpath_vs_async is 1.99",
        )
        for name in OLD_PROTOCOL_FLOORS
    ],
    (
        "require_protocol_coverage",
        _drop("protocols", "comparisons", "flooding"),
        "registered protocol 'flooding' is missing (protocols coverage)",
    ),
    (
        "protocol-matrix-calibration",
        _break(lambda p: p["protocols"], "n", 32),
        "protocols.n is 32, expected 64",
    ),
    (
        "store_min_put_per_sec",
        _break(lambda p: p["store"], "put_per_sec", 299.0),
        "store.put_per_sec is 299",
    ),
    (
        "store_min_get_per_sec",
        _break(lambda p: p["store"], "get_per_sec", 399.0),
        "store.get_per_sec is 399",
    ),
    (
        "store_min_contains_per_sec",
        _break(lambda p: p["store"], "contains_per_sec", 1499.0),
        "store.contains_per_sec is 1499",
    ),
    (
        "store_min_cache_hit_rate",
        _break(lambda p: p["store"], "cache_hit_rate", 0.94),
        "store.cache_hit_rate is 0.94",
    ),
    (
        "batch_vs_fastpath_min_ratio-16",
        _break(lambda p: _row(p["batch"]["results"], k=16), "ratio", 1.19),
        "batch.results[k=16].ratio is 1.19",
    ),
    (
        "batch_vs_fastpath_min_ratio-64",
        _break(lambda p: _row(p["batch"]["results"], k=64), "ratio", 2.99),
        "batch.results[k=64].ratio is 2.99",
    ),
    *[
        (
            f"batch_protocol_vs_fastpath_min_ratio-{name}",
            _break(
                lambda p, name=name: _row(
                    p["batch_protocols"]["results"], protocol=name
                ),
                "ratio",
                1.99,
            ),
            f"protocol={name}].ratio is 1.99",
        )
        for name in OLD_BATCH_PROTOCOL_FLOORS
    ],
    (
        "require_batch_protocol_coverage",
        _drop("batch_protocols", "results", "dag-broadcast"),
        "registered protocol 'dag-broadcast' is missing (batchable coverage)",
    ),
    (
        "batch-matrix-calibration",
        _break(lambda p: p["batch_protocols"], "k", 16),
        "batch_protocols.k is 16, expected 64",
    ),
    (
        "schedule_search_min_speedup",
        _break(lambda p: p["schedules"], "node_speedup", 2.99),
        "schedules.node_speedup is 2.99",
    ),
    (
        "schedule_min_guided_nodes_per_sec",
        _break(lambda p: p["schedules"], "guided_nodes_per_sec", 4999.0),
        "schedules.guided_nodes_per_sec is 4999",
    ),
    (
        "schedule-agreement",
        _break(lambda p: p["schedules"], "agrees", False),
        "schedules.agrees is False, expected True",
    ),
    (
        "trace_overhead_max_ratio",
        _break(lambda p: p["trace"]["overhead"], "traced_full_vs_untraced", 1.51),
        "trace.overhead.traced_full_vs_untraced is 1.51, above the ceiling of 1.5",
    ),
]


class TestCheckedInFloors:
    """``benchmarks/floors.json`` against the checked-in ``BENCH_engines.json``."""

    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads(CHECKED_IN_PAYLOAD.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def floors(self):
        return load_floors(str(FLOORS_PATH))

    def test_checked_in_floors_hold_on_the_checked_in_payload(self, payload, floors):
        assert check_floors(payload, floors) == []

    def test_payload_has_every_suite(self, payload):
        assert set(payload) == {"environment", *BENCH_SUITES}

    @pytest.mark.parametrize(
        "mutate,expected",
        [case[1:] for case in OLD_BOUNDS],
        ids=[case[0] for case in OLD_BOUNDS],
    )
    def test_breaking_one_bound_fires_exactly_its_violation(
        self, payload, floors, mutate, expected
    ):
        broken = copy.deepcopy(payload)
        mutate(broken)
        violations = check_floors(broken, floors)
        assert len(violations) == 1, violations
        assert expected in violations[0]

    def test_star_rules_gate_every_registered_protocol(self, payload, floors):
        ensure_registered()
        assert set(OLD_PROTOCOL_FLOORS) <= set(PROTOCOLS.names())
        gated = {row["protocol"] for row in payload["protocols"]["comparisons"]}
        assert set(OLD_PROTOCOL_FLOORS) <= gated
        batch_gated = {row["protocol"] for row in payload["batch_protocols"]["results"]}
        assert set(OLD_BATCH_PROTOCOL_FLOORS) <= batch_gated


class TestStoreBench:
    def test_store_block_shape_and_hit_rate(self):
        from repro.analysis.benchmark import run_store_benchmarks

        block = run_store_benchmarks(n_records=50)
        assert block["n_records"] == 50
        assert block["indexed"] == 50 and block["retrieved"] == 50
        assert block["cache_hit_rate"] == 1.0
        for key in ("put_per_sec", "contains_per_sec", "get_per_sec"):
            assert block[key] > 0
        assert "result store at 50 records" in render_bench_table({"store": block})


class TestBatchSummaryLine:
    def test_batch_emits_machine_readable_summary(self, tmp_path):
        from repro.api import RunSpec, dump_specs

        specs = [
            RunSpec(
                graph="path-network",
                graph_params={"length": 3},
                protocol="flooding",
                seed=seed,
            )
            for seed in range(2)
        ]
        spec_file = tmp_path / "specs.json"
        dump_specs(specs, str(spec_file))
        out = tmp_path / "records.jsonl"

        def run_and_parse():
            stream = io.StringIO()
            assert (
                main(
                    ["batch", str(spec_file), "-o", str(out), "--serial"],
                    stream=stream,
                )
                == 0
            )
            lines = [
                line
                for line in stream.getvalue().splitlines()
                if line.startswith("BATCH_SUMMARY ")
            ]
            assert len(lines) == 1
            return json.loads(lines[0][len("BATCH_SUMMARY ") :])

        first = run_and_parse()
        assert first["total"] == 2
        assert first["executed"] == 2
        assert first["reused"] == 0
        # The resume no-op is what CI asserts from this line.
        second = run_and_parse()
        assert second["executed"] == 0
        assert second["reused"] == 2
        assert second["output"] == str(out)


class TestTraceBench:
    """The trace-capture overhead suite."""

    def test_block_shape(self):
        from repro.analysis.benchmark import run_trace_benchmarks

        block = run_trace_benchmarks(n=16, sample_k=4, repeats=1)
        arms = [row["arm"] for row in block["results"]]
        assert arms == ["kernel", "untraced", "traced-full", "traced-sample:4"]
        for row in block["results"]:
            assert row["steps"] > 0
            assert row["steps_per_sec"] > 0
        overhead = block["overhead"]
        assert overhead["traced_full_vs_untraced"] > 0
        assert overhead["trace_bytes_full"] > overhead["trace_bytes_sample"] > 0
        text = render_bench_table({"trace": block})
        assert "trace capture overhead" in text
        assert "full capture overhead" in text


class TestBatchBench:
    """The batch-engine seed-group suites."""

    def test_block_shape(self):
        pytest.importorskip("numpy")
        from repro.analysis.benchmark import run_batch_benchmarks

        block = run_batch_benchmarks(ks=(2, 4), repeats=1)
        assert block["ks"] == [2, 4]
        assert [row["k"] for row in block["results"]] == [2, 4]
        for row in block["results"]:
            assert row["steps"] > 0
            assert row["batch_steps_per_sec"] > 0
            assert row["fastpath_steps_per_sec"] > 0
            assert row["ratio"] > 0
        assert block["workload"]["graph_params"]["seed"] == 0  # pinned topology
        text = render_bench_table({"batch": block})
        assert "batch engine seed-groups" in text
        assert "fastpath/s" in text

    def test_bench_spec_pins_the_graph_seed(self):
        from repro.analysis.benchmark import batch_bench_spec

        spec = batch_bench_spec()
        assert spec.engine == "batch"
        assert "seed" in spec.graph_params  # one topology per seed-group

    def test_protocol_matrix_covers_every_batchable_protocol(self):
        pytest.importorskip("numpy")
        from repro.analysis.benchmark import run_batch_protocol_matrix

        block = run_batch_protocol_matrix(n=8, k=3, repeats=1)
        assert block["k"] == 3
        for row in block["results"]:
            assert row["ratio"] > 0 and row["k"] == 3
        rule = {"path": "batch_protocols.results[*].protocol", "covers": "batchable"}
        assert check_floors({"batch_protocols": block}, [rule]) == []
        assert "batch kernel coverage" in render_bench_table({"batch_protocols": block})


class TestScheduleBench:
    """The guided-vs-exhaustive schedule-search suite."""

    def test_block_shape_and_agreement(self):
        from repro.analysis.benchmark import run_schedule_benchmarks

        block = run_schedule_benchmarks(repeats=1)
        assert block["exhaustive_nodes"] > block["guided_nodes_to_best"] > 0
        assert block["exhaustive_seconds"] > 0
        assert block["guided_seconds_to_best"] > 0
        assert block["node_speedup"] > 1.0
        assert block["exhaustive_nodes_per_sec"] > 0
        assert block["guided_nodes_per_sec"] > 0
        assert block["worst_steps"] > 0
        # The gate's integrity half: both searches drained the tree and
        # reached the same worst case.
        assert block["agrees"] is True
        text = render_bench_table({"schedules": block})
        assert "schedule search" in text
        assert "fewer nodes" in text
        assert "nodes/s" in text


#: Fixed suite blocks for the CLI tests: the CLI's job is the loop, the
#: JSON and the gate, not the measuring.
FIXED_BLOCKS = {
    "engines": {
        "workload": {"graph": "random-digraph", "protocol": "general-broadcast"},
        "results": [
            {"engine": "fastpath", "n": 64, "steps": 100, "best_seconds": 0.01,
             "steps_per_sec": 10000.0},
        ],
        "comparisons": [{"n": 64, "fastpath_vs_async": 3.0}],
    },
    "store": {
        "n_records": 10, "put_per_sec": 1000.0, "contains_per_sec": 5000.0,
        "get_per_sec": 1000.0, "cache_hit_rate": 1.0,
    },
}


def _fixed_suites(*names):
    return {name: (lambda quick, name=name: FIXED_BLOCKS[name]) for name in names}


class TestBenchCli:
    def _bench(self, tmp_path, monkeypatch, suites, rules=None):
        monkeypatch.setattr(benchmark, "BENCH_SUITES", suites)
        out = tmp_path / "BENCH_engines.json"
        argv = ["bench", "--quick", "--out", str(out)]
        if rules is not None:
            floors = tmp_path / "floors.json"
            floors.write_text(json.dumps(rules), encoding="utf-8")
            argv += ["--floors", str(floors)]
        stream = io.StringIO()
        code = main(argv, stream=stream)
        return code, stream.getvalue(), out

    def test_bench_writes_json_and_reports(self, tmp_path, monkeypatch):
        code, text, out = self._bench(
            tmp_path, monkeypatch, _fixed_suites("engines", "store")
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"environment", "engines", "store"}
        assert payload["store"] == FIXED_BLOCKS["store"]
        assert "benchmarking engines" in text and "steps/sec" in text
        assert "result store at 10 records" in text

    def test_floor_gate_failure_exits_nonzero(self, tmp_path, monkeypatch):
        rules = [
            {
                "path": "engines.results[engine=fastpath,n=64].steps_per_sec",
                "min": 10**12,
            },
            {"path": "store.cache_hit_rate", "min": 2.0},
        ]
        code, text, _ = self._bench(
            tmp_path, monkeypatch, _fixed_suites("engines", "store"), rules
        )
        assert code == 1
        failures = [
            line for line in text.splitlines() if line.startswith("FLOOR VIOLATION: ")
        ]
        assert len(failures) == 2

    def test_floor_gate_pass(self, tmp_path, monkeypatch):
        rules = [{"path": "engines.comparisons[n=64].fastpath_vs_async", "min": 2.0}]
        suites = _fixed_suites("engines")
        code, text, _ = self._bench(tmp_path, monkeypatch, suites, rules)
        assert code == 0
        assert f"all floors in {tmp_path / 'floors.json'} hold" in text

    def test_suite_missing_from_the_payload_is_a_violation(self, tmp_path, monkeypatch):
        rules = [{"path": "store.cache_hit_rate", "min": 0.95}]
        suites = _fixed_suites("engines")
        code, text, _ = self._bench(tmp_path, monkeypatch, suites, rules)
        assert code == 1
        assert "FLOOR VIOLATION: store.cache_hit_rate: nothing at store" in text

    def test_every_real_suite_at_tiny_size(self, tmp_path, monkeypatch):
        """One real run through every suite, sized down to n=8, K=3, 1 repeat."""
        pytest.importorskip("numpy")
        from repro.analysis.benchmark import (
            run_batch_benchmarks,
            run_batch_protocol_matrix,
            run_schedule_benchmarks,
            run_store_benchmarks,
            run_trace_benchmarks,
        )

        suites = {
            "engines": lambda quick: tiny_payload(),
            "protocols": lambda quick: tiny_matrix(),
            "store": lambda quick: run_store_benchmarks(n_records=20),
            "batch": lambda quick: run_batch_benchmarks(ks=(3,), repeats=1),
            "batch_protocols": lambda quick: run_batch_protocol_matrix(
                n=8, k=3, repeats=1
            ),
            "trace": lambda quick: run_trace_benchmarks(n=8, sample_k=4, repeats=1),
            "schedules": lambda quick: run_schedule_benchmarks(repeats=1),
        }
        assert list(suites) == list(BENCH_SUITES)
        rules = [
            {"path": "protocols.comparisons[*].protocol", "covers": "protocols"},
            {"path": "batch_protocols.results[*].protocol", "covers": "batchable"},
            {"path": "schedules.agrees", "equals": True},
        ]
        code, text, out = self._bench(tmp_path, monkeypatch, suites, rules)
        assert code == 0, text
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"environment", *BENCH_SUITES}
        for name in BENCH_SUITES:
            assert f"benchmarking {name} ..." in text
        assert "all floors in" in text

    def test_help_lists_exactly_three_options(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--help"], stream=io.StringIO())
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        options = {word.strip("[]") for word in usage.split() if word.startswith("[--")}
        assert options == {"--quick", "--out", "--floors"}
