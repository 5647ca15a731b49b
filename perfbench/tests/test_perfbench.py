"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

Every workload runs at ``--size tiny``; the checks cover the output contract
(every metric named, with its unit), the correctness gate (a tampered record
fails it) and the teardown of the ``repro serve`` subprocess.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from ledger import MIN_COVERAGE, derive  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Cycle, Scratch, Server, record_facts, records_digest  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
with open(os.path.join(BENCH, "meta.json"), "r", encoding="utf-8") as _handle:
    META = json.load(_handle)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload: str, trace: str) -> None:
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    for entry in declared:
        assert printed[entry["name"]] == entry["unit"]
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_digest_check_fails_on_a_tampered_record(monkeypatch: pytest.MonkeyPatch) -> None:
    workload = WORKLOADS["spec-sweep"]
    specs = workload.inputs(0, "tiny")
    scratch = Scratch()
    try:
        assert workload.verify(specs, scratch, [])[1] == 0
        honest = workloads.execute_spec

        def tampered(spec):
            record = honest(spec)
            record.metrics["total_bits"] += 1
            return record

        monkeypatch.setattr(workloads, "execute_spec", tampered)
        checked, failed = workload.verify(specs, scratch, [])
        assert failed >= len(specs)
        assert failed <= checked
    finally:
        scratch.close()


def test_record_digest_covers_the_paper_facing_fields() -> None:
    spec = WORKLOADS["spec-sweep"].inputs(0, "tiny")[0]
    record = workloads.execute_spec(spec)
    before = records_digest([record])
    for field in ("steps", "total_messages", "total_bits", "max_message_bits"):
        record.metrics[field] += 1
        assert records_digest([record]) != before
        record.metrics[field] -= 1
    assert records_digest([dataclasses.replace(record, elapsed_seconds=record.elapsed_seconds + 1)]) == before
    assert record_facts(record)[0] == record.outcome


def _ledger(work) -> dict:
    """The ledger of a traced run whose one timed pass runs ``work(tracer)``."""
    tracer = Tracer()
    with tracer.span("run"), tracer.span("pass"):
        start = time.perf_counter()
        work(tracer)
        wall = time.perf_counter() - start
    cycle = Cycle(samples={"cold_store_s": [wall]}, attempted=1, failed=0, digest="")
    return derive(tracer, wall, wall, cycle, cycle)


def test_coverage_check_fails_when_a_slow_call_is_not_wrapped() -> None:
    def wrapped(tracer: Tracer) -> None:
        tracer.wrap("store.put", time.sleep)(0.05)

    def unwrapped(tracer: Tracer) -> None:
        wrapped(tracer)
        time.sleep(0.05)

    covered = _ledger(wrapped)
    assert covered["coverage"] >= MIN_COVERAGE
    assert covered["metrics"]["trace.unspanned_share"] <= 1 - MIN_COVERAGE
    missed = _ledger(unwrapped)
    assert missed["coverage"] < MIN_COVERAGE
    assert missed["metrics"]["trace.unspanned_share"] == pytest.approx(0.5, abs=0.1)


def test_serve_subprocess_is_torn_down_even_on_error() -> None:
    scratch = Scratch()
    try:
        server = Server(scratch.fresh())
        with pytest.raises(RuntimeError):
            with server:
                assert server.proc.poll() is None
                raise RuntimeError("client failed")
        assert server.proc.poll() is not None
        with Server(scratch.fresh()) as server:
            assert server.proc.poll() is None
        # close() waited for the process, so it is reaped, not a zombie.
        assert server.proc.returncode is not None
    finally:
        scratch.close()


def test_exits_nonzero_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench("--workload", "spec-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reasoning_in_meta_matches_benchmark_json() -> None:
    assert [w["name"] for w in META["workloads"]] == [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(w["name"] for w in META["workloads"]) == sorted(WORKLOADS)
    for workload in META["workloads"]:
        assert workload["loop"] == "closed" and workload["clients"] >= 1
    assert [m["name"] for m in META["end_to_end"]] == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [m["name"] for m in META["per_layer"]] == [m["name"] for m in BENCHMARK["per_layer"]]
    metrics = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]} | {"none"}
    names = set(WORKLOADS)
    for entry in META["per_layer"]:
        assert entry["moves"], entry["name"]
        for metric, workload in entry["moves"]:
            assert metric in metrics and workload in names, entry["name"]
