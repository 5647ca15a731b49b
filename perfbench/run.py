"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spec-sweep --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries
the per-layer ledger of a traced cycle instead, and the spans and the
ledger are written under ``.perfbench_out/``.  ``--size tiny`` shrinks
every workload to a few seconds (the benchmark's own tests use it).

End-to-end metrics, all measured with tracing off:

* ``setup_s`` -- median over fresh interpreters, started between the
  cycles of the run, of importing ``repro``, ``ensure_registered()``,
  building the workload's inputs and the first topology build/compile
  (serve-mix: ``repro serve`` up to SERVE_READY);
* ``cold_store_s`` / ``warm_store_s`` -- median over the run's passes of
  the work against an empty ``ResultStore``, then answered from it,
  rescaled to a machine of nominal speed: times the nominal over the
  median time of a fixed reference loop interleaved with the passes (a
  shared machine drifts by tens of percent within minutes);
* ``peak_rss_mb`` -- peak resident set of the process running the program
  (serve-mix: median over cycles of each cycle's server).

The process exits 2 without a result line when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters started per run to measure set-up.
SETUP_PROBES = 7
#: What the reference loop (``workloads.take_reference``) takes on a machine
#: running at nominal speed; pass times are rescaled to such a machine.
REFERENCE_NOMINAL_S = 0.15


def _require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program to measure ({SRC}/repro is missing)\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def probe(args: argparse.Namespace) -> None:
    """One fresh set-up: import, register, build inputs, first build/compile."""
    from repro.api import ensure_registered

    from workloads import WORKLOADS

    ensure_registered()
    workload = WORKLOADS[args.workload]
    workload.prepare(workload.inputs(args.seed, args.size))


def setup_once(args: argparse.Namespace, workload: Any, scratch: Any) -> float:
    """Wall time of one fresh set-up."""
    from workloads import Server, timed

    if workload.name == "serve-mix":
        server, elapsed = timed(lambda: Server(scratch.fresh()))
        server.close()
        return elapsed
    # No timeout: a timed wait polls in steps of up to 50 ms.
    command = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--size", args.size]
    return timed(lambda: subprocess.run(command, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC), check=True))[1]


# ----------------------------------------------------------------------
# untraced and traced runs
# ----------------------------------------------------------------------


def _peak_rss_mb(cycles: List[Any]) -> float:
    """Of the process running the program: the server of each cycle, or this one."""
    servers = [cycle.extra["rss_mb"] for cycle in cycles if "rss_mb" in cycle.extra]
    if servers:
        return statistics.median(servers)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args: argparse.Namespace, workload: Any, inputs: Any, scratch: Any) -> Tuple[Dict[str, float], int, int]:
    """Cycles for about ``--seconds``; the median of each metric's passes.

    A cycle is started only while the last one would still end in time.
    The set-up probes are spread over the run, one before the first cycle
    and one after each cycle, so that they see the machine as the cycles do.
    """
    from workloads import REFERENCES, take_reference

    REFERENCES.clear()
    cycles = []
    samples: Dict[str, List[float]] = {"setup_s": []}
    attempted = failed = failures = 0

    def probe_setup(count: int) -> None:
        for _ in range(min(count, SETUP_PROBES - len(samples["setup_s"]))):
            samples["setup_s"].append(setup_once(args, workload, scratch))

    start = time.perf_counter()
    last = 0.0
    probe_setup(1)
    while not cycles or time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        try:
            cycle = workload.cycle(inputs, scratch)
        except Exception as exc:  # noqa: BLE001 - a failed cycle is a failed operation
            print(f"# cycle {len(cycles) + 1} failed: {exc!r}", flush=True)
            attempted += 1
            failed += 1
            failures += 1
            if failures >= 3 and not cycles:
                raise
            continue
        last = time.perf_counter() - began
        cycles.append(cycle)
        if workload.repeatable:
            failed += cycle.digest != cycles[0].digest
        for name, values in cycle.samples.items():
            samples.setdefault(name, []).extend(values)
        print(f"# cycle {len(cycles)}: " + " ".join(
            f"{k}=" + ",".join(f"{v:.4f}" for v in values) for k, values in cycle.samples.items()
        ), flush=True)
        probe_setup(1)
    probe_setup(SETUP_PROBES)
    attempted += sum(cycle.attempted for cycle in cycles)
    failed += sum(cycle.failed for cycle in cycles)
    checked, wrong = workload.verify(inputs, scratch, cycles)
    # Pass times are rescaled by the machine's speed over the run; set-up
    # time, mostly interpreter start-up and imports, does not follow it.
    take_reference()
    reference = statistics.median(REFERENCES)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    print(f"# reference loop: median {reference:.4f} s of {len(REFERENCES)} (nominal {REFERENCE_NOMINAL_S} s); "
          "wall medians: " + " ".join(f"{name}={value:.4f}" for name, value in metrics.items()))
    for name in metrics:
        if name != "setup_s":
            metrics[name] *= REFERENCE_NOMINAL_S / reference
    metrics["peak_rss_mb"] = _peak_rss_mb(cycles)
    print(f"# {len(cycles)} cycles, set-up probes " + ",".join(f"{v:.4f}" for v in samples["setup_s"]))
    print(f"# {attempted + checked} operations checked")
    return metrics, attempted + checked, failed + wrong


def traced(args: argparse.Namespace, workload: Any, inputs: Any, scratch: Any) -> Tuple[Dict[str, float], int, int]:
    """One untraced and one traced cycle; the per-layer ledger."""
    from ledger import MIN_COVERAGE, derive, instrument
    from spans import Tracer

    untraced_cycle, untraced_wall = timed_cycle(workload, inputs, scratch)
    tracer = Tracer()
    with instrument(tracer), tracer.span("run"):
        traced_cycle, traced_wall = timed_cycle(workload, inputs, scratch)
    pool = workload.pool_passes(inputs, scratch) if hasattr(workload, "pool_passes") else None
    ledger = derive(tracer, traced_wall, untraced_wall, traced_cycle, untraced_cycle, pool)

    out = os.path.join(ROOT, ".perfbench_out", f"trace-{workload.name}-{args.seed}")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, "spans.jsonl"))
    with open(os.path.join(out, "ledger.json"), "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)

    print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(out, ROOT)}")
    for layer, seconds in sorted(ledger["self_time_s"].items(), key=lambda item: -item[1]):
        print(f"# self_time {layer:<24} {seconds:10.4f} s")
    print(
        f"# named layers cover {ledger['covered_s']:.4f} s of the timed passes' {ledger['passes_wall_s']:.4f} s "
        f"= {ledger['coverage']:.4f} (traced wall {traced_wall:.4f} s)"
    )
    # Only in-process workloads have program spans; serve-mix's layers come
    # from the server's job snapshots.
    covered = not workload.in_process or ledger["coverage"] >= MIN_COVERAGE
    if not covered:
        print(f"# named layers cover less than {MIN_COVERAGE:.0%} of the timed passes")
    checked, wrong = workload.verify(inputs, scratch, [untraced_cycle, traced_cycle])
    attempted = untraced_cycle.attempted + traced_cycle.attempted + checked + 1
    failed = untraced_cycle.failed + traced_cycle.failed + wrong + (not covered)
    if workload.repeatable:
        failed += untraced_cycle.digest != traced_cycle.digest
    if pool is not None:
        attempted += pool.attempted + 1
        failed += pool.failed + (pool.digest != untraced_cycle.digest)
    return ledger["metrics"], attempted, failed


def timed_cycle(workload: Any, inputs: Any, scratch: Any) -> Tuple[Any, float]:
    start = time.perf_counter()
    cycle = workload.cycle(inputs, scratch)
    return cycle, time.perf_counter() - start


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    _require_program()
    if args.probe:
        probe(args)
        return 0

    from workloads import WORKLOADS, Scratch

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    benchmark = load_benchmark()
    group = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in benchmark[group]}

    workload = WORKLOADS[args.workload]
    scratch = Scratch()
    try:
        inputs = workload.inputs(args.seed, args.size)
        workload.prepare(inputs)
        # Untimed warm-up: lazy imports finish here.
        workload.cycle(workload.inputs(args.seed, "tiny"), scratch)
        run = traced if args.trace else measure
        values, attempted, failed = run(args, workload, inputs, scratch)
    finally:
        scratch.close()

    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name:<48} {entry['value']:>16.6g} {entry['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
