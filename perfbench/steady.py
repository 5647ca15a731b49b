"""Steadiness self-check: run workloads N times and compare spreads to bounds.

    python3 perfbench/steady.py --workload spec-sweep --runs 10
    python3 perfbench/steady.py --runs 10            # every workload

Each run is ``perfbench/run.py --trace 0`` with its own seed (the same code
path as a normal run).  For every end-to-end metric the command prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, and whether that spread fits the metric's bound in
``BENCHMARK.json``.  With ``--against FILE`` it also compares each median
to the medians saved by an earlier ``--save FILE``.
It exits 1 when a spread or a median is outside its bound, or a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--save", help="write the medians to this JSON file")
    parser.add_argument("--against", help="compare the medians to a file written by --save")
    args = parser.parse_args(argv)

    workloads = args.workload or [entry["name"] for entry in benchmark["workloads"]]
    earlier = {}
    if args.against:
        with open(args.against, "r", encoding="utf-8") as handle:
            earlier = json.load(handle)
    medians: Dict[str, Dict[str, float]] = {}
    ok = True
    for workload in workloads:
        results = []
        for index in range(args.runs):
            result = run_once(workload, args.first_seed + index, args.seconds)
            results.append(result)
            print(f"# {workload} seed {args.first_seed + index}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, {failed} of {attempted} operations failed")
        medians[workload] = {}
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            fits = spread <= bound
            verdict = "ok" if fits else "TOO NOISY"
            if spread > bound / 3 and fits:
                verdict = "ok (above a third of the bound)"
            line = (f"  {name:<14} median {median:10.4f} {metric['unit']:<3} q1 {q1:10.4f} q3 {q3:10.4f} "
                    f"spread {spread:6.3f} bound {bound:.2f} {verdict}")
            if workload in earlier and name in earlier[workload]:
                change = median / earlier[workload][name] - 1.0
                worse = change if metric["better"] == "lower" else -change
                fits &= worse <= bound
                line += f" | vs earlier {change:+.3f}{'' if worse <= bound else ' WORSE THAN BOUND'}"
            ok &= fits
            medians[workload][name] = median
            print(line, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(medians, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
