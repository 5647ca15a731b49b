"""Recompute the pinned correctness digests and write ``pinned.json``.

    python3 perfbench/pin.py

Run it from the root of a checkout when a change to the program is meant
to change paper-facing results; review the diff of ``pinned.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.api import execute_spec  # noqa: E402

from workloads import WORKLOADS, Scratch, Server, records_digest, run_job, serve_payload  # noqa: E402


def main() -> int:
    canary = WORKLOADS["spec-sweep"].inputs(0, "tiny")
    pinned = {"spec-sweep": records_digest([execute_spec(spec) for spec in canary])}
    scratch = Scratch()
    try:
        campaigns = WORKLOADS["campaigns"]
        cycle = campaigns.cycle(campaigns.inputs(0, "full"), scratch)
        if cycle.failed:
            raise SystemExit("the campaigns' warm rows differ from their cold rows")
        pinned["campaigns"] = cycle.extra["digests"]
        with Server(scratch.fresh()) as server:
            outcome = run_job(server.url, serve_payload(0, 0, 4))
            if not outcome.ok:
                raise SystemExit("the serve-mix canary job failed")
            pinned["serve-mix"] = outcome.digest
    finally:
        scratch.close()
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(pinned, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
