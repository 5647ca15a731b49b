#!/usr/bin/env python3
"""Campaign quickstart: a whole experiment as one serializable object.

The spec quickstart (``examples/quickstart.py``) ends with a single run
expressed as data; this one lifts the *experiment* to the same level:

1. build an :class:`repro.ExperimentSpec` — a base ``RunSpec`` template,
   ordered grid axes, and a named aggregator,
2. check the JSON round-trip and the deterministic grid expansion,
3. execute it with a :class:`repro.CampaignRunner` (spec_id-keyed resume,
   per-experiment artifacts) and read the aggregated rows,
4. run a *registered* paper experiment (``e05``) the same way — the exact
   object behind ``repro experiment e05``.

Run:  python examples/campaign_quickstart.py
"""

import tempfile

from repro import CampaignRunner, ExperimentSpec
from repro.api import EXPERIMENTS, ensure_registered


def main() -> None:
    # --- 1. an experiment as data --------------------------------------
    # Axes are dotted paths into the RunSpec template; the grid is their
    # cartesian product, first axis outermost — deterministic, always.
    campaign = ExperimentSpec(
        name="demo-campaign",
        title="worst-case broadcast bits across seeds and sizes",
        base={"graph": "random-digraph", "protocol": "general-broadcast",
              "engine": "fastpath"},
        axes={"graph_params.num_internal": [10, 20, 40], "seed": [0, 1, 2, 3]},
        aggregator="min-mean-max",
        aggregator_params={"metric": "total_bits"},
        scales={"quick": {"graph_params.num_internal": [10], "seed": [0, 1]}},
    )

    # --- 2. round-trip + expansion -------------------------------------
    assert ExperimentSpec.from_dict(campaign.to_dict()) == campaign
    specs = campaign.expand()
    assert len(specs) == 3 * 4
    assert [s.spec_id for s in specs] == [s.spec_id for s in campaign.expand()]
    print(f"campaign {campaign.name!r} expands to {len(specs)} runs "
          f"(id {campaign.experiment_id})")

    # --- 3. execute with resume ----------------------------------------
    with tempfile.TemporaryDirectory() as out_dir:
        result = CampaignRunner(out_dir=out_dir, parallel=False).run(campaign)
        print(f"executed {result.stats.executed}, rows:")
        for row in result.rows:
            print(f"  n={row['n_internal']:<3} total_bits "
                  f"min={row['total_bits_min']} mean={row['total_bits_mean']:.0f} "
                  f"max={row['total_bits_max']}")

        # Re-running the identical campaign reuses every completed spec_id:
        rerun = CampaignRunner(out_dir=out_dir, parallel=False).run(campaign)
        assert rerun.stats.executed == 0 and rerun.stats.reused == len(specs)
        print(f"resume: {rerun.stats.reused} runs reused, 0 re-executed")

    # --- 4. a registered paper experiment ------------------------------
    # All nineteen E-experiments live in the EXPERIMENTS registry; 'quick'
    # is the CI smoke scale.  This is exactly `repro experiment e05 --quick`.
    ensure_registered()
    e05 = EXPERIMENTS.get("e05")
    result = CampaignRunner(scale="quick", engine="fastpath", parallel=False).run(e05)
    for row in result.rows:
        assert row["ratio"] < 1.0  # Thm 4.2's bound holds
    print(f"registered {e05.name!r} ({e05.title.strip()}): "
          f"{len(result.rows)} rows, all inside the paper bound")


if __name__ == "__main__":
    main()
