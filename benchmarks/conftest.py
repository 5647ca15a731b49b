"""Shared helpers for the experiment benches.

Each bench runs one *registered experiment campaign* exactly once under
pytest-benchmark (the campaigns are deterministic; re-running them only
repeats identical work), prints the full result table so the bench log
reproduces every number in ``repro report``, and returns the rows
for shape assertions.

Benches address experiments by :data:`repro.api.EXPERIMENTS` registry name
(``"e01"`` … ``"e16"``) and execute them through an in-process
:class:`~repro.api.campaign.CampaignRunner` — the exact objects
``repro experiment <name>`` runs, so the bench log measures what ships.

Benches whose campaigns execute :class:`~repro.api.spec.RunSpec` grids are
parametrized over the execution engines in :data:`ENGINES_UNDER_TEST`
(request the ``engine`` fixture argument); the engine is an explicit
campaign override.  Rows are engine-independent by the
differential-equivalence contract (enforced in
``tests/api/test_engine_differential.py``); only the timings differ.
Suites whose campaigns bypass the spec layer (the lower-bound and
schedule-exploration harnesses) do not take the parameter — an engine
label there would mislabel identical work.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.analysis.report import render_table
from repro.api import EXPERIMENTS, ensure_registered
from repro.api.campaign import CampaignRunner

#: Engines every spec-routed experiment bench is measured under.
ENGINES_UNDER_TEST = ("async", "fastpath")


def pytest_generate_tests(metafunc):
    if "engine" in metafunc.fixturenames:
        metafunc.parametrize("engine", ENGINES_UNDER_TEST)


def run_experiment(
    benchmark, name: str, engine: Optional[str] = None
) -> List[Dict]:
    """Run the registered campaign ``name`` under ``engine`` once."""
    ensure_registered()
    experiment = EXPERIMENTS.get(name)

    def call():
        return CampaignRunner(engine=engine, parallel=False).run(experiment)

    result = benchmark.pedantic(call, rounds=1, iterations=1)
    title = getattr(experiment, "title", "") or name
    table = render_table(
        result.rows, title=f"== {name} {title.strip()} [{engine or 'default'}] =="
    )
    print(file=sys.stderr)
    print(table, file=sys.stderr)
    benchmark.extra_info["experiment"] = name
    benchmark.extra_info["rows"] = len(result.rows)
    benchmark.extra_info["engine"] = engine or "default"
    return result.rows
