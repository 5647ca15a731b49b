"""The run-spec layer: declarative, serializable, batchable experiments.

Everything an execution needs — graph family and parameters, protocol and
parameters, scheduler, step budget, seed, trace flags — lives in one frozen
:class:`RunSpec` that round-trips through JSON.  Components are addressed
by name through the :mod:`~repro.api.registry` registries (populated by
decorator at import time in :mod:`repro.core`, :mod:`repro.baselines`,
:mod:`repro.graphs` and :mod:`repro.network.scheduler`), results come back
as structured :class:`RunRecord` objects, and the :class:`BatchRunner`
executes whole spec files in parallel with JSONL persistence and
resume-from-partial-output.

Typical use::

    from repro.api import RunSpec, BatchRunner

    specs = [
        RunSpec(graph="random-digraph", graph_params={"num_internal": 40},
                protocol="general-broadcast", seed=seed)
        for seed in range(8)
    ]
    records = BatchRunner().run(specs, output_path="out.jsonl")
    print(max(r.metrics["total_bits"] for r in records))

Or from a shell: ``repro batch specs.json -o out.jsonl``.

One level up, a whole experiment — a parameter *grid* of runs plus a named
row aggregation — is an :class:`ExperimentSpec` (see
:mod:`~repro.api.campaign`), registered in :data:`EXPERIMENTS` and executed
by the :class:`CampaignRunner` with spec_id-keyed resume::

    from repro.api import CampaignRunner

    result = CampaignRunner(engine="fastpath").run("e05")
    print(result.rows)

Or from a shell: ``repro experiment e05 --engine fastpath``.
"""

from .registry import (
    AGGREGATORS,
    ENGINES,
    EXPERIMENTS,
    FAULTS,
    GRAPH_TRANSFORMS,
    GRAPHS,
    PROTOCOLS,
    SCHEDULERS,
    DuplicateNameError,
    Registry,
    UnknownNameError,
    all_registries,
)
from .spec import (
    TIMING_FIELDS,
    check_registered_names,
    ensure_registered,
    MetricValue,
    RunRecord,
    RunSpec,
    SpecError,
    TopologyCacheStats,
    clear_topology_cache,
    dump_specs,
    execute_spec,
    execute_spec_full,
    load_specs,
    topology_cache_stats,
)
from .engines import EngineInfo, fault_capable_engines
from .runner import BatchRunner, BatchStats, load_records
from . import aggregators as _aggregators  # noqa: F401  (populates AGGREGATORS)
from .campaign import (
    CampaignRequest,
    CampaignResult,
    CampaignRunner,
    DriverExperiment,
    ExperimentSpec,
    load_experiment,
    register_experiment,
    run_experiment,
)

__all__ = [
    # registries
    "Registry",
    "UnknownNameError",
    "DuplicateNameError",
    "PROTOCOLS",
    "GRAPHS",
    "GRAPH_TRANSFORMS",
    "SCHEDULERS",
    "ENGINES",
    "AGGREGATORS",
    "FAULTS",
    "EXPERIMENTS",
    "all_registries",
    # specs & records
    "RunSpec",
    "RunRecord",
    "SpecError",
    "MetricValue",
    "TIMING_FIELDS",
    "execute_spec",
    "execute_spec_full",
    "ensure_registered",
    "check_registered_names",
    "load_specs",
    "dump_specs",
    # topology cache
    "TopologyCacheStats",
    "topology_cache_stats",
    "clear_topology_cache",
    # engine capabilities
    "EngineInfo",
    "fault_capable_engines",
    # batch execution
    "BatchRunner",
    "BatchStats",
    "load_records",
    # campaigns
    "ExperimentSpec",
    "DriverExperiment",
    "CampaignRequest",
    "CampaignResult",
    "CampaignRunner",
    "register_experiment",
    "load_experiment",
    "run_experiment",
]
