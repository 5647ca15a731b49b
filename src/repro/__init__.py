"""repro — reproduction of Langberg, Schwartz & Bruck (PODC 2007),
*Distributed Broadcasting and Mapping Protocols in Directed Anonymous
Networks*.

The package implements, from scratch:

* the paper's formal model of anonymous protocols on directed networks
  (:mod:`repro.core.model`) over an asynchronous discrete-event substrate
  (:mod:`repro.network`),
* the four protocols — grounded-tree broadcast, DAG broadcast,
  general-graph interval broadcast, and unique label assignment — plus the
  Section 6 topology-mapping extension (:mod:`repro.core`),
* the lower-bound witness constructions and their measurement harnesses
  (:mod:`repro.graphs`, :mod:`repro.lowerbounds`),
* classical undirected/strongly-connected baselines for the Section 6
  comparison (:mod:`repro.baselines`),
* the registered experiment campaigns behind every table of
  ``repro report`` (:mod:`repro.analysis`), and
* the run-spec layer (:mod:`repro.api`): serializable
  :class:`~repro.api.spec.RunSpec` descriptions of runs, string registries
  for every protocol/graph/scheduler, and a parallel
  :class:`~repro.api.runner.BatchRunner` with JSONL persistence + resume.

Quickstart — direct calls::

    from repro import (
        GeneralBroadcastProtocol, run_protocol, random_digraph,
    )

    net = random_digraph(num_internal=40, seed=1)
    result = run_protocol(net, GeneralBroadcastProtocol("hello"))
    assert result.terminated
    print(result.metrics.total_bits, "bits,", result.metrics.total_messages, "messages")

Quickstart — the same run as data (addressable, serializable, batchable)::

    from repro import RunSpec, BatchRunner

    spec = RunSpec(
        graph="random-digraph", graph_params={"num_internal": 40},
        protocol="general-broadcast", protocol_params={"broadcast_payload": "hello"},
        seed=1,
    )
    record = spec.run()                      # or execute_spec(spec)
    assert record.terminated
    spec == RunSpec.from_dict(spec.to_dict())  # JSON round-trip, always

    # Many runs, in parallel, persisted and resumable:
    records = BatchRunner().run(
        [spec.with_seed(s) for s in range(32)], output_path="out.jsonl"
    )

Registry names (see ``repro registry`` for the live list): protocols
``tree-broadcast``, ``dag-broadcast``, ``general-broadcast``,
``label-assignment``, ``topology-mapping``, plus the ``naive-tree-broadcast``
/ ``eager-dag-broadcast`` / ``flooding`` baselines; graphs
``random-grounded-tree``, ``random-dag``, ``random-digraph``,
``layered-diamond-dag``, ``path-network``, ``geometric-sensor-field``,
``caterpillar-gn``, ``skeleton-tree``, ``full-tree-with-terminal``,
``pruned-tree``; transforms ``with-dead-end-vertex``,
``with-stranded-cycle``; schedulers ``fifo``, ``lifo``, ``random``,
``terminal-last``, ``terminal-first``, ``port-biased``, ``latency``,
``rounds`` (lockstep rounds, §2's time measure); engines ``async``,
``fastpath``, ``batch``.

Choosing an engine: ``RunSpec(engine="fastpath")`` runs the compiled
flat-state engine (:mod:`repro.network.fastpath`) — result-identical to
the default ``"async"`` reference engine and several times faster on
large runs; use it for sweeps and batches, and keep ``"async"`` when
stepping through the reference implementation.  ``repro bench --quick``
measures both on this machine (see README.md).
"""

from .core import (
    AnonymousProtocol,
    DagBroadcastProtocol,
    Dyadic,
    FunctionalProtocol,
    GeneralBroadcastProtocol,
    Interval,
    IntervalUnion,
    LabelAssignmentProtocol,
    TreeBroadcastProtocol,
    VertexView,
    canonical_partition,
    extract_labels,
    labels_pairwise_disjoint,
    split_interval,
)
from .core.mapping import MappingProtocol, NetworkMap
from .graphs import (
    caterpillar_gn,
    full_tree_with_terminal,
    path_network,
    pruned_tree,
    random_dag,
    random_digraph,
    random_grounded_tree,
    skeleton_tree,
)
from .network import (
    ChurnFault,
    CrashFault,
    DirectedNetwork,
    FaultSpec,
    Outcome,
    RunResult,
    run_protocol,
    make_standard_schedulers,
)
from .api import (
    GRAPH_TRANSFORMS,
    GRAPHS,
    PROTOCOLS,
    SCHEDULERS,
    BatchRunner,
    CampaignRunner,
    ExperimentSpec,
    RunRecord,
    RunSpec,
    execute_spec,
    execute_spec_full,
    run_experiment,
)

__version__ = "1.8.0"

__all__ = [
    "__version__",
    # model + protocols
    "AnonymousProtocol",
    "FunctionalProtocol",
    "VertexView",
    "TreeBroadcastProtocol",
    "DagBroadcastProtocol",
    "GeneralBroadcastProtocol",
    "LabelAssignmentProtocol",
    "extract_labels",
    "labels_pairwise_disjoint",
    "MappingProtocol",
    "NetworkMap",
    # arithmetic
    "Dyadic",
    "Interval",
    "IntervalUnion",
    "split_interval",
    "canonical_partition",
    # substrate
    "DirectedNetwork",
    "run_protocol",
    "RunResult",
    "Outcome",
    "make_standard_schedulers",
    "FaultSpec",
    "CrashFault",
    "ChurnFault",
    # graphs
    "random_grounded_tree",
    "random_dag",
    "random_digraph",
    "path_network",
    "caterpillar_gn",
    "skeleton_tree",
    "full_tree_with_terminal",
    "pruned_tree",
    # run-spec layer
    "RunSpec",
    "RunRecord",
    "BatchRunner",
    "execute_spec",
    "execute_spec_full",
    "PROTOCOLS",
    "GRAPHS",
    "GRAPH_TRANSFORMS",
    "SCHEDULERS",
    # campaign layer
    "ExperimentSpec",
    "CampaignRunner",
    "run_experiment",
]
