"""Differential equivalence: fastpath vs async, over the whole vocabulary.

The fast-path engine's contract is *result identity*: for any spec, the
``fastpath`` engine must produce exactly the record the ``async`` reference
engine produces — same outcome, same step counts, every metric equal —
modulo the wall-clock :data:`~repro.api.spec.TIMING_FIELDS`.  This suite
enforces that contract over every registered protocol × three graph
families × every registered scheduler plus one message-loss case, which
covers both the generic machine (cheap protocols) and the compiled
interval kernel (general-broadcast / label-assignment).

Some combinations are intentionally "wrong" for the protocol (a tree
protocol on a cyclic digraph may spin until the budget runs out); the
contract still applies — both engines must agree on the budget-exhausted
record too — so runs are capped with a small ``max_steps``.
"""

from __future__ import annotations

import pytest

from repro.api import PROTOCOLS, SCHEDULERS, RunSpec, ensure_registered, execute_spec

ensure_registered()

GRAPH_FAMILIES = (
    ("random-grounded-tree", {"num_internal": 7}),
    ("random-dag", {"num_internal": 7}),
    ("random-digraph", {"num_internal": 7}),
)

#: Cap runaway combinations (e.g. scalar protocols on cyclic graphs) while
#: staying far above the step count of every well-matched combination.
MAX_STEPS = 4000

#: The message-loss case: FIFO delivery with each message lost with
#: probability 0.1.  Lost commodity keeps the accounting open, so both
#: engines must agree on the fail-safe (non-terminated) record too.
LOSSY = "dropping"
LOSSY_FAULTS = {"drop_probability": 0.1}


def _records(spec: RunSpec):
    """The comparable dicts of both engines, with the engine field removed."""
    out = []
    for engine in ("async", "fastpath"):
        record = execute_spec(
            RunSpec.from_dict({**spec.to_dict(), "engine": engine})
        ).comparable_dict()
        record["spec"].pop("engine")
        out.append(record)
    return out


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS.names()) + [LOSSY])
@pytest.mark.parametrize("graph,graph_params", GRAPH_FAMILIES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
def test_fastpath_matches_async(protocol, graph, graph_params, scheduler):
    faults = None
    if scheduler == LOSSY:
        scheduler, faults = "fifo", LOSSY_FAULTS
    spec = RunSpec(
        graph=graph,
        graph_params=graph_params,
        protocol=protocol,
        scheduler=scheduler,
        seed=11,
        max_steps=MAX_STEPS,
        faults=faults,
    )
    reference, fast = _records(spec)
    assert fast == reference


@pytest.mark.parametrize(
    "protocol_params",
    [
        {"broadcast_payload": "hello world"},
        {"reserve_label": True},
        {"partition_rule": "literal"},
    ],
    ids=["payload", "reserve-label", "literal-partition"],
)
def test_fastpath_matches_async_interval_kernel_variants(protocol_params):
    """Kernel-specific parameter variants of the §4 protocol."""
    spec = RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": 10},
        protocol="general-broadcast",
        protocol_params=protocol_params,
        seed=3,
    )
    reference, fast = _records(spec)
    assert fast == reference


@pytest.mark.parametrize("label_endpoints", [False, True])
def test_fastpath_matches_async_labeling_modes(label_endpoints):
    spec = RunSpec(
        graph="random-digraph",
        graph_params={"num_internal": 10},
        protocol="label-assignment",
        protocol_params={"label_endpoints": label_endpoints},
        seed=3,
    )
    reference, fast = _records(spec)
    assert fast == reference


@pytest.mark.parametrize(
    "overrides",
    [
        {"graph_transforms": ["with-dead-end-vertex"]},
        {"graph_transforms": ["with-stranded-cycle"]},
        {"stop_at_termination": True},
        {"max_steps": 17},
        {"record_trace": True},
        {"track_state_bits": True},
    ],
    ids=["dead-end", "stranded-cycle", "stop-at-termination", "tiny-budget", "trace", "state-bits"],
)
def test_fastpath_matches_async_run_modes(overrides):
    """Quiescence, early stop, budget exhaustion and the fallback paths."""
    spec = RunSpec.from_dict(
        {
            **RunSpec(
                graph="random-digraph",
                graph_params={"num_internal": 9},
                protocol="general-broadcast",
                seed=2,
            ).to_dict(),
            **overrides,
        }
    )
    reference, fast = _records(spec)
    assert fast == reference


def test_fastpath_runs_through_batch_runner(tmp_path):
    """RunSpec(engine="fastpath") works end-to-end through BatchRunner."""
    from repro.api import BatchRunner

    specs = [
        RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": 6},
            protocol="general-broadcast",
            engine="fastpath",
            seed=seed,
        )
        for seed in range(3)
    ]
    out = tmp_path / "records.jsonl"
    runner = BatchRunner(max_workers=2)
    records = runner.run(specs, output_path=str(out))
    assert [r.spec for r in records] == specs
    assert all(r.terminated for r in records)
    # Resume is a no-op for fastpath records too.
    runner.run(specs, output_path=str(out))
    assert runner.stats.executed == 0
    assert runner.stats.reused == 3
