"""Faulty transports run on the compiled kernels, record-identical to the reference loop.

Loss, duplication and delay are a scheduler wrapper
(:class:`~repro.network.faults.FaultScheduler`), so a ``fastpath`` run
with only those faults never leaves its kernel; crashes and churn still
run on the reference loop.  Either way ``async`` and ``fastpath`` must
agree on the outcome, every :class:`~repro.network.metrics.RunMetrics`
field and the fault counters — for every registered protocol on its
graph family, under every registered scheduler (``starve-one-edge`` and
``oldest-last`` included), across the transport models and with crashes
and churn mixed in.
"""

import pytest

from repro.analysis.benchmark import PROTOCOL_BENCH_GRAPHS
from repro.api import PROTOCOLS, SCHEDULERS, RunSpec, ensure_registered, execute_spec
from repro.network import fastpath
from repro.network.metrics import RunMetrics

ensure_registered()

SEEDS = range(4)

TRANSPORT_MODELS = {
    "drop": {"drop_probability": 0.3},
    "duplicate": {"duplicate_probability": 0.2},
    "delay": {"delay_probability": 0.25},
    "mixed": {"drop_probability": 0.05, "duplicate_probability": 0.2, "delay_probability": 0.25},
}

#: Vertex faults for a 6-internal-vertex network (vertices 0..7).
VERTEX_FAULTS = {
    "crashes": [{"vertex": 3, "step": 30}],
    "churn": [{"vertex": 4, "leave_step": 10, "rejoin_step": 40}],
}

MODELS = {
    **TRANSPORT_MODELS,
    **{f"{name}+crash+churn": {**model, **VERTEX_FAULTS} for name, model in TRANSPORT_MODELS.items()},
}

def _spec(protocol, scheduler, model, seed, engine):
    return RunSpec(
        graph=PROTOCOL_BENCH_GRAPHS.get(protocol, "random-digraph"),
        graph_params={"num_internal": 6},
        protocol=protocol,
        scheduler=scheduler,
        engine=engine,
        seed=seed,
        faults=model,
    )


@pytest.fixture
def reference_calls(monkeypatch):
    """Every hand-off from ``run_protocol_fastpath`` to the reference loop."""
    calls = []
    reference = fastpath.run_protocol

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return reference(*args, **kwargs)

    monkeypatch.setattr(fastpath, "run_protocol", spy)
    return calls


@pytest.mark.parametrize("scheduler", SCHEDULERS.names())
@pytest.mark.parametrize("protocol", PROTOCOLS.names())
def test_async_and_fastpath_agree(reference_calls, protocol, scheduler):
    metric_fields = set(RunMetrics.__dataclass_fields__)
    for name, model in MODELS.items():
        for seed in SEEDS:
            runs = {}
            for engine in ("async", "fastpath"):
                reference_calls.clear()
                record = execute_spec(_spec(protocol, scheduler, model, seed, engine))
                runs[engine] = (record.outcome, record.metrics)
                if engine == "fastpath":
                    on_kernel = name in TRANSPORT_MODELS
                    assert (reference_calls == []) is on_kernel, (name, seed)
            where = (protocol, scheduler, name, seed)
            assert runs["async"] == runs["fastpath"], where
            metrics = runs["fastpath"][1]
            assert metric_fields <= set(metrics), where
            assert {"fault_dropped", "fault_duplicated", "fault_delayed"} <= set(metrics)


def test_transport_faults_act_on_the_kernel(reference_calls):
    """The kernel really injects the faults: counters move, nothing falls back."""
    totals = dict.fromkeys(("fault_dropped", "fault_duplicated", "fault_delayed"), 0)
    for seed in SEEDS:
        spec = _spec("general-broadcast", "random", TRANSPORT_MODELS["mixed"], seed, "fastpath")
        metrics = execute_spec(spec).metrics
        for key in totals:
            totals[key] += metrics[key]
    assert reference_calls == []
    assert all(totals.values()), totals
