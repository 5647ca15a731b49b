"""Protocol observables in records: ``RunSpec.observe`` and the ``observe`` hook.

Facts read off a run's final vertex states (label uniqueness, exact
topology reconstruction) reach a :class:`~repro.api.spec.RunRecord` only
for specs that set ``observe=True``; then they are cached, compared and
served like every other metric.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    AGGREGATORS,
    EXPERIMENTS,
    PROTOCOLS,
    CampaignRunner,
    RunRecord,
    RunSpec,
    ensure_registered,
    execute_spec,
)
from repro.api.spec import execute_spec_full
from repro.core.interval_kernel import IntervalKernel
from repro.store import ResultStore

ensure_registered()

GRAPH_FAMILIES = (
    ("random-grounded-tree", {"num_internal": 7}),
    ("random-dag", {"num_internal": 7}),
    ("random-digraph", {"num_internal": 7}),
)

#: What each protocol that overrides the hook observes.
OBSERVABLES = {
    "label-assignment": {"all_labeled", "labels_disjoint", "max_label_bits", "coverage_safe"},
    "topology-mapping": {"mapping_exact"},
}

#: The four campaigns whose rows read observables.
OBSERVING_CAMPAIGNS = ("e06", "e11", "e12", "e18")


def spec_for(protocol: str, graph: str, params: dict, **fields) -> RunSpec:
    return RunSpec(
        graph=graph, graph_params=params, protocol=protocol, seed=5, max_steps=3000, **fields
    )


def observables(record: RunRecord) -> dict:
    plain = execute_spec(dataclasses.replace(record.spec, observe=False))
    return {k: v for k, v in record.metrics.items() if k not in plain.metrics}


@pytest.mark.parametrize("graph,params", GRAPH_FAMILIES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
def test_engines_record_equal_json_scalar_observables(protocol, graph, params):
    records = [
        execute_spec(spec_for(protocol, graph, params, observe=True, engine=engine))
        for engine in ("async", "fastpath")
    ]
    reference, fast = (observables(record) for record in records)
    assert fast == reference
    assert set(reference) == OBSERVABLES.get(protocol, set())
    for value in reference.values():
        assert value is None or type(value) in (bool, int, float, str)


@pytest.mark.parametrize("protocol", sorted(OBSERVABLES))
def test_observed_facts_hold_on_a_terminating_run(protocol):
    record = execute_spec(spec_for(protocol, "random-digraph", {"num_internal": 10}, observe=True))
    assert record.terminated
    assert all(record.metrics[key] for key in OBSERVABLES[protocol])


def test_spec_id_moves_only_when_observe_is_set():
    spec = spec_for("label-assignment", "random-digraph", {"num_internal": 10})
    spec = dataclasses.replace(spec, seed=3, max_steps=None)
    # The id this spec had before the field existed.
    assert spec.spec_id == "9c153353281a4935"
    observed = dataclasses.replace(spec, observe=True)
    assert observed.spec_id != spec.spec_id
    assert RunSpec.from_dict(observed.to_dict()) == observed
    assert spec.to_dict()["observe"] is False
    legacy = spec.to_dict()
    del legacy["observe"]
    assert RunSpec.from_dict(legacy) == spec


@pytest.mark.parametrize("observe", [False, True])
def test_fastpath_states_are_built_only_for_observed_specs(monkeypatch, observe):
    calls = []
    raw = IntervalKernel.finalize_states

    def counted(self):
        calls.append(1)
        return raw(self)

    monkeypatch.setattr(IntervalKernel, "finalize_states", counted)
    spec = spec_for(
        "label-assignment", "random-digraph", {"num_internal": 10}, engine="fastpath",
        observe=observe,
    )
    execute_spec_full(spec)
    assert len(calls) == int(observe)


def test_traced_records_carry_trace_profile_scalars():
    records = [
        execute_spec(
            spec_for("dag-broadcast", "random-dag", {"num_internal": 8}, engine=engine, **flags)
        )
        for engine in ("async", "fastpath")
        for flags in ({"record_trace": True}, {})
    ]
    traced, plain = records[0], records[1]
    assert traced.metrics["max_vertex_load"] >= 1
    assert traced.metrics["distinct_message_sizes"] >= 1
    assert "max_vertex_load" not in plain.metrics
    assert traced.comparable_dict()["metrics"] == records[2].comparable_dict()["metrics"]


@pytest.mark.parametrize(
    "aggregator,field",
    [
        ("labeling-quality", "observe"),
        ("label-gap", "observe"),
        ("churn-labeling", "observe"),
        ("mapping-accuracy", "observe"),
        ("trace-profile", "record_trace"),
    ],
)
def test_aggregator_names_the_missing_field(aggregator, field):
    record = execute_spec(spec_for("label-assignment", "random-digraph", {"num_internal": 6}))
    with pytest.raises(ValueError, match=f"must set {field}=True"):
        AGGREGATORS.get(aggregator)([record])


def test_observing_campaigns_are_served_from_the_store(tmp_path):
    """A renamed copy misses the row cache but finds every record."""
    with ResultStore(str(tmp_path / "store")) as store:
        for name in OBSERVING_CAMPAIGNS:
            experiment = EXPERIMENTS.get(name)
            assert experiment.base["observe"] is True
            cold = CampaignRunner(scale="quick", store=store).run(experiment)
            renamed = dataclasses.replace(experiment, name=f"{name}-renamed")
            warm = CampaignRunner(scale="quick", store=store).run(renamed)
            assert not warm.rows_cached
            assert warm.stats.executed == 0 and warm.stats.store_hits == cold.stats.total
            assert warm.rows == cold.rows
