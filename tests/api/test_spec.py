"""Tests for RunSpec / RunRecord: round-trip, materialization, execution."""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.api import (
    RunRecord,
    RunSpec,
    SpecError,
    UnknownNameError,
    execute_spec,
    execute_spec_full,
)
from repro.api.spec import TIMING_FIELDS, dump_specs, load_specs
from repro.core.general_broadcast import GeneralBroadcastProtocol
from repro.graphs.generators import random_digraph
from repro.graphs.properties import longest_path_length
from repro.network.scheduler import LatencyScheduler, RandomScheduler
from repro.network.simulator import run_protocol


def digraph_spec(**overrides) -> RunSpec:
    base = dict(
        graph="random-digraph",
        graph_params={"num_internal": 12},
        protocol="general-broadcast",
        seed=3,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRoundTrip:
    def test_from_dict_to_dict_identity(self):
        spec = digraph_spec(
            protocol_params={"broadcast_payload": "hello"},
            graph_transforms=("with-dead-end-vertex",),
            scheduler="random",
            scheduler_params={"seed": 5},
            engine="fastpath",
            max_steps=1000,
            record_trace=True,
            track_state_bits=True,
            stop_at_termination=True,
            label="round-trip",
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = digraph_spec(graph_transforms=("with-stranded-cycle",))
        assert RunSpec.from_json(spec.to_json()) == spec
        # and the dict really is plain JSON data
        json.dumps(spec.to_dict())

    def test_transform_lists_normalize_to_tuples(self):
        payload = digraph_spec().to_dict()
        payload["graph_transforms"] = ["with-dead-end-vertex"]  # JSON gives lists
        spec = RunSpec.from_dict(payload)
        assert spec.graph_transforms == ("with-dead-end-vertex",)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        payload = digraph_spec().to_dict()
        payload["not_a_field"] = 1
        with pytest.raises(SpecError):
            RunSpec.from_dict(payload)

    def test_bad_engine_rejected(self):
        with pytest.raises(SpecError):
            digraph_spec(engine="quantum")

    def test_non_json_params_rejected(self):
        with pytest.raises(SpecError):
            digraph_spec(protocol_params={"payload": object()})

    def test_spec_file_round_trip(self, tmp_path):
        specs = [digraph_spec(seed=s) for s in range(3)]
        path = tmp_path / "specs.json"
        dump_specs(specs, str(path))
        assert load_specs(str(path)) == specs

    def test_load_specs_accepts_single_object_and_jsonl(self, tmp_path):
        spec = digraph_spec()
        single = tmp_path / "one.json"
        single.write_text(spec.to_json(), encoding="utf-8")
        assert load_specs(str(single)) == [spec]

        jsonl = tmp_path / "many.jsonl"
        jsonl.write_text(
            "\n".join(digraph_spec(seed=s).to_json() for s in range(3)),
            encoding="utf-8",
        )
        assert len(load_specs(str(jsonl))) == 3


class TestIdentity:
    def test_spec_id_stable(self):
        assert digraph_spec().spec_id == digraph_spec().spec_id

    def test_label_does_not_change_identity(self):
        assert digraph_spec(label="a").spec_id == digraph_spec(label="b").spec_id
        assert digraph_spec(label="a") != digraph_spec(label="b")

    def test_any_other_field_changes_identity(self):
        base = digraph_spec()
        assert base.spec_id != digraph_spec(seed=4).spec_id
        assert base.spec_id != digraph_spec(protocol="label-assignment").spec_id
        assert base.spec_id != digraph_spec(scheduler="lifo").spec_id

    def test_specs_are_hashable(self):
        assert len({digraph_spec(), digraph_spec(), digraph_spec(seed=9)}) == 2


def reference_to_dict(spec: RunSpec) -> dict:
    """``RunSpec.to_dict`` as it was first written, on ``dataclasses.asdict``."""
    payload = dataclasses.asdict(spec)
    payload["graph_transforms"] = list(spec.graph_transforms)
    payload["faults"] = spec.faults.to_dict() if spec.faults is not None else None
    return payload


def reference_spec_id(spec: RunSpec) -> str:
    payload = reference_to_dict(spec)
    payload.pop("label")
    for key in ("faults", "trace"):
        if payload[key] is None:
            payload.pop(key)
    if not payload["observe"]:
        payload.pop("observe")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def reference_record_json(record: RunRecord) -> str:
    payload = dataclasses.asdict(record)
    payload["spec"] = reference_to_dict(record.spec)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Specs covering every identity rule, with the spec_id each has always had.
PINNED_SPECS = [
    (RunSpec(graph="random-grounded-tree", protocol="tree-broadcast", seed=1), "dc48cb0dba665947"),
    (
        RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": 8},
            protocol="general-broadcast",
            seed=None,
        ),
        "3612c6afd6e1920d",
    ),
    (
        RunSpec(
            graph="random-dag",
            graph_params={"num_internal": 6, "shape": (2, (3, 4))},
            protocol="flooding",
            protocol_params={"weights": (1, 2)},
            graph_transforms=("with-dead-end-vertex", "with-stranded-cycle"),
            label="tagged",
            seed=7,
        ),
        "ddf78885c02fec1d",
    ),
    (
        RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": 10},
            protocol="general-broadcast",
            engine="fastpath",
            seed=2,
            faults={"drop_probability": 0.1, "crashes": [{"vertex": 2, "step": 5}], "seed": 4},
        ),
        "5000ced71262c0c7",
    ),
    (
        RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": 12},
            protocol="tree-broadcast",
            engine="fastpath",
            scheduler="random",
            scheduler_params={"seed": 9},
            max_steps=500,
            stop_at_termination=True,
            trace="sample:8",
            seed=3,
        ),
        "2b98e1a549f6133b",
    ),
    (
        RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": 8},
            protocol="general-broadcast",
            seed=5,
            faults={"drop_probability": 0.2, "crashes": [{"vertex": 1, "step": 3}]},
            trace="full",
        ),
        "54df6e7db9abff3c",
    ),
    (
        RunSpec(
            graph="random-digraph",
            graph_params={"num_internal": 8},
            protocol="label-assignment",
            seed=5,
            observe=True,
        ),
        "7e71118b2b526df6",
    ),
]
PINNED_IDS = [f"spec{index}" for index in range(len(PINNED_SPECS))]


def pinned_record(spec: RunSpec) -> RunRecord:
    return RunRecord(
        spec=spec,
        outcome="terminated",
        terminated=True,
        num_vertices=5,
        num_edges=7,
        metrics={"steps": 3, "termination_step": None, "mean": 0.5},
        elapsed_seconds=0.25,
    )


class TestIdentityIsByteStable:
    """The hand-written identity and serialisation match the ``asdict`` forms."""

    @pytest.mark.parametrize("spec, spec_id", PINNED_SPECS, ids=PINNED_IDS)
    def test_spec_id_pinned(self, spec, spec_id):
        assert spec.spec_id == spec_id
        assert reference_spec_id(spec) == spec_id
        assert RunSpec.from_json(spec.to_json()).spec_id == spec_id

    @pytest.mark.parametrize("spec, spec_id", PINNED_SPECS, ids=PINNED_IDS)
    def test_to_dict_matches_asdict_reference(self, spec, spec_id):
        assert spec.to_dict() == reference_to_dict(spec)
        assert list(spec.to_dict()) == list(reference_to_dict(spec))

    @pytest.mark.parametrize("spec, spec_id", PINNED_SPECS, ids=PINNED_IDS)
    def test_record_json_matches_asdict_reference(self, spec, spec_id):
        record = pinned_record(spec)
        assert record.to_dict() == json.loads(reference_record_json(record))
        assert record.to_json() == reference_record_json(record)
        assert RunRecord.from_json(record.to_json()).to_json() == record.to_json()

    def test_executed_record_json_matches_asdict_reference(self):
        record = execute_spec(digraph_spec(faults={"drop_probability": 0.2}))
        assert record.to_json() == reference_record_json(record)

    @pytest.mark.parametrize("spec, spec_id", PINNED_SPECS, ids=PINNED_IDS)
    def test_mutating_to_dict_leaves_spec_alone(self, spec, spec_id):
        before = reference_to_dict(spec)
        payload = spec.to_dict()
        payload["graph_params"]["num_internal"] = 99
        payload["graph_params"]["extra"] = [1]
        payload["protocol_params"]["extra"] = {"x": 1}
        payload["scheduler_params"]["extra"] = True
        payload["graph_transforms"].append("with-dead-end-vertex")
        if "shape" in payload["graph_params"]:
            payload["graph_params"]["shape"][1].append(5)
        if payload["faults"] is not None:
            payload["faults"]["crashes"].append({"vertex": 1, "step": 1})
        assert reference_to_dict(spec) == before
        assert spec.spec_id == spec_id

    @pytest.mark.parametrize("spec, spec_id", PINNED_SPECS, ids=PINNED_IDS)
    def test_copies_never_carry_a_stale_id(self, spec, spec_id):
        assert spec.spec_id == spec_id  # memoised on the instance now
        reseeded = spec.with_seed(12345)
        assert reseeded.spec_id == reference_spec_id(reseeded) != spec_id
        assert spec.with_seed(spec.seed).spec_id == spec_id
        replaced = dataclasses.replace(spec, max_steps=77)
        assert replaced.spec_id == reference_spec_id(replaced) != spec_id
        # A pickle carries the fields only: even a corrupted memo is not
        # shipped across a process boundary.
        object.__setattr__(spec, "_spec_id", "stale")
        try:
            clone = pickle.loads(pickle.dumps(spec))
        finally:
            object.__delattr__(spec, "_spec_id")
        assert clone == spec
        assert clone.spec_id == spec_id
        assert spec.spec_id == spec_id

    def test_spec_id_is_a_plain_property(self):
        # Tracing tools re-wrap it as property(wrapper(fget)); a descriptor
        # of another kind would turn spec.spec_id into a bound method.
        assert type(RunSpec.__dict__["spec_id"]) is property


class TestMaterialization:
    def test_build_graph_matches_direct_call(self):
        net = digraph_spec().build_graph()
        direct = random_digraph(12, seed=3)
        assert net.num_vertices == direct.num_vertices
        assert list(net.edges) == list(direct.edges)

    def test_seed_injection_defers_to_explicit_param(self):
        spec = digraph_spec(graph_params={"num_internal": 12, "seed": 8}, seed=3)
        direct = random_digraph(12, seed=8)
        assert list(spec.build_graph().edges) == list(direct.edges)

    def test_seed_not_injected_where_unsupported(self):
        spec = RunSpec(
            graph="layered-diamond-dag",
            graph_params={"depth": 3},
            protocol="dag-broadcast",
            seed=17,
        )
        spec.build_graph()  # would TypeError if seed were passed through

    def test_build_protocol(self):
        protocol = digraph_spec(
            protocol_params={"broadcast_payload": "hi"}
        ).build_protocol()
        assert isinstance(protocol, GeneralBroadcastProtocol)
        assert protocol.broadcast_payload == "hi"

    def test_build_scheduler_with_seed_injection(self):
        sched = digraph_spec(scheduler="random").build_scheduler()
        assert isinstance(sched, RandomScheduler)
        assert sched.seed == 3  # top-level spec seed injected
        explicit = digraph_spec(
            scheduler="latency", scheduler_params={"seed": 0, "min_latency": 2.0}
        ).build_scheduler()
        assert isinstance(explicit, LatencyScheduler)

    def test_unknown_names_fail_at_build_time(self):
        with pytest.raises(UnknownNameError):
            digraph_spec(graph="no-such-graph").build_graph()
        with pytest.raises(UnknownNameError):
            digraph_spec(protocol="no-such-protocol").build_protocol()
        with pytest.raises(UnknownNameError):
            digraph_spec(scheduler="no-such-scheduler").build_scheduler()

    def test_transforms_applied(self):
        plain = digraph_spec().build_graph()
        bad = digraph_spec(graph_transforms=("with-dead-end-vertex",)).build_graph()
        assert bad.num_vertices == plain.num_vertices + 1


class TestExecution:
    def test_record_matches_direct_run(self):
        spec = digraph_spec()
        record = execute_spec(spec)
        direct = run_protocol(
            random_digraph(12, seed=3), GeneralBroadcastProtocol()
        )
        assert record.terminated and direct.terminated
        assert record.outcome == direct.outcome.value
        assert record.metrics["total_bits"] == direct.metrics.total_bits
        assert record.metrics["total_messages"] == direct.metrics.total_messages
        assert record.num_edges == spec.build_graph().num_edges

    def test_record_round_trips_through_json(self):
        record = execute_spec(digraph_spec())
        clone = RunRecord.from_json(record.to_json())
        assert clone == record
        assert clone.spec == record.spec

    def test_comparable_dict_strips_timing(self):
        record = execute_spec(digraph_spec())
        payload = record.comparable_dict()
        for field in TIMING_FIELDS:
            assert field not in payload

    def test_execute_spec_full_exposes_states_and_network(self):
        record, result, network = execute_spec_full(digraph_spec())
        assert record.terminated
        assert result.states  # white-box access preserved
        assert network.num_edges == record.num_edges

    def test_rounds_scheduler_reports_rounds(self):
        spec = RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": 20},
            protocol="tree-broadcast",
            scheduler="rounds",
            seed=0,
        )
        record = execute_spec(spec)
        assert record.terminated
        assert record.metrics["termination_round"] == longest_path_length(spec.build_graph())
        assert record.metrics["rounds"] == record.metrics["termination_round"]

    def test_dead_end_transform_blocks_termination(self):
        record = execute_spec(
            digraph_spec(graph_transforms=("with-dead-end-vertex",))
        )
        assert not record.terminated
        assert record.outcome == "quiescent-without-termination"

    def test_spec_run_shorthand(self):
        record = digraph_spec().run()
        assert isinstance(record, RunRecord)
        assert record.terminated


def executed_record_texts():
    """``to_json`` lines of executed records: every registered engine, plus
    transforms, a trace policy, a fault model, no seed, a label and nested
    params."""
    from repro.api.engines import ENGINES

    specs = [
        RunSpec(
            graph="path-network",
            graph_params={"length": 5},
            protocol="flooding",
            scheduler="random",
            engine=engine,
            seed=4,
        )
        for engine in ENGINES.names()
    ] + [
        digraph_spec(graph_transforms=("with-dead-end-vertex",), label="dead end"),
        digraph_spec(engine="fastpath", trace="sample:3"),
        digraph_spec(engine="fastpath", faults={"drop_probability": 0.2, "seed": 1}),
        digraph_spec(seed=None, protocol_params={"broadcast_payload": {"a": [1, {"b": 2.5}]}}),
    ]
    return [execute_spec(spec).to_json() for spec in specs]


def stored_texts():
    return executed_record_texts() + [pinned_record(spec).to_json() for spec, _ in PINNED_SPECS]


def parse_in_full(text):
    """The parse every record had before ``from_json`` skipped re-rounding
    params through JSON: ``from_dict`` runs the whole ``__post_init__``."""
    return RunRecord.from_dict(json.loads(text))


class TestRecordLoader:
    """``RunRecord.from_json`` equals a fully validating parse, only cheaper."""

    def test_equals_full_parse(self):
        for text in stored_texts():
            parsed, full = RunRecord.from_json(text), parse_in_full(text)
            assert parsed == full
            assert type(parsed.spec.graph_transforms) is tuple
            assert parsed.spec.faults == full.spec.faults
            assert parsed.spec.spec_id == full.spec.spec_id
            assert parsed.to_json() == text

    def test_validates_without_rerounding_params(self, monkeypatch):
        import repro.api.spec as spec_module

        texts = stored_texts()
        rounded, validated = [], []
        json_safe, validate = spec_module._json_safe, RunSpec._validate
        monkeypatch.setattr(
            spec_module, "_json_safe", lambda *a: rounded.append(a) or json_safe(*a)
        )
        monkeypatch.setattr(
            RunSpec, "_validate", lambda spec: validated.append(spec) or validate(spec)
        )
        for text in texts:
            RunRecord.from_json(text)
        assert rounded == []
        assert len(validated) == len(texts)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p["spec"].update(graph_params=[["num_internal", 12]]),
            lambda p: p["spec"].update(graph_transforms=None),
            lambda p: p["spec"].update(trace="off"),
            lambda p: p["spec"].pop("label"),
        ],
        ids=["params-as-pairs", "transforms-null", "trace-off", "no-label"],
    )
    def test_odd_but_accepted_payloads_agree(self, mutate):
        payload = execute_spec(digraph_spec()).to_dict()
        mutate(payload)
        text = json.dumps(payload)
        assert RunRecord.from_json(text) == parse_in_full(text)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p["spec"].update(colour="red"),
            lambda p: p["spec"].pop("protocol"),
            lambda p: p["spec"].update(graph=5),
            lambda p: p["spec"].update(scheduler=""),
            lambda p: p["spec"].update(engine="nope"),
            lambda p: p["spec"].update(graph_transforms="abc"),
            lambda p: p["spec"].update(protocol_params="abc"),
            lambda p: p["spec"].update(faults={"drop_probability": 2}),
            lambda p: p["spec"].update(trace="sample:0"),
            lambda p: p.update(colour="red"),
            lambda p: p.pop("metrics"),
            lambda p: p.update(spec=[1]),
        ],
        ids=[
            "unknown-spec-key",
            "missing-spec-key",
            "graph-not-a-string",
            "empty-scheduler",
            "unknown-engine",
            "transforms-a-string",
            "params-a-string",
            "bad-faults",
            "bad-trace",
            "unknown-record-key",
            "missing-record-key",
            "spec-not-a-dict",
        ],
    )
    def test_refuses_what_a_full_parse_refuses(self, mutate):
        payload = execute_spec(digraph_spec()).to_dict()
        mutate(payload)
        text = json.dumps(payload)
        with pytest.raises((ValueError, KeyError, TypeError)) as expected:
            parse_in_full(text)
        with pytest.raises(expected.type):
            RunRecord.from_json(text)

    @pytest.mark.parametrize("spec, spec_id", PINNED_SPECS, ids=PINNED_IDS)
    def test_seed_variants_equal_with_seed(self, spec, spec_id):
        from repro.network.batchpath import _seed_variants

        assert spec.spec_id == spec_id  # memoised: clones must not inherit it
        seeds = [0, 7, None, 2**70]
        clones = _seed_variants(spec, seeds)
        expected = [spec.with_seed(seed) for seed in seeds]
        assert clones == expected
        assert [c.spec_id for c in clones] == [e.spec_id for e in expected]
        assert [c.to_json() for c in clones] == [e.to_json() for e in expected]
