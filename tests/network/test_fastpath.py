"""Unit tests for the fast-path engine machinery itself.

The equivalence contract is covered exhaustively by
``tests/api/test_engine_differential.py``; this module tests the engine's
own moving parts: the compiled topology pass, the flat queue/stack/
scheduler drivers, error propagation, kernel engagement rules and the
routing of every non-kernel run to the reference loop.
"""

from __future__ import annotations

import inspect

import pytest

from repro.api import GRAPH_TRANSFORMS, GRAPHS, ensure_registered
from repro.core.general_broadcast import GeneralBroadcastProtocol
from repro.core.interval_kernel import (
    IntervalKernel,
    _BoundaryCosts,
    _cost,
    _difference,
    _intersection,
    _split,
    _union,
)
from repro.core.intervals import (
    EMPTY_UNION,
    UNIT_INTERVAL,
    UNIT_UNION,
    Interval,
    IntervalUnion,
    split_interval,
    union_cost,
)
from repro.core.dyadic import Dyadic
from repro.core.model import AnonymousProtocol
from repro.network import fastpath
from repro.network.fastpath import (
    CompiledNetwork,
    FastEvent,
    run_protocol_fastpath,
)
from repro.network.faults import FaultSpec
from repro.network.graph import DirectedNetwork
from repro.network.scheduler import FifoScheduler, LifoScheduler, RandomScheduler
from repro.network.simulator import Outcome, SimulationError, run_protocol

from ..conftest import flat_union

ensure_registered()


#: Small params for every registered graph family (seeded ones get seeds 0-2).
FAMILY_PARAMS = {
    "random-grounded-tree": {"num_internal": 9},
    "random-dag": {"num_internal": 9},
    "random-digraph": {"num_internal": 9},
    "geometric-sensor-field": {"num_sensors": 9},
    "layered-diamond-dag": {"depth": 3},
    "path-network": {"length": 4},
    "caterpillar-gn": {"n": 4},
    "skeleton-tree": {"n": 3, "subset": [0, 2]},
    "full-tree-with-terminal": {"degree": 3, "height": 2},
    "pruned-tree": {"degree": 3, "height": 3},
}


def diamond():
    """s -> a, s -> b, a -> t, b -> t (root 0, terminal 3)."""
    return DirectedNetwork(4, [(0, 1), (0, 2), (1, 3), (2, 3)], root=0, terminal=3)


class TestCompiledNetwork:
    def test_flat_arrays_match_network_queries(self):
        net = DirectedNetwork(
            5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)], root=0, terminal=4
        )
        compiled = CompiledNetwork(net)
        assert compiled.num_vertices == net.num_vertices
        assert compiled.num_edges == net.num_edges
        assert compiled.root == net.root
        assert compiled.terminal == net.terminal
        for eid in range(net.num_edges):
            assert compiled.edge_head[eid] == net.edge_head(eid)
            assert compiled.edge_tail[eid] == net.edge_tail(eid)
            assert compiled.in_port[eid] == net.in_port_of_edge(eid)
        for v in range(net.num_vertices):
            assert compiled.out_edge_ids[v] == net.out_edge_ids(v)
            assert compiled.in_degree[v] == net.in_degree(v)
            assert compiled.out_degree[v] == net.out_degree(v)
        assert len(compiled.in_degree) == len(compiled.out_degree) == net.num_vertices

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_every_registered_family_compiles_to_its_queries(self, family):
        assert set(FAMILY_PARAMS) == set(GRAPHS.names())
        factory = GRAPHS.get(family)
        seeds = [{"seed": s} for s in range(3)]
        for seed in seeds if "seed" in inspect.signature(factory).parameters else [{}]:
            base = factory(**FAMILY_PARAMS[family], **seed)
            nets = [base] + [
                GRAPH_TRANSFORMS.create(name, base) for name in GRAPH_TRANSFORMS.names()
            ]
            for net in nets:
                compiled = CompiledNetwork(net)
                assert compiled.edge_tail == [net.edge_tail(e) for e in range(net.num_edges)]
                assert compiled.edge_head == [net.edge_head(e) for e in range(net.num_edges)]
                assert compiled.in_port == [
                    net.in_port_of_edge(e) for e in range(net.num_edges)
                ]
                assert compiled.in_degree == [
                    net.in_degree(v) for v in range(net.num_vertices)
                ]
                assert compiled.out_degree == [
                    net.out_degree(v) for v in range(net.num_vertices)
                ]
                assert compiled.out_edge_ids == [
                    net.out_edge_ids(v) for v in range(net.num_vertices)
                ]

    def test_multi_edges_get_distinct_in_ports(self):
        net = DirectedNetwork(3, [(0, 1), (1, 2), (1, 2)], root=0, terminal=2)
        compiled = CompiledNetwork(net)
        assert compiled.in_port[1] == 0
        assert compiled.in_port[2] == 1


class TestFastEvent:
    def test_duck_types_message_event_attributes(self):
        event = FastEvent(3, "payload", 7, 2, 11)
        assert (event.edge_id, event.payload, event.seq, event.sent_step, event.bits) == (
            3,
            "payload",
            7,
            2,
            11,
        )


class _BadPortProtocol(AnonymousProtocol):
    """Emits on a non-existent out-port on the first delivery."""

    name = "bad-port"

    def create_state(self, view):
        return 0

    def initial_emissions(self, view):
        return [(0, "go")]

    def on_receive(self, state, view, in_port, message):
        return state + 1, [(view.out_degree + 3, "boom")]

    def is_terminated(self, state):
        return False

    def message_bits(self, message):
        return 8


class TestEngineBehaviour:
    @pytest.mark.parametrize(
        "scheduler_factory",
        [FifoScheduler, LifoScheduler, lambda: RandomScheduler(seed=1)],
        ids=["fifo", "lifo", "random"],
    )
    def test_bad_out_port_raises_like_reference(self, scheduler_factory):
        protocol = _BadPortProtocol()
        with pytest.raises(SimulationError, match="out-port"):
            run_protocol(diamond(), protocol, scheduler_factory())
        with pytest.raises(SimulationError, match="out-port"):
            run_protocol_fastpath(diamond(), protocol, scheduler_factory())

    def test_default_budget_matches_reference(self):
        net = diamond()
        protocol = GeneralBroadcastProtocol()
        fast = run_protocol_fastpath(net, protocol)
        reference = run_protocol(net, protocol)
        assert fast.metrics == reference.metrics
        assert fast.outcome is reference.outcome

    def test_trace_materialised_identically(self):
        net = diamond()
        protocol = GeneralBroadcastProtocol()
        fast = run_protocol_fastpath(net, protocol, record_trace=True)
        reference = run_protocol(net, protocol, record_trace=True)
        assert fast.trace is not None
        assert fast.trace.deliveries == reference.trace.deliveries
        assert fast.trace.distinct_symbols() == reference.trace.distinct_symbols()

    def test_no_trace_by_default(self):
        result = run_protocol_fastpath(diamond(), GeneralBroadcastProtocol())
        assert result.trace is None

    def test_budget_exhaustion_outcome(self):
        result = run_protocol_fastpath(
            diamond(), GeneralBroadcastProtocol(), max_steps=1
        )
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.metrics.steps == 1
        assert result.output is None

    def test_states_are_real_general_states(self):
        net = diamond()
        fast = run_protocol_fastpath(net, GeneralBroadcastProtocol("m"))
        reference = run_protocol(net, GeneralBroadcastProtocol("m"))
        assert set(fast.states) == set(reference.states)
        for v in fast.states:
            assert repr(fast.states[v]) == repr(reference.states[v])
        assert fast.output == reference.output == "m"


class TestKernelEngagement:
    def test_plain_protocol_offers_kernel(self):
        compiled = CompiledNetwork(diamond())
        kernel = GeneralBroadcastProtocol().compile_fastpath(compiled)
        assert isinstance(kernel, IntervalKernel)

    def test_unknown_subclass_falls_back_to_reference(self):
        class Tweaked(GeneralBroadcastProtocol):
            name = "tweaked-general-broadcast"

        compiled = CompiledNetwork(diamond())
        assert Tweaked().compile_fastpath(compiled) is None

    def test_base_protocol_hook_defaults_to_none(self):
        compiled = CompiledNetwork(diamond())
        assert _BadPortProtocol().compile_fastpath(compiled) is None


class _NullSink:
    """The smallest durable trace sink: accepts and drops every event."""

    def record(self, step, edge_id, payload, bits):
        pass

    def defer(self, step):
        pass


class _TweakedGeneral(GeneralBroadcastProtocol):
    """A behaviour subclass: compiles no kernel (exact-type guard)."""

    name = "tweaked-general-broadcast"


class TestRouting:
    """A run the kernel cannot serve goes to the reference loop, once."""

    @pytest.fixture
    def reference_calls(self, monkeypatch):
        calls = []
        reference = fastpath.run_protocol

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return reference(*args, **kwargs)

        monkeypatch.setattr(fastpath, "run_protocol", spy)
        return calls

    @pytest.mark.parametrize(
        "protocol_factory, options",
        [
            (
                GeneralBroadcastProtocol,
                lambda net: {
                    "faults": FaultSpec(
                        drop_probability=0.1,
                        churn=({"vertex": 2, "leave_step": 1, "rejoin_step": 3},),
                        seed=3,
                    ).build(net, 0)
                },
            ),
            (GeneralBroadcastProtocol, lambda net: {"trace_sink": _NullSink()}),
            (GeneralBroadcastProtocol, lambda net: {"record_trace": True}),
            (GeneralBroadcastProtocol, lambda net: {"track_state_bits": True}),
            (_TweakedGeneral, lambda net: {}),
        ],
        ids=["churn", "trace", "record_trace", "track_state_bits", "no-kernel"],
    )
    def test_non_kernel_runs_use_the_reference_loop(
        self, reference_calls, protocol_factory, options
    ):
        net = diamond()
        fast_options = options(net)
        fast = run_protocol_fastpath(net, protocol_factory(), **fast_options)
        assert len(reference_calls) == 1
        for name, value in fast_options.items():
            assert reference_calls[0][name] is value
        reference = run_protocol(net, protocol_factory(), **options(net))
        assert fast.metrics == reference.metrics
        assert fast.outcome is reference.outcome

    @pytest.mark.parametrize(
        "scheduler_factory",
        [FifoScheduler, LifoScheduler, lambda: RandomScheduler(seed=1)],
        ids=["fifo", "lifo", "random"],
    )
    def test_plain_kernel_runs_never_call_it(
        self, reference_calls, scheduler_factory
    ):
        result = run_protocol_fastpath(
            diamond(), GeneralBroadcastProtocol(), scheduler_factory()
        )
        assert reference_calls == []
        assert result.outcome is Outcome.TERMINATED

    def test_transport_faults_stay_on_the_kernel(self, reference_calls):
        net = diamond()
        spec = FaultSpec(drop_probability=0.2, duplicate_probability=0.3, delay_probability=0.3)
        fast_faults, reference_faults = spec.build(net, 5), spec.build(net, 5)
        fast = run_protocol_fastpath(net, GeneralBroadcastProtocol(), faults=fast_faults)
        assert reference_calls == []
        reference = run_protocol(net, GeneralBroadcastProtocol(), faults=reference_faults)
        assert fast.metrics == reference.metrics
        assert fast_faults.counters() == reference_faults.counters()


#: Boundary precision of the hand-built unions: deeper than any case needs,
#: so bit costs must strip the trailing zeros to match.
PREC = 8


def _flat(union: IntervalUnion, prec: int = PREC):
    return flat_union(union, prec)


class TestFlatAlgebra:
    """The kernel's boundary-tuple algebra agrees with the object implementation."""

    CASES = [
        (EMPTY_UNION, EMPTY_UNION),
        (UNIT_UNION, EMPTY_UNION),
        (
            IntervalUnion.of(Interval(Dyadic(0), Dyadic(1, 2))),
            IntervalUnion.of(Interval(Dyadic(1, 2), Dyadic(1, 1))),
        ),
        (
            IntervalUnion.of(
                Interval(Dyadic(1, 3), Dyadic(3, 3)),
                Interval(Dyadic(5, 3), Dyadic(7, 3)),
            ),
            IntervalUnion.of(Interval(Dyadic(1, 2), Dyadic(3, 2))),
        ),
        (
            IntervalUnion.of(Interval(Dyadic(1, 4), Dyadic(13, 4))),
            IntervalUnion.of(
                Interval(Dyadic(1, 3), Dyadic(3, 3)),
                Interval(Dyadic(11, 4), Dyadic(15, 4)),
            ),
        ),
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_union_difference_intersection_match(self, a, b):
        assert _union(_flat(a), _flat(b)) == _flat(a.union(b))
        assert _difference(_flat(a), _flat(b)) == _flat(a.difference(b))
        assert _intersection(_flat(a), _flat(b)) == _flat(a.intersection(b))

    @pytest.mark.parametrize("a,b", CASES)
    def test_cost_matches_union_cost(self, a, b):
        costs = _BoundaryCosts(PREC)
        assert _cost(_flat(a), costs) == union_cost(a)
        assert _cost(_flat(b), costs) == union_cost(b)

    @pytest.mark.parametrize("parts", [2, 3, 4, 5, 8])
    def test_split_matches_split_interval(self, parts):
        interval = Interval(Dyadic(1, 3), Dyadic(7, 3))
        expected = [_flat(IntervalUnion.of(iv)) for iv in split_interval(interval, parts)]
        assert _split(*_flat(IntervalUnion.of(interval)), parts) == expected

    def test_split_unit_interval(self):
        expected = [_flat(IntervalUnion.of(iv)) for iv in split_interval(UNIT_INTERVAL, 3)]
        assert _split(*_flat(UNIT_UNION), 3) == expected

    def test_split_below_needed_precision_raises(self):
        # Δ = (7/8 - 1/8) / 8 = 3/32 needs 5 bits; at 4 the split is inexact.
        interval = IntervalUnion.of(Interval(Dyadic(1, 3), Dyadic(7, 3)))
        assert len(_split(*_flat(interval, 5), 8)) == 8
        with pytest.raises(ArithmeticError, match="inexact"):
            _split(*_flat(interval, 4), 8)
