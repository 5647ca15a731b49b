"""Unit tests for the shared flat-kernel base and the scalar kernels.

The byte-identity contract is held by the differential suite
(``tests/api/test_engine_differential.py``) and the run-mode edge cases
(``tests/api/test_kernel_completeness.py``); this module tests the flat
machinery itself: the dyadic-pair arithmetic against :class:`Dyadic`, the
inlined bit costs against :mod:`repro.core.encoding`, state
materialisation, and snapshot/restore round trips.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.baselines.flooding import FloodingProtocol
from repro.baselines.naive_tree import NaiveTreeBroadcastProtocol
from repro.core.dag_broadcast import DagBroadcastProtocol
from repro.core.dyadic import Dyadic
from repro.core.encoding import dyadic_cost, signed_cost, unsigned_cost
from repro.core.flat_kernel import (
    DagBroadcastKernel,
    FloodingKernel,
    NaiveTreeKernel,
    TreeBroadcastKernel,
    _add,
    _dcost,
    _norm,
    _scost,
    _ucost,
)
from repro.core.model import VertexView
from repro.core.tree_broadcast import TreeBroadcastProtocol, pow2_split_exponents
from repro.network.fastpath import CompiledNetwork
from repro.network.graph import DirectedNetwork


def diamond():
    """s -> a, s -> b, a -> t, b -> t (root 0, terminal 3)."""
    return DirectedNetwork(4, [(0, 1), (0, 2), (1, 3), (2, 3)], root=0, terminal=3)


PAIRS = [(0, 0), (1, 0), (1, 1), (3, 2), (5, 4), (-3, 2), (7, 0), (255, 8)]


class TestPairArithmetic:
    """The int-pair dyadics mirror repro.core.dyadic exactly."""

    @pytest.mark.parametrize("num,exp", [(4, 1), (6, 3), (8, 0), (0, 5), (-8, 2)])
    def test_norm_matches_dyadic_canonical_form(self, num, exp):
        d = Dyadic(num, exp)
        assert _norm(num, exp) == (d.num, d.exp)

    @pytest.mark.parametrize("a", PAIRS)
    @pytest.mark.parametrize("b", PAIRS)
    def test_add_matches_dyadic(self, a, b):
        s = Dyadic(*a) + Dyadic(*b)
        assert _add(a[0], a[1], b[0], b[1]) == (s.num, s.exp)


class TestCosts:
    """The inlined cost arithmetic mirrors repro.core.encoding exactly."""

    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 100, 10_000])
    def test_ucost(self, value):
        assert _ucost(value) == unsigned_cost(value)

    @pytest.mark.parametrize("value", [0, 1, -1, 5, -5, 1000, -1000])
    def test_scost(self, value):
        assert _scost(value) == signed_cost(value)

    @pytest.mark.parametrize("num,exp", PAIRS)
    def test_dcost(self, num, exp):
        d = Dyadic(num, exp)
        assert _dcost(d.num, d.exp) == dyadic_cost(d)


class TestTreeKernel:
    def test_initial_emission_bits_match_protocol(self):
        net = diamond()
        compiled = CompiledNetwork(net)
        assert compiled.in_degree[0] == net.in_degree(0)
        assert compiled.out_degree[0] == net.out_degree(0)
        protocol = TreeBroadcastProtocol(broadcast_payload="hi")
        kernel = TreeBroadcastKernel(protocol, compiled)
        emissions = kernel.initial_emissions(0)
        reference = protocol.initial_emissions(
            VertexView(in_degree=compiled.in_degree[0], out_degree=compiled.out_degree[0])
        )
        assert [(p, e) for p, e, _ in emissions] == [
            (p, tok.exponent) for p, tok in reference
        ]
        for (_, _, bits), (_, tok) in zip(emissions, reference):
            assert bits == protocol.message_bits(tok)

    def test_split_exponents_shared_per_out_degree(self):
        net = DirectedNetwork(
            6, [(0, 1), (1, 2), (1, 3), (4, 2), (4, 3), (2, 5), (3, 5)],
            root=0, terminal=5, validate=False,
        )
        kernel = TreeBroadcastKernel(TreeBroadcastProtocol(), CompiledNetwork(net))
        # Vertices 1 and 4 both have out-degree 2: one shared tuple.
        assert kernel.port_exponents[1] is kernel.port_exponents[4]
        assert kernel.port_exponents[1] == tuple(pow2_split_exponents(2))

    def test_terminal_check_and_finalize(self):
        kernel = TreeBroadcastKernel(
            TreeBroadcastProtocol("m"), CompiledNetwork(diamond())
        )
        assert not kernel.check_terminal(3)
        kernel.deliver(3, 0, 1)  # 2^-1
        assert not kernel.check_terminal(3)
        kernel.deliver(3, 1, 1)  # sums to 1
        assert kernel.check_terminal(3)
        states = kernel.finalize_states()
        assert states[3].received_sum == Dyadic(1)
        assert states[3].payload == "m"
        assert states[0].payload is None and not states[0].got_broadcast

    def test_snapshot_restore_round_trip(self):
        kernel = TreeBroadcastKernel(
            TreeBroadcastProtocol(), CompiledNetwork(diamond())
        )
        snap = kernel.snapshot()
        kernel.deliver(1, 0, 0)
        assert kernel.snapshot() != snap
        kernel.restore(snap)
        assert kernel.snapshot() == snap


class TestDagKernel:
    def test_fires_only_when_all_in_edges_heard(self):
        net = DirectedNetwork(4, [(0, 1), (0, 2), (1, 2), (2, 3)], root=0, terminal=3)
        kernel = DagBroadcastKernel(DagBroadcastProtocol(), CompiledNetwork(net))
        # vertex 2 has in-degree 2: first delivery buffers, second fires.
        assert kernel.deliver(2, 0, (1, 1)) == ()
        out = kernel.deliver(2, 1, (1, 1))
        assert len(out) == 1
        port, value, bits = out[0]
        assert port == 0 and value == (1, 0)  # 1/2 + 1/2, split by 1 port
        assert bits == dyadic_cost(Dyadic(1))

    def test_third_delivery_never_refires(self):
        net = DirectedNetwork(4, [(0, 1), (0, 2), (1, 2), (2, 3)], root=0, terminal=3)
        kernel = DagBroadcastKernel(DagBroadcastProtocol(), CompiledNetwork(net))
        kernel.deliver(2, 0, (1, 1))
        kernel.deliver(2, 1, (1, 1))
        assert kernel.deliver(2, 0, (1, 2)) == ()
        assert kernel.fired[2]


class TestNaiveKernel:
    def test_shares_are_reduced_fractions(self):
        net = DirectedNetwork(
            5, [(0, 1), (1, 2), (1, 3), (1, 4)], root=0, terminal=4, validate=False
        )
        kernel = NaiveTreeKernel(NaiveTreeBroadcastProtocol(), CompiledNetwork(net))
        out = kernel.deliver(1, 0, (1, 2))  # 1/2 across 3 ports
        assert [value for _, value, _ in out] == [(1, 6)] * 3
        expected_bits = signed_cost(1) + unsigned_cost(6)
        assert all(bits == expected_bits for _, _, bits in out)

    def test_sum_accumulates_exactly(self):
        kernel = NaiveTreeKernel(
            NaiveTreeBroadcastProtocol(), CompiledNetwork(diamond())
        )
        kernel.deliver(3, 0, (1, 3))
        kernel.deliver(3, 1, (2, 3))
        assert kernel.sums[3] == (1, 1)
        assert kernel.check_terminal(3)
        assert kernel.finalize_states()[3].received_sum == Fraction(1)


class TestFloodKernel:
    def test_forwards_exactly_once(self):
        kernel = FloodingKernel(FloodingProtocol(), CompiledNetwork(diamond()))
        first = kernel.deliver(1, 0, None)
        assert [(p, b) for p, _, b in first] == [(0, 1)]
        assert kernel.deliver(1, 0, None) == ()

    def test_never_terminates(self):
        kernel = FloodingKernel(FloodingProtocol(), CompiledNetwork(diamond()))
        kernel.deliver(3, 0, None)
        kernel.deliver(3, 1, None)
        assert not kernel.check_terminal(3)
