"""Registry-driven kernel completeness: every protocol compiles a kernel.

The fast path is only "the true default" if *every* registered protocol
actually gets a compiled kernel — a protocol silently falling back to the
reference loop would pass every differential test while losing the
speedup.  This suite closes that hole structurally:

* every name in :data:`~repro.api.registry.PROTOCOLS` must return a
  working ``compile_fastpath`` kernel;
* each kernel must expose the full machine interface the engine drivers
  consume, and the snapshot/restore pair the ∀-schedule explorer uses;
* the run-mode edge cases (``stop_at_termination`` and ``max_steps``
  exhaustion) are differentially checked per protocol — the main
  differential suite sweeps schedulers and graph families, this one
  sweeps the engine's early-exit paths through every kernel.
"""

from __future__ import annotations

import pytest

from repro.analysis.benchmark import PROTOCOL_BENCH_GRAPHS
from repro.api import PROTOCOLS, RunSpec, ensure_registered, execute_spec
from repro.network.fastpath import CompiledNetwork
from repro.network.graph import DirectedNetwork

ensure_registered()

#: The machine interface the fastpath engine drivers consume.
MACHINE_ATTRS = (
    "initial_emissions",
    "deliver",
    "check_terminal",
    "finalize_states",
    "output",
)

#: A graph family on which each protocol terminates (its natural habitat);
#: used for the early-stop differential runs so ``stop_at_termination``
#: actually has a termination to stop at.  Shared with the bench coverage
#: matrix so a new protocol's habitat is declared exactly once.
TERMINATING_GRAPH = PROTOCOL_BENCH_GRAPHS


def small_compiled() -> CompiledNetwork:
    net = DirectedNetwork(4, [(0, 1), (0, 2), (1, 3), (2, 3)], root=0, terminal=3)
    return CompiledNetwork(net)


class TestCompleteness:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
    def test_every_protocol_compiles_a_kernel(self, protocol):
        kernel = PROTOCOLS.create(protocol).compile_fastpath(small_compiled())
        assert kernel is not None, (
            f"protocol {protocol!r} returns no compile_fastpath kernel"
        )
        for attr in MACHINE_ATTRS:
            assert callable(getattr(kernel, attr, None)), (protocol, attr)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
    def test_every_kernel_supports_snapshot_restore(self, protocol):
        kernel = PROTOCOLS.create(protocol).compile_fastpath(small_compiled())
        assert callable(getattr(kernel, "snapshot", None)), protocol
        assert callable(getattr(kernel, "restore", None)), protocol
        snap = kernel.snapshot()
        kernel.restore(snap)
        assert kernel.snapshot() == snap

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
    def test_behaviour_subclasses_fall_back_to_reference(self, protocol):
        # The exact-type guard: a subclass that could override behaviour
        # must not inherit the parent's kernel.
        cls = PROTOCOLS.get(protocol)

        class Tweaked(cls):  # type: ignore[misc, valid-type]
            name = f"tweaked-{protocol}"

        assert Tweaked().compile_fastpath(small_compiled()) is None


def _engine_pair(spec: RunSpec):
    out = []
    for engine in ("async", "fastpath"):
        record = execute_spec(
            RunSpec.from_dict({**spec.to_dict(), "engine": engine})
        ).comparable_dict()
        record["spec"].pop("engine")
        out.append(record)
    return out


class TestRunModeEdgeCases:
    """``stop_at_termination`` and budget exhaustion, per kernel."""

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
    def test_stop_at_termination_matches(self, protocol):
        spec = RunSpec(
            graph=TERMINATING_GRAPH.get(protocol, "random-digraph"),
            graph_params={"num_internal": 8},
            protocol=protocol,
            seed=13,
            max_steps=20_000,
            stop_at_termination=True,
        )
        reference, fast = _engine_pair(spec)
        assert fast == reference

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
    @pytest.mark.parametrize("budget", [1, 7, 23])
    def test_budget_exhaustion_matches(self, protocol, budget):
        spec = RunSpec(
            graph=TERMINATING_GRAPH.get(protocol, "random-digraph"),
            graph_params={"num_internal": 8},
            protocol=protocol,
            seed=13,
            max_steps=budget,
        )
        reference, fast = _engine_pair(spec)
        assert fast == reference
        if budget == 1:
            # One delivery with the initial wave still in flight: always
            # an exhaustion, on both engines.
            assert fast["outcome"] == "budget-exhausted"
