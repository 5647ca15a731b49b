"""Fastpath vertex states are built on first read, never for a record.

The compiled engine hands :class:`~repro.network.simulator.RunResult` its
kernel's ``finalize_states`` instead of a states dict.  A record carries
only counters, so :func:`~repro.api.spec.execute_spec` must never build
the per-vertex state objects; a white-box reader of
``execute_spec_full(spec)[1].states`` must get exactly the states the
reference engine ends in.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import PROTOCOLS, RunSpec, ensure_registered, execute_spec
from repro.api.spec import execute_spec_full
from repro.graphs.generators import random_digraph
from repro.network.fastpath import CompiledNetwork

ensure_registered()

INSTANCES = (
    ("random-grounded-tree", {"num_internal": 7}),
    ("random-dag", {"num_internal": 7}),
    ("random-digraph", {"num_internal": 7}),
)

#: Caps scalar protocols spinning on cyclic graphs (both engines agree on
#: the budget-exhausted states too).
MAX_STEPS = 3000


def spec_for(protocol: str, graph: str, params: dict, engine: str, seed: int = 5) -> RunSpec:
    return RunSpec(
        graph=graph,
        graph_params=params,
        protocol=protocol,
        engine=engine,
        seed=seed,
        max_steps=MAX_STEPS,
    )


def plain(value):
    """A state as comparable data: a slotted state object (no ``__eq__``)
    becomes its class name and a dict of its slots, recursively."""
    slots = getattr(type(value), "__slots__", None)
    if slots and not dataclasses.is_dataclass(value):
        return type(value).__name__, {name: plain(getattr(value, name)) for name in slots}
    return value


@pytest.fixture()
def finalize_calls(monkeypatch):
    """Count ``finalize_states`` calls on every registered protocol's kernel class."""
    calls = []
    compiled = CompiledNetwork(random_digraph(6, seed=1))
    patched = set()
    for name in PROTOCOLS.names():
        kernel = PROTOCOLS.create(name).compile_fastpath(compiled)
        if kernel is None or type(kernel) in patched:
            continue
        patched.add(type(kernel))
        raw = type(kernel).finalize_states

        def counted(self, raw=raw):
            calls.append(type(self).__name__)
            return raw(self)

        monkeypatch.setattr(type(kernel), "finalize_states", counted)
    assert patched, "no registered protocol compiles a fastpath kernel"
    return calls


@pytest.mark.parametrize("graph,params", INSTANCES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
def test_execute_spec_never_finalizes_states(finalize_calls, protocol, graph, params):
    spec = spec_for(protocol, graph, params, "fastpath")
    execute_spec(spec)
    assert finalize_calls == []
    result = execute_spec_full(spec)[1]
    assert finalize_calls == []
    states = result.states
    assert finalize_calls, "the wrapper did not see the kernel run"
    seen = len(finalize_calls)
    assert result.states is states  # materialised once
    assert len(finalize_calls) == seen


@pytest.mark.parametrize("graph,params", INSTANCES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS.names()))
def test_lazy_states_equal_async_states(protocol, graph, params):
    _, reference, _ = execute_spec_full(spec_for(protocol, graph, params, "async"))
    _, fast, _ = execute_spec_full(spec_for(protocol, graph, params, "fastpath"))
    assert {v: plain(s) for v, s in fast.states.items()} == {
        v: plain(s) for v, s in reference.states.items()
    }


def test_equality_and_repr_read_through_lazy_states():
    dag = ("dag-broadcast", "random-dag", {"num_internal": 5})
    _, reference, _ = execute_spec_full(spec_for(*dag, "async"))
    _, first, _ = execute_spec_full(spec_for(*dag, "fastpath"))
    _, second, _ = execute_spec_full(spec_for(*dag, "fastpath"))
    assert first == reference  # outcome, metrics, (dataclass) states, output
    assert "states={0: DagState(" in repr(second)
    assert repr(second) == repr(reference)
    _, other, _ = execute_spec_full(spec_for(*dag, "fastpath", seed=6))
    assert first != other
