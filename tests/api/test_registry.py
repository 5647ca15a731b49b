"""Tests for the string-addressable component registries."""

import pytest

import repro  # noqa: F401 - importing the package populates the registries
from repro.api.registry import (
    GRAPH_TRANSFORMS,
    GRAPHS,
    PROTOCOLS,
    SCHEDULERS,
    DuplicateNameError,
    Registry,
    UnknownNameError,
    all_registries,
)
from repro.api import ensure_registered


class TestRegistryMechanics:
    def test_decorator_with_inferred_name(self):
        reg = Registry("widget")

        @reg.register()
        def my_widget_factory():
            return 42

        assert "my-widget-factory" in reg
        assert reg.create("my-widget-factory") == 42

    def test_decorator_prefers_name_attribute(self):
        reg = Registry("widget")

        @reg.register()
        class Thing:
            name = "the-thing"

        assert "the-thing" in reg
        assert isinstance(reg.create("the-thing"), Thing)

    def test_explicit_name_and_direct_registration(self):
        reg = Registry("widget")
        reg.register("direct", lambda: "d")
        assert reg.create("direct") == "d"

        @reg.register("decorated")
        def factory():
            return "x"

        assert reg.get("decorated") is factory

    def test_unknown_name_error_lists_choices(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: 1)
        with pytest.raises(UnknownNameError) as excinfo:
            reg.get("beta")
        message = str(excinfo.value)
        assert "widget" in message
        assert "beta" in message
        assert "alpha" in message
        # UnknownNameError is a KeyError, so dict-style handling works too.
        assert isinstance(excinfo.value, KeyError)

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("taken", lambda: 1)
        with pytest.raises(DuplicateNameError):
            reg.register("taken", lambda: 2)

    def test_same_factory_reregistration_is_idempotent(self):
        reg = Registry("widget")

        def factory():
            return 1

        reg.register("f", factory)
        reg.register("f", factory)  # no error
        assert len(reg) == 1

    def test_names_sorted_and_iteration(self):
        reg = Registry("widget")
        reg.register("b", lambda: 2)
        reg.register("a", lambda: 1)
        assert reg.names() == ("a", "b")
        assert list(reg) == ["a", "b"]

    def test_create_forwards_params(self):
        reg = Registry("widget")
        reg.register("adder", lambda x, y=0: x + y)
        assert reg.create("adder", 2, y=3) == 5


class TestPopulatedRegistries:
    def test_paper_protocols_registered(self):
        for name in (
            "tree-broadcast",
            "dag-broadcast",
            "general-broadcast",
            "label-assignment",
            "topology-mapping",
        ):
            assert name in PROTOCOLS

    def test_baseline_protocols_registered_after_ensure(self):
        ensure_registered()
        for name in ("naive-tree-broadcast", "eager-dag-broadcast", "flooding"):
            assert name in PROTOCOLS

    def test_graph_families_registered(self):
        for name in (
            "random-grounded-tree",
            "random-dag",
            "random-digraph",
            "layered-diamond-dag",
            "path-network",
            "pruned-tree",
            "caterpillar-gn",
        ):
            assert name in GRAPHS

    def test_transforms_registered(self):
        assert "with-dead-end-vertex" in GRAPH_TRANSFORMS
        assert "with-stranded-cycle" in GRAPH_TRANSFORMS

    def test_schedulers_registered(self):
        for name in (
            "fifo",
            "lifo",
            "random",
            "terminal-last",
            "terminal-first",
            "port-biased",
            "latency",
            "dropping",
        ):
            assert name in SCHEDULERS

    def test_registered_names_match_component_name_attributes(self):
        from repro.core.tree_broadcast import TreeBroadcastProtocol
        from repro.network.scheduler import FifoScheduler

        assert PROTOCOLS.get("tree-broadcast") is TreeBroadcastProtocol
        assert SCHEDULERS.get("fifo") is FifoScheduler

    def test_all_registries_mapping(self):
        registries = all_registries()
        assert set(registries) == {
            "protocols",
            "graphs",
            "graph-transforms",
            "schedulers",
            "engines",
            "aggregators",
            "faults",
            "experiments",
        }
        assert registries["protocols"] is PROTOCOLS
