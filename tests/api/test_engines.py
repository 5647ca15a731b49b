"""The :class:`~repro.api.engines.EngineInfo` capability contract.

Engines are no longer bare callables: every ``ENGINES`` entry is an
``EngineInfo`` describing what the engine can do (``run_one`` always;
``run_many`` and fault injection optionally), and every consumer —
the spec validator, the batch runner's seed-grouping, ``repro
registry`` — reads those flags instead of hard-coding engine names.
These tests are registry-driven on purpose: registering a new engine
automatically subjects it to the same contract.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import ENGINES, RunSpec, SpecError, ensure_registered
from repro.api.engines import EngineInfo, fault_capable_engines

ensure_registered()


class TestContract:
    def test_every_registered_engine_is_an_engine_info(self):
        for name in ENGINES.names():
            info = ENGINES.get(name)
            assert isinstance(info, EngineInfo), name
            assert info.name == name
            assert callable(info.run_one)

    def test_capabilities_tags_reflect_flags(self):
        for name in ENGINES.names():
            info = ENGINES.get(name)
            tags = info.capabilities()
            assert "run_one" in tags
            assert ("run_many" in tags) == (info.run_many is not None)
            assert ("faults" in tags) == info.supports_faults
            assert ("batching" in tags) == info.supports_batching

    def test_batching_requires_run_many(self):
        with pytest.raises(ValueError):
            EngineInfo(name="broken", run_one=lambda *a: None, supports_batching=True)

    def test_expected_capability_matrix(self):
        """The shipped engines' flags (a drift alarm, not a mechanism)."""
        flags = {
            name: (ENGINES.get(name).supports_faults, ENGINES.get(name).supports_batching)
            for name in ENGINES.names()
        }
        assert flags == {
            "async": (True, False),
            "fastpath": (True, False),
            "batch": (False, True),
        }

    def test_fault_capable_engines_lists_only_fault_engines(self):
        capable = fault_capable_engines()
        assert set(capable) == {
            name for name in ENGINES.names() if ENGINES.get(name).supports_faults
        }


class TestSpecValidation:
    def _faulty_spec(self, engine):
        return RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": 4},
            protocol="tree-broadcast",
            engine=engine,
            faults={"drop_probability": 0.1},
        )

    def test_faults_rejected_on_every_non_fault_engine(self):
        for name in ENGINES.names():
            if ENGINES.get(name).supports_faults:
                self._faulty_spec(name)  # must validate
            else:
                with pytest.raises(SpecError, match="does not support fault"):
                    self._faulty_spec(name)

    def test_error_names_the_capable_engines(self):
        with pytest.raises(SpecError) as excinfo:
            self._faulty_spec("batch")
        for name in fault_capable_engines():
            assert name in str(excinfo.value)

    def test_replace_onto_batch_engine_revalidates(self):
        spec = self._faulty_spec("fastpath")
        with pytest.raises(SpecError):
            dataclasses.replace(spec, engine="batch")
