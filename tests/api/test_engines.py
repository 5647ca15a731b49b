"""The :class:`~repro.api.engines.EngineInfo` contract.

Every ``ENGINES`` entry is an ``EngineInfo``: a name, a ``run_one``
adapter and, for engines that execute whole seed-groups, a ``run_many``.
Engines carry no capability flags — every engine takes every spec, so a
fault model is valid on each of them.  These tests are registry-driven on
purpose: registering a new engine automatically subjects it to the same
contract.
"""

from __future__ import annotations

import dataclasses

from repro.api import ENGINES, RunSpec, ensure_registered
from repro.api.engines import EngineInfo

ensure_registered()


class TestContract:
    def test_every_registered_engine_is_an_engine_info(self):
        for name in ENGINES.names():
            info = ENGINES.get(name)
            assert isinstance(info, EngineInfo), name
            assert info.name == name
            assert callable(info.run_one)
            assert info.run_many is None or callable(info.run_many)

    def test_engine_info_has_three_fields(self):
        assert [f.name for f in dataclasses.fields(EngineInfo)] == [
            "name",
            "run_one",
            "run_many",
        ]


class TestEveryEngineTakesEverySpec:
    def _faulty_spec(self, engine):
        return RunSpec(
            graph="random-grounded-tree",
            graph_params={"num_internal": 4},
            protocol="tree-broadcast",
            engine=engine,
            faults={"drop_probability": 0.1},
        )

    def test_faults_validate_on_every_engine(self):
        for name in ENGINES.names():
            assert self._faulty_spec(name).engine == name

    def test_replace_onto_batch_engine_keeps_the_faults(self):
        spec = dataclasses.replace(self._faulty_spec("fastpath"), engine="batch")
        assert spec.faults.drop_probability == 0.1
