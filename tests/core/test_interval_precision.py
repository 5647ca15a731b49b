"""Every Δ-split of a run is exact at the interval kernel's precision.

:class:`~repro.core.interval_kernel.IntervalKernel` fixes its boundary
precision from the out-degrees before a run starts, and its Δ-split
raises :class:`ArithmeticError` instead of rounding when a split does not
fit.  This sweep runs every protocol whose kernel is an interval kernel,
under every setting of its ``label_endpoints`` and ``partition_rule``
options, on every registered graph family and transform at sizes up to
64 vertices, so the check firing anywhere fails here.
"""

from __future__ import annotations

import inspect
import itertools

import pytest

from repro.api import GRAPH_TRANSFORMS, GRAPHS, PROTOCOLS, ensure_registered
from repro.core.interval_kernel import IntervalKernel
from repro.network.fastpath import CompiledNetwork, run_protocol_fastpath
from repro.network.graph import DirectedNetwork

ensure_registered()

#: Per registered family, parameters from a few vertices up to 62, so the
#: transforms' extra vertices stay within 64.
SIZES = {
    "random-grounded-tree": [{"num_internal": k, "seed": 1} for k in (3, 60)],
    "random-dag": [{"num_internal": k, "seed": 1} for k in (3, 60)],
    "random-digraph": [{"num_internal": k, "seed": 1} for k in (3, 60)],
    "geometric-sensor-field": [{"num_sensors": k, "seed": 1} for k in (3, 20)],
    "layered-diamond-dag": [{"depth": k} for k in (1, 29)],
    "path-network": [{"length": k} for k in (1, 60)],
    "caterpillar-gn": [{"n": k} for k in (1, 60)],
    "skeleton-tree": [{"n": 1}, {"n": 15, "subset": list(range(0, 29, 4))}],
    "full-tree-with-terminal": [{"degree": 3, "height": 1}, {"degree": 3, "height": 3}],
    "pruned-tree": [{"degree": 2, "height": 1}, {"degree": 5, "height": 59}],
}

#: The option values each interval protocol is swept over, where it has them.
OPTIONS = {"label_endpoints": (False, True), "partition_rule": ("repaired", "literal")}


def _interval_protocols():
    diamond = CompiledNetwork(
        DirectedNetwork(4, [(0, 1), (0, 2), (1, 3), (2, 3)], root=0, terminal=3)
    )
    for name in sorted(PROTOCOLS.names()):
        kernel = PROTOCOLS.create(name).compile_fastpath(diamond)
        if not isinstance(getattr(kernel, "inner", kernel), IntervalKernel):
            continue
        accepted = inspect.signature(PROTOCOLS.get(name)).parameters
        swept = {key: values for key, values in OPTIONS.items() if key in accepted}
        for combo in itertools.product(*swept.values()):
            yield name, dict(zip(swept, combo))


INTERVAL_PROTOCOLS = list(_interval_protocols())


def test_sweep_covers_the_registry():
    assert set(SIZES) == set(GRAPHS.names())
    names = {name for name, _ in INTERVAL_PROTOCOLS}
    assert names == {"general-broadcast", "label-assignment", "topology-mapping"}


@pytest.mark.parametrize("family", sorted(SIZES))
@pytest.mark.parametrize(
    "protocol,params",
    INTERVAL_PROTOCOLS,
    ids=[
        "-".join([name, *(f"{key}={value}" for key, value in params.items())])
        for name, params in INTERVAL_PROTOCOLS
    ],
)
def test_every_split_is_exact(protocol, params, family):
    for graph_params in SIZES[family]:
        base = GRAPHS.create(family, **graph_params)
        nets = [base] + [
            GRAPH_TRANSFORMS.create(name, base) for name in GRAPH_TRANSFORMS.names()
        ]
        for net in nets:
            assert net.num_vertices <= 64
            # An inexact split raises ArithmeticError out of the run.
            run_protocol_fastpath(net, PROTOCOLS.create(protocol, **params))
