"""Every registered graph family and transform, pinned by digest.

Each case builds a network from fixed params (and seeds 0–9 for the seeded
families) and hashes its vertex count, root, terminal and edge list — the
edge order is the port order, so a digest match means the exact same
network.  The digests in ``generator_digests.json`` were generated from the
generators as they stood before they were rewritten to build one network
each; a generator change that alters a random stream or a port order fails
here.  Regenerate (only for an intended change of the graphs) with::

    PYTHONPATH=src python tests/graphs/test_generator_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api.registry import GRAPH_TRANSFORMS, GRAPHS
from repro.api.spec import ensure_registered

DIGESTS = Path(__file__).with_name("generator_digests.json")
SEEDS = range(10)

#: family -> (params, seeded) cases; seeded cases run over ``SEEDS``.
FAMILIES = {
    "random-grounded-tree": [
        ({"num_internal": 1}, True),
        ({"num_internal": 12}, True),
        ({"num_internal": 30}, True),
    ],
    "random-dag": [
        ({"num_internal": 1}, True),
        ({"num_internal": 2}, True),
        ({"num_internal": 12}, True),
        ({"num_internal": 20, "extra_edge_factor": 3.0}, True),
    ],
    "random-digraph": [
        ({"num_internal": 1}, True),
        ({"num_internal": 2}, True),
        ({"num_internal": 12}, True),
        ({"num_internal": 20, "extra_edge_factor": 0.5, "back_edge_factor": 2.0}, True),
    ],
    "geometric-sensor-field": [
        ({"num_sensors": 12}, True),
        ({"num_sensors": 20, "base_range": 0.1, "range_spread": 0.1}, True),
    ],
    "layered-diamond-dag": [({"depth": 1}, False), ({"depth": 5}, False)],
    "path-network": [({"length": 1}, False), ({"length": 6}, False)],
    "caterpillar-gn": [({"n": 1}, False), ({"n": 7}, False)],
    "skeleton-tree": [({"n": 3}, False), ({"n": 3, "subset": [0, 2]}, False)],
    "full-tree-with-terminal": [
        ({"degree": 2, "height": 3}, False),
        ({"degree": 3, "height": 2}, False),
    ],
    "pruned-tree": [
        ({"degree": 3, "height": 3}, False),
        ({"degree": 2, "height": 4, "child_choices": [1, 0, 1, 1]}, False),
    ],
}

#: Transforms run over these seeded bases.
TRANSFORM_BASES = [
    ("random-dag", {"num_internal": 12}),
    ("random-digraph", {"num_internal": 12}),
]


def _digest(network) -> str:
    payload = [network.num_vertices, network.root, network.terminal, network.edges]
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cases():
    """``case id -> zero-argument network builder`` for every pinned case."""
    cases = {}
    for family, variants in FAMILIES.items():
        for params, seeded in variants:
            label = f"{family}{json.dumps(params, sort_keys=True)}"
            for seed in SEEDS if seeded else [None]:
                extra = {} if seed is None else {"seed": seed}
                cases[label + ("" if seed is None else f"@{seed}")] = (
                    lambda f=family, p=params, e=extra: GRAPHS.get(f)(**p, **e)
                )
    for transform in GRAPH_TRANSFORMS.names():
        for family, params in TRANSFORM_BASES:
            label = f"{transform}({family}{json.dumps(params, sort_keys=True)})"
            for seed in SEEDS:
                cases[f"{label}@{seed}"] = (
                    lambda t=transform, f=family, p=params, s=seed: GRAPH_TRANSFORMS.create(
                        t, GRAPHS.get(f)(**p, seed=s)
                    )
                )
    return cases


ensure_registered()
CASES = _cases()
PINNED = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def test_every_registered_family_is_pinned():
    assert set(FAMILIES) == set(GRAPHS.names())
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_output_matches_pinned_digest(case):
    assert _digest(CASES[case]()) == PINNED[case]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    digests = {case: _digest(build()) for case, build in sorted(CASES.items())}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
