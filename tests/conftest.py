"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.core.dyadic import Dyadic
from repro.core.intervals import Interval, IntervalUnion


# ----------------------------------------------------------------------
# Hypothesis strategies for the exact-arithmetic layer
# ----------------------------------------------------------------------


def dyadics(max_num: int = 1 << 16, max_exp: int = 24) -> st.SearchStrategy[Dyadic]:
    """Arbitrary dyadic rationals (positive, negative and zero)."""
    return st.builds(
        Dyadic,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=0, max_value=max_exp),
    )


def unit_dyadics(max_exp: int = 12) -> st.SearchStrategy[Dyadic]:
    """Dyadics in ``[0, 1]`` on a grid of resolution ``2^-max_exp``."""
    def build(k: int, exp: int) -> Dyadic:
        return Dyadic(k, exp)

    return st.integers(min_value=0, max_value=12).flatmap(
        lambda exp: st.integers(min_value=0, max_value=1 << exp).map(
            lambda k: Dyadic(k, exp)
        )
    )


def unit_intervals() -> st.SearchStrategy[Interval]:
    """Intervals ``[a, b) ⊆ [0, 1]`` with dyadic endpoints (may be empty)."""
    return st.tuples(unit_dyadics(), unit_dyadics()).map(
        lambda pair: Interval(min(pair), max(pair))
    )


def unit_interval_unions(max_intervals: int = 5) -> st.SearchStrategy[IntervalUnion]:
    """Interval-unions inside ``[0, 1]`` built from a handful of intervals."""
    return st.lists(unit_intervals(), min_size=0, max_size=max_intervals).map(IntervalUnion)


@pytest.fixture
def small_grounded_tree():
    """A fixed small grounded tree for white-box assertions."""
    from repro.graphs.generators import random_grounded_tree

    return random_grounded_tree(12, seed=42)


@pytest.fixture
def small_digraph():
    """A fixed small cyclic digraph for white-box assertions."""
    from repro.graphs.generators import random_digraph

    return random_digraph(12, seed=42)


# ----------------------------------------------------------------------
# Registered campaigns on a caller's grid
# ----------------------------------------------------------------------


def campaign_rows(name, *, axes=None, base=None, engine=None):
    """Rows of registered campaign ``name`` with its grid overridden.

    ``EXPERIMENTS.get(name).with_overrides(axes=..., base=...)`` executed
    on a serial, store-less :class:`~repro.api.campaign.CampaignRunner` —
    the path ``repro run`` takes, at the sizes a test picks.
    """
    from repro.api import EXPERIMENTS, CampaignRunner, ensure_registered

    ensure_registered()
    experiment = EXPERIMENTS.get(name).with_overrides(axes=axes, base=base)
    return CampaignRunner(engine=engine, parallel=False).run(experiment).rows
