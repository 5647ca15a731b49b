"""The ``rounds`` scheduler: lockstep rounds (§2's time measure) on every engine.

``rounds_oracle.json`` pins what the former dedicated lockstep engine
computed for e13's default grid (which contains the quick grid) over
seeds 0-4 — outcome, message and bit totals, rounds and termination round
per run — and e13's rows at quick and default scale.  The ``rounds``
scheduler must reproduce every pinned value on both the reference loop and
the compiled engine.
"""

import json
import os

import pytest

from repro.api import EXPERIMENTS, CampaignRunner, RunSpec, ensure_registered
from repro.analysis.campaigns import round_complexity_cases
from repro.core.dag_broadcast import DagBroadcastProtocol
from repro.core.general_broadcast import GeneralBroadcastProtocol
from repro.core.labeling import LabelAssignmentProtocol, extract_labels, labels_pairwise_disjoint
from repro.core.model import FunctionalProtocol
from repro.core.tree_broadcast import TreeBroadcastProtocol
from repro.graphs.generators import (
    path_network,
    random_dag,
    random_digraph,
    random_grounded_tree,
    with_dead_end_vertex,
)
from repro.graphs.properties import longest_path_length
from repro.network.events import MessageEvent
from repro.network.fastpath import run_protocol_fastpath
from repro.network.graph import DirectedNetwork
from repro.network.scheduler import RoundsScheduler
from repro.network.simulator import Outcome, run_protocol

ensure_registered()

with open(os.path.join(os.path.dirname(__file__), "rounds_oracle.json"), encoding="utf-8") as _f:
    ORACLE = json.load(_f)

#: e13's default cases; the capped general-broadcast case appears twice.
CASES = list(
    {json.dumps(c, sort_keys=True): c for c in round_complexity_cases([25, 50, 100, 200])}.values()
)
FIELDS = ("outcome", "total_messages", "total_bits", "rounds", "termination_round")
PINNED = {
    (run["graph"], run["num_internal"], run["seed"]): tuple(run[key] for key in FIELDS)
    for run in ORACLE["runs"]
}


def _pinned(case, seed):
    return PINNED[case["graph"], case["graph_params"]["num_internal"], seed]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['protocol']}-{c['graph_params']['num_internal']}" for c in CASES]
)
@pytest.mark.parametrize("engine", ["async", "fastpath"])
def test_rounds_equal_pinned_lockstep_results(engine, case, seed):
    spec = RunSpec.from_dict({**case, "seed": seed, "scheduler": "rounds", "engine": engine})
    record = spec.run()
    got = (record.outcome,) + tuple(record.metrics[key] for key in FIELDS[1:])
    assert got == _pinned(case, seed)


@pytest.mark.parametrize("scale", ["quick", None])
def test_e13_rows_equal_pinned_rows(scale):
    e13 = EXPERIMENTS.get("e13")
    assert {spec.scheduler for spec in e13.expand(scale=scale)} == {"rounds"}
    pinned = ORACLE["e13_rows"][scale or "default"]
    for engine in (None, "async"):
        assert CampaignRunner(scale=scale, engine=engine).run(e13).rows == pinned


ENGINES = {"async": run_protocol, "fastpath": run_protocol_fastpath}


@pytest.fixture(params=sorted(ENGINES))
def run_rounds(request):
    """Run under a fresh ``rounds`` scheduler; return the result and the
    scheduler's extras (``rounds``, ``termination_round``)."""
    engine = ENGINES[request.param]

    def run(net, protocol, **options):
        scheduler = RoundsScheduler()
        result = engine(net, protocol, scheduler, **options)
        return result, scheduler.extras(result.metrics)

    return run


class TestRoundSemantics:
    def test_path_rounds_equal_length(self, run_rounds):
        net = path_network(6)  # s → 6 vertices → t : longest path 7
        result, extras = run_rounds(net, TreeBroadcastProtocol())
        assert result.terminated
        assert extras["termination_round"] == 7 == longest_path_length(net)

    @pytest.mark.parametrize("seed", range(3))
    def test_tree_rounds_equal_longest_path(self, run_rounds, seed):
        net = random_grounded_tree(40, seed=seed)
        _, extras = run_rounds(net, TreeBroadcastProtocol())
        assert extras["termination_round"] == longest_path_length(net)

    @pytest.mark.parametrize("seed", range(3))
    def test_dag_rounds_equal_longest_path(self, run_rounds, seed):
        net = random_dag(40, seed=seed)
        _, extras = run_rounds(net, DagBroadcastProtocol())
        assert extras["termination_round"] == longest_path_length(net)

    def test_general_protocol_terminates(self, run_rounds):
        net = random_digraph(25, seed=5)
        result, extras = run_rounds(net, GeneralBroadcastProtocol())
        assert result.terminated
        assert extras["termination_round"] <= net.num_vertices

    def test_rounds_counted_to_quiescence(self, run_rounds):
        net = random_digraph(15, seed=1)
        _, extras = run_rounds(net, GeneralBroadcastProtocol())
        assert extras["rounds"] >= extras["termination_round"]


class TestConsistencyWithOtherSchedules:
    """Lockstep rounds are one admissible asynchronous schedule, so outcomes
    and invariants must agree with every other adversary's."""

    def test_same_outcome_good_graph(self, run_rounds):
        net = random_digraph(20, seed=2)
        rounds, _ = run_rounds(net, GeneralBroadcastProtocol())
        fifo = run_protocol(net, GeneralBroadcastProtocol())
        assert rounds.terminated and fifo.terminated

    def test_dead_end_is_quiescent(self, run_rounds):
        net = with_dead_end_vertex(random_digraph(15, seed=3))
        result, extras = run_rounds(net, GeneralBroadcastProtocol())
        assert result.outcome is Outcome.QUIESCENT
        assert extras["termination_round"] is None

    def test_tree_message_totals_identical(self, run_rounds):
        # One message per edge either way: identical totals and bits.
        net = random_grounded_tree(30, seed=4)
        rounds, _ = run_rounds(net, TreeBroadcastProtocol())
        fifo = run_protocol(net, TreeBroadcastProtocol())
        assert rounds.metrics.total_messages == fifo.metrics.total_messages
        assert rounds.metrics.total_bits == fifo.metrics.total_bits

    def test_labeling_invariants_hold(self, run_rounds):
        net = random_digraph(18, seed=6)
        result, _ = run_rounds(net, LabelAssignmentProtocol())
        assert result.terminated
        labels = extract_labels(result.states)
        assert set(labels) == set(net.internal_vertices())
        assert labels_pairwise_disjoint(list(labels.values()))


class TestBudget:
    def test_budget_exhaustion(self, run_rounds):
        bouncer = FunctionalProtocol(
            initial_state=0,
            initial_message=1,
            state_fn=lambda state, msg, i: msg,
            message_fn=lambda state, msg, i, j: msg,
            stopping_predicate=lambda state: False,
            message_bits_fn=lambda msg: 1,
        )
        net = DirectedNetwork(4, [(0, 2), (2, 3), (3, 2), (2, 1)], root=0, terminal=1)
        result, extras = run_rounds(net, bouncer, max_steps=10)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.metrics.steps == 10
        assert 1 <= extras["rounds"] <= 10

    def test_stop_at_termination(self, run_rounds):
        net = random_digraph(15, seed=7)
        early, early_extras = run_rounds(
            net, GeneralBroadcastProtocol(), stop_at_termination=True
        )
        full, full_extras = run_rounds(net, GeneralBroadcastProtocol())
        assert early.terminated and full.terminated
        # The run stops at the terminating delivery, mid-round; the
        # termination round itself does not move.
        assert early.metrics.steps == early.metrics.termination_step
        assert early_extras["termination_round"] == full_extras["termination_round"]
        assert early_extras["rounds"] == early_extras["termination_round"]
        assert early_extras["rounds"] <= full_extras["rounds"]


class TestOutput:
    def test_output_exposed_on_termination(self, run_rounds):
        result, _ = run_rounds(path_network(3), TreeBroadcastProtocol("m"))
        assert result.output == "m"

    def test_no_output_without_termination(self, run_rounds):
        net = with_dead_end_vertex(random_digraph(10, seed=0))
        result, _ = run_rounds(net, GeneralBroadcastProtocol("m"))
        assert result.output is None


def _event(edge_id, seq):
    return MessageEvent(edge_id=edge_id, payload=None, seq=seq, sent_step=0, bits=1)


class _Metrics:
    def __init__(self, termination_step):
        self.termination_step = termination_step


class TestRoundsScheduler:
    def test_round_then_edge_then_send_order(self):
        s = RoundsScheduler()
        for edge_id, seq in ((3, 0), (1, 1), (3, 2), (1, 3)):
            s.push(_event(edge_id, seq))
        first = s.pop()
        assert (first.edge_id, first.seq) == (1, 1)
        s.push(_event(0, 4))  # sent in round 1: delivered in round 2
        order = [(e.edge_id, e.seq) for e in (s.pop(), s.pop(), s.pop(), s.pop())]
        assert order == [(1, 3), (3, 0), (3, 2), (0, 4)]
        assert s.round_starts == [1, 5]
        assert len(s) == 0

    def test_extras_bisect_the_termination_step(self):
        s = RoundsScheduler()
        s.push(_event(0, 0))
        s.push(_event(1, 1))
        s.pop()
        s.push(_event(2, 2))
        s.pop()
        s.pop()
        assert s.round_starts == [1, 3]
        assert s.extras(_Metrics(2)) == {"rounds": 2, "termination_round": 1}
        assert s.extras(_Metrics(3)) == {"rounds": 2, "termination_round": 2}
        assert s.extras(_Metrics(None)) == {"rounds": 2, "termination_round": None}

    def test_pushed_back_pop_is_not_a_delivery(self):
        s = RoundsScheduler()
        s.push(_event(0, 0))
        s.push(_event(1, 1))
        deferred = s.pop()
        s.push(deferred)  # deferred: moves to round 2, uncounted
        assert s.pop().seq == 1
        assert s.pop() is deferred
        assert s.round_starts == [1, 2]
