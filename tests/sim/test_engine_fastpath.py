"""Regression tests for the engine round loop's bookkeeping.

* ``metrics.rounds`` is assigned once, from the final populated round, and
  equals the last node's termination round on staggered wake-up schedules;
* the engine maintains ``Metrics.max_awake_running`` incrementally and it
  always equals the O(n) recomputation;
* attaching observers (trace, knowledge tracking, observability) never
  changes the outcome: results and metrics stay byte-identical.
"""

from __future__ import annotations

import json

import pytest

from repro.graphs import path_graph, random_connected_graph, ring_graph
from repro.sim import Awake, simulate


def staggered_protocol(ctx):
    """Node v wakes ``v`` times, last at round ``10 * v``: fully staggered."""
    node_id = ctx.node_id
    for i in range(1, node_id + 1):
        yield Awake(10 * i if i < node_id else 10 * node_id,
                    {port: ("s", node_id) for port in ctx.ports})
    return node_id


def chatter_protocol(ctx):
    """Dense rounds with deliveries, losses, and staggered termination."""
    node_id = ctx.node_id
    total = 0
    for i in range(1, 6 + node_id % 3):
        inbox = yield Awake(2 * i + node_id % 2, ctx.broadcast(("c", node_id, i)))
        total += len(inbox)
    return total


class TestRoundsAssignment:
    def test_rounds_equals_last_termination_round_staggered(self):
        graph = path_graph(5, seed=0)
        result = simulate(graph, staggered_protocol)
        last_termination = max(
            node.terminated_round for node in result.metrics.per_node.values()
        )
        assert result.metrics.rounds == last_termination
        assert result.metrics.rounds == 10 * max(graph.node_ids)

    def test_rounds_zero_when_everyone_returns_immediately(self):
        def protocol(ctx):
            return ctx.node_id
            yield  # pragma: no cover - generator marker

        result = simulate(path_graph(3, seed=0), protocol)
        assert result.metrics.rounds == 0

    def test_rounds_identical_with_and_without_observers(self):
        graph = ring_graph(8, seed=2)
        plain = simulate(graph, chatter_protocol)
        traced = simulate(graph, chatter_protocol, trace=True)
        assert plain.metrics.rounds == traced.metrics.rounds


class TestRunningMaxAwake:
    @pytest.mark.parametrize("observers", [{}, {"trace": True}, {"observe": True}])
    def test_running_max_equals_recompute(self, observers):
        graph = random_connected_graph(24, seed=5)
        result = simulate(graph, chatter_protocol, seed=1, **observers)
        metrics = result.metrics
        assert metrics.max_awake_running == metrics.recompute_max_awake()
        assert metrics.max_awake == metrics.recompute_max_awake()

    def test_running_max_on_staggered_schedule(self):
        result = simulate(path_graph(6, seed=0), staggered_protocol)
        assert result.metrics.max_awake == 6
        assert result.metrics.max_awake == result.metrics.recompute_max_awake()

    def test_hand_built_metrics_fall_back_to_recompute(self):
        from repro.sim import Metrics

        metrics = Metrics()
        metrics.node(1).awake_rounds = 9
        assert metrics.max_awake_running == 0
        assert metrics.max_awake == 9


class TestObserversChangeNothing:
    """Runs with and without observers must be observationally identical."""

    @pytest.mark.parametrize(
        "observers",
        [
            {"trace": True},
            {"observe": True},
            {"track_knowledge": True},
            {"trace": True, "observe": True, "track_knowledge": True},
        ],
    )
    def test_summaries_byte_identical(self, observers):
        graph = random_connected_graph(20, seed=3)
        plain = simulate(graph, chatter_protocol, seed=4)
        observed = simulate(graph, chatter_protocol, seed=4, **observers)
        assert json.dumps(plain.metrics.summary(), sort_keys=True) == json.dumps(
            observed.metrics.summary(), sort_keys=True
        )
        assert plain.node_results == observed.node_results
        assert {
            node: stats.as_dict() for node, stats in plain.metrics.per_node.items()
        } == {
            node: stats.as_dict()
            for node, stats in observed.metrics.per_node.items()
        }

    def test_lenient_congest_violations_counted_identically(self):
        def oversized(ctx):
            yield Awake(1, ctx.broadcast(tuple(range(300))))
            return None

        graph = path_graph(2, seed=0)
        plain = simulate(graph, oversized, strict_congest=False)
        observed = simulate(graph, oversized, strict_congest=False, trace=True)
        assert (
            plain.metrics.congest_violations
            == observed.metrics.congest_violations
            == 2
        )

    def test_mst_run_identical_with_observers(self):
        from repro.core import run_randomized_mst

        graph = random_connected_graph(32, seed=9)
        plain = run_randomized_mst(graph, seed=2)
        observed = run_randomized_mst(graph, seed=2, observe=True, trace=True)
        assert plain.mst_weights == observed.mst_weights
        assert plain.metrics.summary() == observed.metrics.summary()
