"""Unit tests for the vectorised random-walk engine."""

import numpy as np
import pytest

from repro.graph.builders import from_edges, with_random_weights
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.sampling.walks import RandomWalkEngine, simulate_walks, walk_endpoints


class TestWalkMatrix:
    def test_shape(self, complete8):
        engine = RandomWalkEngine(complete8, rng=0)
        walks = engine.walk_matrix(0, 25, 7)
        assert walks.shape == (25, 7)

    def test_all_visited_nodes_are_neighbors_of_previous(self, ba_small):
        engine = RandomWalkEngine(ba_small, rng=1)
        walks = engine.walk_matrix(3, 10, 12)
        for row in walks:
            previous = 3
            for node in row:
                assert ba_small.has_edge(previous, int(node))
                previous = int(node)

    def test_zero_walks_or_zero_length(self, complete8):
        engine = RandomWalkEngine(complete8, rng=0)
        assert engine.walk_matrix(0, 0, 5).shape == (0, 5)
        assert engine.walk_matrix(0, 5, 0).shape == (5, 0)

    def test_total_steps_counter(self, complete8):
        engine = RandomWalkEngine(complete8, rng=0)
        engine.walk_matrix(0, 10, 5)
        assert engine.total_steps == 50

    def test_invalid_start(self, complete8):
        engine = RandomWalkEngine(complete8, rng=0)
        with pytest.raises(ValueError):
            engine.walk_matrix(99, 1, 1)

    def test_isolated_node_graph_rejected(self):
        graph = from_edges([(0, 1)], num_nodes=3)
        for _ in range(2):  # on every construction, not just the first
            with pytest.raises(ValueError):
                RandomWalkEngine(graph)

    def test_star_alternates(self):
        # from the centre of a star, odd steps land on leaves, even steps on centre
        graph = star_graph(5)
        engine = RandomWalkEngine(graph, rng=2)
        walks = engine.walk_matrix(0, 20, 4)
        assert np.all(walks[:, 0] > 0)
        assert np.all(walks[:, 1] == 0)
        assert np.all(walks[:, 2] > 0)
        assert np.all(walks[:, 3] == 0)


class TestDistributionCorrectness:
    def test_one_step_distribution_matches_transition(self, ba_small):
        """The empirical endpoint distribution after 1 step equals row s of P."""
        start = 7
        ends = walk_endpoints(ba_small, start, 20000, 1, rng=3)
        empirical = np.bincount(ends, minlength=ba_small.num_nodes) / 20000
        expected = np.zeros(ba_small.num_nodes)
        expected[ba_small.neighbors(start)] = 1.0 / ba_small.degree(start)
        assert np.abs(empirical - expected).max() < 0.02

    def test_multi_step_distribution_matches_matrix_power(self):
        graph = complete_graph(6)
        length = 3
        ends = walk_endpoints(graph, 0, 30000, length, rng=4)
        empirical = np.bincount(ends, minlength=6) / 30000
        transition = graph.transition_matrix().toarray()
        expected = np.linalg.matrix_power(transition, length)[0]
        assert np.abs(empirical - expected).max() < 0.02

    def test_vectorised_matches_python_reference_distribution(self):
        graph = cycle_graph(5)
        fast = RandomWalkEngine(graph, rng=5)
        slow = RandomWalkEngine(graph, rng=6)
        fast_ends = fast.walk_matrix(0, 4000, 4)[:, -1]
        slow_ends = np.array([slow.walk_single_python(0, 4)[-1] for _ in range(4000)])
        fast_hist = np.bincount(fast_ends, minlength=5) / 4000
        slow_hist = np.bincount(slow_ends, minlength=5) / 4000
        assert np.abs(fast_hist - slow_hist).max() < 0.05


class TestHittingWalks:
    def test_path_hits_neighbor_quickly(self):
        graph = from_edges([(0, 1), (1, 2), (0, 2)])
        engine = RandomWalkEngine(graph, rng=7)
        steps, previous = engine.hitting_walks(0, 1, 200, max_steps=1000)
        assert np.all(steps > 0)
        assert set(np.unique(previous)) <= {0, 2}

    def test_unreachable_within_budget(self):
        graph = cycle_graph(30)
        engine = RandomWalkEngine(graph, rng=8)
        steps, previous = engine.hitting_walks(0, 15, 50, max_steps=3)
        assert np.all(steps == -1)
        assert np.all(previous == -1)

    def test_mean_hitting_time_star(self):
        # centre -> leaf hitting time on a star with k leaves is 2k - 1
        k = 6
        graph = star_graph(k)
        engine = RandomWalkEngine(graph, rng=9)
        steps, _ = engine.hitting_walks(0, 1, 4000, max_steps=10000)
        assert np.all(steps > 0)
        assert steps.mean() == pytest.approx(2 * k - 1, rel=0.1)

    def test_zero_walks(self, complete8):
        engine = RandomWalkEngine(complete8, rng=0)
        steps, previous = engine.hitting_walks(0, 1, 0, max_steps=10)
        assert len(steps) == 0 and len(previous) == 0


class TestFunctionalHelpers:
    def test_simulate_walks(self, complete8):
        walks = simulate_walks(complete8, 0, 5, 6, rng=0)
        assert walks.shape == (5, 6)

    def test_walk_endpoints_length(self, complete8):
        ends = walk_endpoints(complete8, 0, 9, 4, rng=0)
        assert ends.shape == (9,)


class TestMemoisedGraphState:
    """Engines reuse per-graph kernel state but never a generator or a counter."""

    GRAPHS = {
        "unweighted": barabasi_albert_graph(60, 3, rng=4),
        "weighted": with_random_weights(barabasi_albert_graph(60, 3, rng=4), rng=6),
        "uniform-degree": cycle_graph(40),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_warm_engine_matches_cold_engine(self, name):
        graph = self.GRAPHS[name]
        RandomWalkEngine(graph, rng=0)  # memoises the graph's kernel state
        warm = RandomWalkEngine(graph, rng=21)
        # A new Graph over the same arrays starts with nothing memoised.
        cold = RandomWalkEngine(
            Graph(graph.indptr, graph.indices, graph.weights), rng=21
        )
        assert graph._walk_state_cache is not None
        weights = np.random.default_rng(3).normal(size=graph.num_nodes)
        for start, walks, length in [(0, 33, 5), (7, 12, 130), (3, 1, 1)]:
            expected = cold.walk_scores(start, walks, length, weights)
            actual = warm.walk_scores(start, walks, length, weights)
            assert [v.hex() for v in actual] == [v.hex() for v in expected]
            np.testing.assert_equal(
                warm.rng.bit_generator.state, cold.rng.bit_generator.state
            )
        assert warm.total_steps == cold.total_steps

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_engines_share_no_generator_or_counter(self, name):
        graph = self.GRAPHS[name]
        first = RandomWalkEngine(graph, rng=5)
        second = RandomWalkEngine(graph, rng=5)
        assert first.rng is not second.rng
        weights = np.ones(graph.num_nodes)
        first_ends = first.walk_endpoints(2, 50, 6)
        # first's draws neither moved second's stream nor its step count
        assert second.total_steps == 0
        np.testing.assert_array_equal(second.walk_endpoints(2, 50, 6), first_ends)
        assert first.total_steps == second.total_steps == 300
        first.walk_scores(1, 8, 3, weights)
        assert second.total_steps == 300
