"""Unit tests for SMM (Algorithm 2)."""

import numpy as np
import pytest

from repro.baselines.ground_truth import GroundTruthOracle
from repro.core.smm import SMMState, smm_estimate
from repro.graph.generators import barabasi_albert_graph, complete_graph


class TestSMMState:
    def test_vectors_track_transition_powers(self, ba_small):
        s, t = 2, 9
        state = SMMState(ba_small, s, t)
        transition = ba_small.transition_matrix().toarray()
        e_s = np.zeros(ba_small.num_nodes)
        e_s[s] = 1.0
        for i in range(1, 4):
            state.step()
            expected = np.linalg.matrix_power(transition, i) @ e_s
            np.testing.assert_allclose(state.s_vector(), expected, atol=1e-12)

    def test_estimate_matches_truncated_series(self, ba_small):
        s, t = 4, 17
        length = 6
        state = SMMState(ba_small, s, t)
        state.run(length)
        transition = ba_small.transition_matrix().toarray()
        deg = ba_small.degrees.astype(float)
        expected = 0.0
        power = np.eye(ba_small.num_nodes)
        for _ in range(length + 1):
            expected += (
                power[s, s] / deg[s]
                + power[t, t] / deg[t]
                - power[s, t] / deg[t]
                - power[t, s] / deg[s]
            )
            power = power @ transition
        assert state.estimate == pytest.approx(expected, abs=1e-10)

    def test_spmv_cost_counts_frontier_degrees(self, ba_small):
        s, t = 0, 1
        state = SMMState(ba_small, s, t)
        first_cost = state.next_iteration_cost()
        assert first_cost == ba_small.degree(s) + ba_small.degree(t)
        state.step()
        assert state.spmv_operations == first_cost
        # the frontier has grown, so the next iteration costs more
        assert state.next_iteration_cost() >= first_cost

    def test_dense_switch_preserves_values(self, ba_small):
        s, t = 3, 8
        sparse_state = SMMState(ba_small, s, t, dense_switch_fraction=1.1)  # stay sparse
        dense_state = SMMState(ba_small, s, t, dense_switch_fraction=0.0)  # dense at once
        for _ in range(4):
            sparse_state.step()
            dense_state.step()
        assert sparse_state.estimate.hex() == dense_state.estimate.hex()
        assert sparse_state.s_vector().tobytes() == dense_state.s_vector().tobytes()
        assert sparse_state.t_vector().tobytes() == dense_state.t_vector().tobytes()

    def test_iterations_counter(self, ba_small):
        state = SMMState(ba_small, 0, 5)
        state.run(3)
        assert state.iterations == 3

    def test_invalid_nodes(self, ba_small):
        with pytest.raises(ValueError):
            SMMState(ba_small, 0, ba_small.num_nodes)

    @pytest.mark.parametrize("fraction", [float("inf"), "0.25", -1.0])
    def test_invalid_dense_switch_fraction(self, ba_small, fraction):
        with pytest.raises(ValueError, match="dense_switch_fraction"):
            SMMState(ba_small, 0, 5, dense_switch_fraction=fraction)


class TestSMMEstimate:
    def test_converges_to_ground_truth(self, ba_small, ba_small_oracle):
        s, t = 11, 42
        result = smm_estimate(ba_small, s, t, 200)
        assert result.value == pytest.approx(ba_small_oracle.query(s, t), abs=1e-6)

    def test_complete_graph_exact_value(self):
        graph = complete_graph(12)
        result = smm_estimate(graph, 0, 5, 100)
        assert result.value == pytest.approx(2 / 12, abs=1e-8)

    def test_result_metadata(self, ba_small):
        result = smm_estimate(ba_small, 1, 2, 5)
        assert result.method == "smm"
        assert result.smm_iterations == 5
        assert result.num_walks == 0
        assert result.spmv_operations > 0
        assert result.elapsed_seconds >= 0.0

    def test_zero_iterations(self, ba_small):
        result = smm_estimate(ba_small, 1, 2, 0)
        deg = ba_small.degrees
        expected = 1 / deg[1] + 1 / deg[2] - 0.0
        if ba_small.has_edge(1, 2):
            pass  # p_0 terms do not involve adjacency
        assert result.value == pytest.approx(expected)

    def test_monotone_error_decay(self, ba_dense, ba_dense_oracle):
        s, t = 7, 200
        truth = ba_dense_oracle.query(s, t)
        errors = [
            abs(smm_estimate(ba_dense, s, t, iters).value - truth) for iters in (1, 4, 16)
        ]
        assert errors[2] <= errors[0] + 1e-12
        assert errors[2] < 1e-4

    def test_transition_reuse_gives_same_answer(self, ba_small):
        transition = ba_small.transition_matrix()
        a = smm_estimate(ba_small, 5, 6, 10)
        b = smm_estimate(ba_small, 5, 6, 10, transition=transition)
        assert a.value == pytest.approx(b.value, abs=1e-12)
