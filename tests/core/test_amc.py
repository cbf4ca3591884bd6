"""Unit tests for AMC (Algorithm 1)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.amc import AMCResult, amc_estimate, amc_query
from repro.core.geer import geer_query
from repro.core.registry import QueryContext
from repro.core.smm import SMMState
from repro.core.walk_length import refined_walk_length
from repro.experiments.datasets import load_dataset
from repro.graph.builders import from_edges
from repro.graph.generators import barabasi_albert_graph, complete_graph
from repro.linalg.eigen import spectral_radius_second
from repro.sampling.concentration import (
    amc_psi,
    amc_sample_budget,
    empirical_bernstein_error,
    top_two_values,
)
from repro.sampling.walks import RandomWalkEngine
from repro.utils.rng import skip_doubles
from tests.strategies import connected_graphs


@pytest.fixture(scope="module")
def dense_graph():
    return barabasi_albert_graph(250, 10, rng=31)


@pytest.fixture(scope="module")
def dense_lambda(dense_graph):
    return spectral_radius_second(dense_graph)


def one_hot(n, i):
    vec = np.zeros(n)
    vec[i] = 1.0
    return vec


class TestAMCCore:
    def test_unbiased_for_q(self, dense_graph):
        """The core estimates q(s, t) of Eq. (12): check against the exact series."""
        s, t = 3, 50
        length = 4
        n = dense_graph.num_nodes
        transition = dense_graph.transition_matrix().toarray()
        deg = dense_graph.degrees.astype(float)
        weights = one_hot(n, s) / deg[s] - one_hot(n, t) / deg[t]
        exact_q = 0.0
        ps = one_hot(n, s)
        pt = one_hot(n, t)
        for _ in range(length):
            ps = ps @ transition
            pt = pt @ transition
            exact_q += float((ps - pt) @ weights)
        result = amc_estimate(
            dense_graph, s, t, one_hot(n, s), one_hot(n, t),
            epsilon=0.05, walk_length=length, num_batches=5, delta=0.01, rng=5,
        )
        assert abs(result.value - exact_q) <= 0.05

    def test_zero_walk_length_returns_zero(self, dense_graph):
        n = dense_graph.num_nodes
        result = amc_estimate(
            dense_graph, 0, 1, one_hot(n, 0), one_hot(n, 1),
            epsilon=0.1, walk_length=0,
        )
        assert result.value == 0.0
        assert result.num_walks == 0

    def test_psi_matches_one_hot_formula(self, dense_graph):
        n = dense_graph.num_nodes
        s, t = 2, 9
        length = 6
        result = amc_estimate(
            dense_graph, s, t, one_hot(n, s), one_hot(n, t),
            epsilon=0.2, walk_length=length, rng=1,
        )
        expected_psi = 2 * np.ceil(length / 2) * (
            1 / dense_graph.degree(s) + 1 / dense_graph.degree(t)
        )
        assert result.psi == pytest.approx(expected_psi)

    def test_early_termination_uses_fewer_walks(self, dense_graph):
        """With many batches allowed, the empirical Bernstein check stops well below η*.

        Early termination is only possible when ψ is large relative to ε (so the
        additive Bernstein term can drop below ε/2 before the Hoeffding cap) and
        the observed variance is small — which is the case for this configuration.
        """
        n = dense_graph.num_nodes
        s, t = 4, 100
        result = amc_estimate(
            dense_graph, s, t, one_hot(n, s), one_hot(n, t),
            epsilon=0.02, walk_length=8, num_batches=6, rng=2,
        )
        assert result.num_batches < 6
        assert result.num_walks < result.eta_star

    def test_batches_double(self, dense_graph):
        n = dense_graph.num_nodes
        result = amc_estimate(
            dense_graph, 0, 1, one_hot(n, 0), one_hot(n, 1),
            epsilon=0.01, walk_length=4, num_batches=4, rng=3,
            max_total_steps=200_000,
        )
        for previous, current in zip(result.batch_sizes, result.batch_sizes[1:]):
            assert current == 2 * previous

    def test_step_budget_flag(self, dense_graph):
        n = dense_graph.num_nodes
        result = amc_estimate(
            dense_graph, 0, 1, one_hot(n, 0), one_hot(n, 1),
            epsilon=0.005, walk_length=10, num_batches=3, rng=4,
            max_total_steps=100,
        )
        assert result.budget_exhausted

    def test_negative_vector_rejected(self, dense_graph):
        n = dense_graph.num_nodes
        bad = one_hot(n, 0)
        bad[3] = -0.5
        with pytest.raises(ValueError):
            amc_estimate(dense_graph, 0, 1, bad, one_hot(n, 1), epsilon=0.1, walk_length=3)

    def test_wrong_shape_rejected(self, dense_graph):
        with pytest.raises(ValueError):
            amc_estimate(
                dense_graph, 0, 1, np.zeros(3), np.zeros(3), epsilon=0.1, walk_length=3
            )

    @pytest.mark.parametrize("bad_value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("which", ["s_vector", "t_vector"])
    def test_non_finite_vector_rejected(self, dense_graph, bad_value, which):
        n = dense_graph.num_nodes
        vectors = {"s_vector": one_hot(n, 0), "t_vector": one_hot(n, 1)}
        vectors[which][7] = bad_value
        with pytest.raises(ValueError, match="finite"):
            amc_estimate(dense_graph, 0, 1, epsilon=0.1, walk_length=3, rng=1, **vectors)

    @pytest.mark.parametrize("isolated_endpoint", ["s", "t"])
    def test_isolated_endpoint_rejected(self, isolated_endpoint):
        graph = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], num_nodes=5)
        s, t = (4, 0) if isolated_endpoint == "s" else (0, 4)
        with pytest.raises(ValueError):
            amc_estimate(
                graph, s, t, one_hot(5, s), one_hot(5, t),
                epsilon=0.3, walk_length=3, rng=1,
            )

    def test_smoothed_vectors_need_fewer_walks(self, dense_graph):
        """GEER's key effect: SMM-propagated vectors shrink ψ and hence η*."""
        s, t = 6, 120
        n = dense_graph.num_nodes
        state = SMMState(dense_graph, s, t)
        state.run(3)
        one_hot_result = amc_estimate(
            dense_graph, s, t, one_hot(n, s), one_hot(n, t),
            epsilon=0.1, walk_length=8, rng=7,
        )
        smoothed_result = amc_estimate(
            dense_graph, s, t, state.s_vector(), state.t_vector(),
            epsilon=0.1, walk_length=8, rng=7,
        )
        assert smoothed_result.psi < one_hot_result.psi
        assert smoothed_result.eta_star < one_hot_result.eta_star


class TestAMCQuery:
    def test_within_epsilon_of_truth(self, dense_graph, dense_lambda):
        from repro.baselines.ground_truth import GroundTruthOracle

        oracle = GroundTruthOracle(dense_graph)
        rng = np.random.default_rng(9)
        epsilon = 0.1
        for _ in range(8):
            s, t = rng.choice(dense_graph.num_nodes, size=2, replace=False)
            result = amc_query(
                dense_graph, int(s), int(t),
                epsilon=epsilon, lambda_max_abs=dense_lambda, rng=rng,
            )
            assert abs(result.value - oracle.query(int(s), int(t))) <= epsilon

    def test_same_node_zero(self, dense_graph, dense_lambda):
        result = amc_query(dense_graph, 5, 5, epsilon=0.1, lambda_max_abs=dense_lambda)
        assert result.value == 0.0
        assert result.num_walks == 0

    def test_uses_refined_length(self, dense_graph, dense_lambda):
        s, t = 0, 30
        result = amc_query(
            dense_graph, s, t, epsilon=0.2, lambda_max_abs=dense_lambda, rng=1
        )
        expected = refined_walk_length(
            0.2, dense_lambda, dense_graph.degree(s), dense_graph.degree(t)
        )
        assert result.walk_length == expected

    def test_shared_engine_accumulates_steps(self, dense_graph, dense_lambda):
        engine = RandomWalkEngine(dense_graph, rng=3)
        amc_query(dense_graph, 0, 9, epsilon=0.3, lambda_max_abs=dense_lambda, engine=engine)
        first = engine.total_steps
        amc_query(dense_graph, 1, 8, epsilon=0.3, lambda_max_abs=dense_lambda, engine=engine)
        assert engine.total_steps > first

    def test_complete_graph_value(self):
        graph = complete_graph(30)
        lam = spectral_radius_second(graph)
        result = amc_query(graph, 0, 1, epsilon=0.05, lambda_max_abs=lam, rng=2)
        assert result.value == pytest.approx(2 / 30, abs=0.05)

    def test_result_details(self, dense_graph, dense_lambda):
        result = amc_query(dense_graph, 0, 40, epsilon=0.2, lambda_max_abs=dense_lambda, rng=4)
        assert result.method == "amc"
        assert "psi" in result.details and "eta_star" in result.details
        assert result.details["empirical_error"] >= 0.0


# --------------------------------------------------------------------------- #
# futile batches (DESIGN.md Contract 11)
# --------------------------------------------------------------------------- #
def every_batch_reference(
    graph, s, t, s_vector, t_vector, *, epsilon, walk_length, num_batches, delta,
    engine, max_total_steps=None, walk_chunk_size=None,
):
    """Algorithm 1 walking every batch, as it ran before futile batches were skipped.

    Returns the :class:`AMCResult` and the steps each batch walked.
    """
    deg_s = float(graph.weighted_degrees[s])
    deg_t = float(graph.weighted_degrees[t])
    psi = amc_psi(
        walk_length, deg_s, deg_t, *top_two_values(s_vector), *top_two_values(t_vector)
    )
    if walk_length == 0 or psi == 0.0:
        return AMCResult(0.0, psi, 0, 0, 0, 0, 0.0, 0.0), []
    eta_star = amc_sample_budget(psi, epsilon, delta, num_batches)
    eta = max(1, math.ceil(eta_star / 2 ** (num_batches - 1)))
    weights = s_vector / deg_s - t_vector / deg_t
    estimate, empirical_error, empirical_variance = 0.0, math.inf, 0.0
    total_walks = total_steps = 0
    batch_sizes, batch_steps = [], []
    budget_exhausted = False
    for _ in range(num_batches):
        eta_batch = eta
        if max_total_steps is not None:
            allowed = (max_total_steps - total_steps) // max(1, 2 * walk_length)
            if allowed < 1:
                budget_exhausted = True
                break
            if allowed < eta_batch:
                eta_batch = int(allowed)
                budget_exhausted = True
        scores = engine.walk_scores(
            s, eta_batch, walk_length, weights, chunk_size=walk_chunk_size
        ) - engine.walk_scores(t, eta_batch, walk_length, weights, chunk_size=walk_chunk_size)
        total_steps += 2 * eta_batch * walk_length
        total_walks = 2 * eta_batch
        batch_sizes.append(eta_batch)
        batch_steps.append(2 * eta_batch * walk_length)
        estimate = float(scores.mean())
        empirical_variance = float(scores.var())
        empirical_error = empirical_bernstein_error(
            eta_batch, empirical_variance, psi, delta / num_batches
        )
        if empirical_error <= epsilon / 2.0 or budget_exhausted:
            break
        eta *= 2
    result = AMCResult(
        estimate, psi, eta_star, total_walks, len(batch_sizes), total_steps,
        empirical_error, empirical_variance, budget_exhausted, batch_sizes,
    )
    return result, batch_steps


def reported(result):
    """Every AMCResult field that skipping a futile batch must leave unchanged."""
    return (
        result.value.hex(), result.psi.hex(), result.eta_star, result.num_walks,
        result.num_batches, result.batch_sizes, result.empirical_error.hex(),
        result.empirical_variance.hex(), result.budget_exhausted,
    )


def make_generator(bit_generator, seed, buffered_draws):
    """A generator after ``buffered_draws`` 32-bit draws (1 leaves a buffered half)."""
    rng = np.random.Generator(bit_generator(seed))
    for _ in range(buffered_draws):
        rng.integers(0, 7, dtype=np.int32)
    return rng


def assert_skip_matches_reference(
    graph, s, t, s_vector, t_vector, make_rng, *, epsilon, delta, num_batches, **kwargs
):
    """``amc_estimate`` ≡ the every-batch reference; returns its skipped count."""
    rng, reference_rng = make_rng(), make_rng()
    params = dict(epsilon=epsilon, delta=delta, num_batches=num_batches, **kwargs)
    expected, batch_steps = every_batch_reference(
        graph, s, t, s_vector, t_vector, engine=RandomWalkEngine(graph, rng=reference_rng),
        **params,
    )
    engine = RandomWalkEngine(graph, rng=rng)
    actual = amc_estimate(graph, s, t, s_vector, t_vector, engine=engine, **params)
    assert reported(actual) == reported(expected)
    np.testing.assert_equal(rng.bit_generator.state, reference_rng.bit_generator.state)
    # Futile: a later batch ran, and the range term alone missed ε/2.
    futile = [
        b for b in range(expected.num_batches - 1)
        if empirical_bernstein_error(expected.batch_sizes[b], 0.0, expected.psi,
                                     delta / num_batches) > epsilon / 2.0
    ]
    if not isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        futile = []
    assert actual.skipped_batches == len(futile)
    skipped_steps = sum(batch_steps[b] for b in futile)
    assert actual.total_steps == expected.total_steps - skipped_steps
    assert engine.total_steps == actual.total_steps
    return actual.skipped_batches


@st.composite
def futile_batch_cases(draw):
    graph = draw(connected_graphs(min_nodes=6, max_nodes=30, weighted=None))
    s = draw(st.integers(0, graph.num_nodes - 1))
    t = draw(st.integers(0, graph.num_nodes - 1))
    assume(s != t)
    smm_iterations = draw(st.integers(0, 3))  # 0: one-hot vectors
    state = SMMState(graph, s, t)
    state.run(smm_iterations)
    epsilon = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]))
    delta = draw(st.sampled_from([0.01, 0.1, 0.4]))
    num_batches = draw(st.integers(1, 6))
    walk_length = draw(st.integers(1, 8))
    s_vector, t_vector = state.s_vector(), state.t_vector()
    psi = amc_psi(
        walk_length, float(graph.weighted_degrees[s]), float(graph.weighted_degrees[t]),
        *top_two_values(s_vector), *top_two_values(t_vector),
    )
    eta_star = amc_sample_budget(psi, epsilon, delta, num_batches) if psi else 0
    assume(eta_star * walk_length <= 40_000)
    # A cap binding inside batch k (fraction 0: exactly at its start).
    max_total_steps = None
    cap = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, num_batches - 1),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    )))
    if cap is not None:
        eta = max(1, math.ceil(eta_star / 2 ** (num_batches - 1)))
        k, fraction = cap
        steps = [2 * eta * 2**b * walk_length for b in range(num_batches)]
        max_total_steps = sum(steps[:k]) + int(fraction * steps[k])
    return dict(
        graph=graph, s=s, t=t, s_vector=s_vector, t_vector=t_vector,
        epsilon=epsilon, delta=delta, num_batches=num_batches, walk_length=walk_length,
        max_total_steps=max_total_steps,
        walk_chunk_size=draw(st.one_of(st.none(), st.integers(8, 64))),
        seed=draw(st.integers(0, 2**31 - 1)),
        buffered_draws=draw(st.integers(0, 2)),
    )


class TestFutileBatches:
    """A skipped futile batch ≡ a batch that runs (DESIGN.md Contract 11)."""

    @given(case=futile_batch_cases())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_skipped_batch_equals_running_it(self, case):
        seed, buffered = case.pop("seed"), case.pop("buffered_draws")
        assert_skip_matches_reference(
            **case, make_rng=lambda: make_generator(np.random.PCG64, seed, buffered)
        )

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
    def test_generators_that_cannot_skip_run_every_batch(self, dense_graph, bit_generator):
        n = dense_graph.num_nodes
        case = dict(
            epsilon=0.5, delta=0.01, num_batches=5, walk_length=4, walk_chunk_size=16,
        )
        args = (dense_graph, 0, 1, one_hot(n, 0), one_hot(n, 1))
        # the same query on PCG64 skips, so the zero below is the generator's doing
        pcg = assert_skip_matches_reference(
            *args, lambda: make_generator(np.random.PCG64, 8, 1), **case
        )
        assert pcg >= 1
        skipped = assert_skip_matches_reference(
            *args, lambda: make_generator(bit_generator, 8, 1), **case
        )
        assert skipped == 0

    def test_dblp_syn_geer_query_skips(self):
        """A query of the engine-geer workload skips, and still matches the reference."""
        graph = load_dataset("dblp-syn")
        lam = QueryContext(graph, rng=0).lambda_max_abs
        s, t, epsilon = 17, 3201, 0.05
        result = geer_query(graph, s, t, epsilon=epsilon, lambda_max_abs=lam, rng=5)
        assert result.details["skipped_batches"] >= 1
        state = SMMState(graph, s, t)
        state.run(result.details["switch_point"])
        skipped = assert_skip_matches_reference(
            graph, s, t, state.s_vector(), state.t_vector(),
            lambda: np.random.default_rng(5),
            epsilon=epsilon, delta=0.01, num_batches=5,
            walk_length=result.walk_length - result.details["switch_point"],
        )
        assert skipped == result.details["skipped_batches"]

    def test_one_generator_skip_per_query(self, monkeypatch):
        """The whole futile prefix is skipped with one ``skip_doubles`` call."""
        skips = []

        def spy(rng, count):
            if count:
                skips.append(count)
            return skip_doubles(rng, count)

        monkeypatch.setattr("repro.core.amc.skip_doubles", spy)
        graph = load_dataset("dblp-syn")
        lam = QueryContext(graph, rng=0).lambda_max_abs
        engine = RandomWalkEngine(graph, rng=5)
        skipped = []
        for s, t in [(17, 3201), (40, 2210), (5, 880)]:
            skips.clear()
            result = geer_query(
                graph, s, t, epsilon=0.05, lambda_max_abs=lam, engine=engine
            )
            skipped.append(result.details["skipped_batches"])
            assert len(skips) == (1 if skipped[-1] else 0)
        assert max(skipped) >= 2  # one skip covered more than one batch

    def test_cap_at_a_batch_boundary_keeps_the_last_batch_that_ran(self, dense_graph):
        """A batch the cap leaves no successor for must run: it is the answer."""
        n = dense_graph.num_nodes
        params = dict(epsilon=0.5, delta=0.01, num_batches=5, walk_length=4)
        probe = amc_estimate(
            dense_graph, 0, 1, one_hot(n, 0), one_hot(n, 1), rng=2, **params
        )
        assert probe.skipped_batches >= 1  # uncapped, the first batch is futile
        first_batch_steps = 2 * probe.batch_sizes[0] * 4
        result = amc_estimate(
            dense_graph, 0, 1, one_hot(n, 0), one_hot(n, 1), rng=2,
            max_total_steps=first_batch_steps, **params,
        )
        assert result.budget_exhausted and result.skipped_batches == 0
        assert result.total_steps == first_batch_steps
        assert_skip_matches_reference(
            dense_graph, 0, 1, one_hot(n, 0), one_hot(n, 1),
            lambda: np.random.default_rng(2), max_total_steps=first_batch_steps,
            **params,
        )
