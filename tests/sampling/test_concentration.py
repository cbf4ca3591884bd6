"""Unit tests for concentration inequalities and AMC sample planners."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.concentration import (
    amc_psi,
    amc_sample_budget,
    empirical_bernstein_error,
    empirical_bernstein_sample_size,
    hoeffding_error,
    hoeffding_sample_size,
    top_two_values,
)


class TestHoeffding:
    def test_error_shrinks_with_samples(self):
        assert hoeffding_error(400, 1.0, 0.05) < hoeffding_error(100, 1.0, 0.05)

    def test_error_scales_with_range(self):
        assert hoeffding_error(100, 2.0, 0.05) == pytest.approx(
            2 * hoeffding_error(100, 1.0, 0.05)
        )

    def test_sample_size_inverts_error(self):
        n = hoeffding_sample_size(1.0, 0.1, 0.05)
        assert hoeffding_error(n, 1.0, 0.05) <= 0.1
        assert hoeffding_error(max(n - 1, 1), 1.0, 0.05) >= 0.099

    def test_zero_range(self):
        assert hoeffding_sample_size(0.0, 0.1, 0.05) == 1

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            hoeffding_error(10, 1.0, 1.5)

    def test_empirical_coverage(self):
        """The bound holds empirically for bounded i.i.d. variables."""
        rng = np.random.default_rng(0)
        n, delta = 200, 0.1
        failures = 0
        trials = 300
        for _ in range(trials):
            samples = rng.random(n)  # U[0,1], mean 0.5
            radius = hoeffding_error(n, 1.0, delta)
            if abs(samples.mean() - 0.5) > radius:
                failures += 1
        assert failures / trials <= delta


class TestEmpiricalBernstein:
    def test_error_decreases_with_samples(self):
        assert empirical_bernstein_error(1000, 0.1, 1.0, 0.05) < empirical_bernstein_error(
            100, 0.1, 1.0, 0.05
        )

    def test_low_variance_tighter_than_hoeffding(self):
        # with tiny empirical variance the Bernstein radius beats Hoeffding
        n, psi, delta = 2000, 10.0, 0.05
        bern = empirical_bernstein_error(n, 0.01, psi, delta)
        hoef = hoeffding_error(n, psi, delta)
        assert bern < hoef

    def test_sample_size_inverts_error(self):
        for variance, psi in [(0.05, 1.0), (0.5, 4.0), (0.0, 2.0)]:
            n = empirical_bernstein_sample_size(variance, psi, 0.05, 0.1)
            assert empirical_bernstein_error(n, variance, psi, 0.1) <= 0.05 + 1e-12

    def test_empirical_coverage(self):
        rng = np.random.default_rng(1)
        n, delta = 300, 0.1
        failures = 0
        trials = 300
        for _ in range(trials):
            samples = rng.beta(2, 5, size=n)  # bounded in [0, 1]
            radius = empirical_bernstein_error(n, float(samples.var()), 1.0, delta)
            if abs(samples.mean() - 2 / 7) > radius:
                failures += 1
        assert failures / trials <= delta


class TestAMCBudgets:
    def test_psi_formula_one_hot(self):
        # s = e_s, t = e_t: max1 = 1, max2 = 0 -> psi = 2 ceil(l/2) (1/ds + 1/dt)
        psi = amc_psi(7, 4, 5, 1.0, 0.0, 1.0, 0.0)
        assert psi == pytest.approx(2 * 4 * (0.25 + 0.2))

    def test_psi_even_length_uses_both_maxima(self):
        psi = amc_psi(6, 2, 2, 0.5, 0.25, 0.5, 0.25)
        expected = 2 * 3 * (0.25 + 0.25) + 2 * 3 * (0.125 + 0.125)
        assert psi == pytest.approx(expected)

    def test_psi_zero_length(self):
        assert amc_psi(0, 3, 3, 1.0, 0.0, 1.0, 0.0) == 0.0

    def test_psi_decreases_with_degree(self):
        assert amc_psi(5, 50, 50, 1.0, 0.0, 1.0, 0.0) < amc_psi(5, 2, 2, 1.0, 0.0, 1.0, 0.0)

    def test_budget_formula(self):
        psi, eps, delta, tau = 1.5, 0.1, 0.01, 5
        expected = math.ceil(2 * psi**2 * math.log(2 * tau / delta) / eps**2)
        assert amc_sample_budget(psi, eps, delta, tau) == expected

    def test_budget_zero_psi(self):
        assert amc_sample_budget(0.0, 0.1, 0.01, 5) == 1

    def test_budget_decreases_with_epsilon(self):
        assert amc_sample_budget(1.0, 0.5, 0.01, 5) < amc_sample_budget(1.0, 0.05, 0.01, 5)


class TestTopTwo:
    def test_simple(self):
        assert top_two_values(np.array([0.1, 0.9, 0.5])) == (0.9, 0.5)

    def test_single_element(self):
        assert top_two_values(np.array([0.3])) == (0.3, 0.0)

    def test_empty(self):
        assert top_two_values(np.array([])) == (0.0, 0.0)

    def test_ties(self):
        assert top_two_values(np.array([0.4, 0.4, 0.1])) == (0.4, 0.4)

    @given(
        vector=st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 0.5, -2.0, math.nan, math.inf, -math.inf]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_selection_matches_partition(self, vector):
        """Equal to the ``np.partition`` top two it replaced, NaN and ±inf included."""
        vector = np.array(vector, dtype=np.float64)
        expected = partition_top_two(vector)
        actual = top_two_values(vector)
        assert all(
            a == e or (math.isnan(a) and math.isnan(e)) for a, e in zip(actual, expected)
        )
        if not np.any((vector == 0) & np.signbit(vector)):
            assert [a.hex() for a in actual] == [e.hex() for e in expected]

    @pytest.mark.parametrize(
        "vector, expected",
        [
            ([0.0] * 7, (0.0, 0.0)),
            ([0.3, 0.7, 0.7, 0.1], (0.7, 0.7)),
            ([0.9, 0.2, 0.0], (0.9, 0.2)),  # maximum first: only the right slice
            ([0.2, 0.0, 0.9], (0.9, 0.2)),  # maximum last: only the left slice
            ([-3.0, -1.0, -2.0], (-1.0, -2.0)),
            ([1.0, math.nan, 2.0], (math.nan, 2.0)),
            ([math.nan, 1.0, math.nan], (math.nan, math.nan)),
            ([math.inf, 1.0, math.inf], (math.inf, math.inf)),
            ([-math.inf, -math.inf], (-math.inf, -math.inf)),
        ],
    )
    def test_fixed_cases(self, vector, expected):
        actual = top_two_values(np.array(vector))
        assert [a.hex() for a in actual] == [e.hex() for e in expected]
        assert [a.hex() for a in partition_top_two(np.array(vector))] == [
            e.hex() for e in expected
        ]


def partition_top_two(vector):
    """The ``np.partition`` top two ``top_two_values`` used to compute: the reference."""
    if vector.size == 0:
        return 0.0, 0.0
    if vector.size == 1:
        return float(vector[0]), 0.0
    top_two = np.partition(vector, -2)[-2:]
    return float(top_two[1]), float(top_two[0])


class TestPublicChecks:
    """The public planners validate; the private helpers behind them do not."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: amc_psi(-1, 2.0, 2.0, 1.0, 0.0, 1.0, 0.0),
            lambda: amc_psi(3, 0.0, 2.0, 1.0, 0.0, 1.0, 0.0),
            lambda: amc_psi(3, 2.0, math.nan, 1.0, 0.0, 1.0, 0.0),
            lambda: amc_psi(2.5, 2.0, 2.0, 1.0, 0.0, 1.0, 0.0),
            lambda: amc_sample_budget(math.nan, 0.1, 0.01, 5),
            lambda: amc_sample_budget(math.inf, 0.1, 0.01, 5),
            lambda: amc_sample_budget(-1.0, 0.1, 0.01, 5),
            lambda: amc_sample_budget(1.0, 0.0, 0.01, 5),
            lambda: amc_sample_budget(1.0, 0.1, 1.0, 5),
            lambda: amc_sample_budget(1.0, 0.1, 0.01, 0),
            lambda: empirical_bernstein_error(0, 0.1, 1.0, 0.01),
            lambda: empirical_bernstein_error(10, -0.1, 1.0, 0.01),
            lambda: empirical_bernstein_error(10, 0.1, math.inf, 0.01),
            lambda: empirical_bernstein_error(10, 0.1, 1.0, 0.0),
        ],
    )
    def test_invalid_arguments_rejected(self, call):
        with pytest.raises(ValueError):
            call()
