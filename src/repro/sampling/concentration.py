"""Concentration inequalities and sample-size planners.

Two inequalities drive the paper's sampling budgets:

* **Hoeffding's inequality** (Lemma 2.3) gives the worst-case number of walks
  ``η*`` that AMC may ever need (Eq. (8)); TP's fixed walk budget is derived
  the same way.
* The **empirical Bernstein inequality** (Lemma 3.2, Eq. (7)) turns the
  *observed* variance of the walk scores into a confidence radius, enabling
  AMC's early termination when the data happens to be well-behaved.

All functions here are pure: they take sample statistics and return bounds, so
they are easy to unit- and property-test independently of the estimators.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_integer, check_positive, check_probability


# --------------------------------------------------------------------------- #
# Hoeffding
# --------------------------------------------------------------------------- #
def hoeffding_error(num_samples: int, value_range: float, delta: float) -> float:
    """Hoeffding confidence radius for the mean of ``num_samples`` bounded variables.

    With each variable confined to an interval of width ``value_range``,
    ``P[|mean - E| >= eps] <= 2 exp(-2 n eps^2 / range^2)``; solving for ``eps``
    at failure probability ``delta`` gives ``range * sqrt(log(2/delta) / (2n))``.
    """
    check_integer(num_samples, "num_samples", minimum=1)
    check_positive(value_range, "value_range", strict=False)
    check_probability(delta, "delta")
    return value_range * math.sqrt(math.log(2.0 / delta) / (2.0 * num_samples))


def hoeffding_sample_size(value_range: float, epsilon: float, delta: float) -> int:
    """Samples needed for a Hoeffding radius of ``epsilon`` at confidence ``1 - delta``."""
    check_positive(value_range, "value_range", strict=False)
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta")
    if value_range == 0:
        return 1
    return int(math.ceil(value_range**2 * math.log(2.0 / delta) / (2.0 * epsilon**2)))


# --------------------------------------------------------------------------- #
# empirical Bernstein
# --------------------------------------------------------------------------- #
def empirical_bernstein_error(
    num_samples: int,
    empirical_variance: float,
    value_range: float,
    delta: float,
) -> float:
    """The empirical Bernstein radius ``f(n, σ̂², ψ, δ)`` of Eq. (7).

    ``f = sqrt(2 σ̂² log(3/δ) / n) + 3 ψ log(3/δ) / n`` where ``ψ`` bounds the
    variable range and ``σ̂²`` is the (biased) empirical variance.
    """
    check_integer(num_samples, "num_samples", minimum=1)
    check_positive(empirical_variance, "empirical_variance", strict=False)
    check_positive(value_range, "value_range", strict=False)
    check_probability(delta, "delta")
    return _empirical_bernstein_error(num_samples, empirical_variance, value_range, delta)


def _empirical_bernstein_error(
    num_samples: int, empirical_variance: float, value_range: float, delta: float
) -> float:
    """:func:`empirical_bernstein_error` for arguments the caller has validated."""
    log_term = math.log(3.0 / delta)
    return math.sqrt(2.0 * empirical_variance * log_term / num_samples) + (
        3.0 * value_range * log_term / num_samples
    )


def empirical_bernstein_sample_size(
    empirical_variance: float,
    value_range: float,
    epsilon: float,
    delta: float,
) -> int:
    """Smallest ``n`` with ``empirical_bernstein_error(n, σ̂², ψ, δ) <= epsilon``.

    Solved in closed form by treating the bound as a quadratic in ``1/sqrt(n)``.
    Useful for planning batch sizes; the estimators themselves simply evaluate
    the bound after each batch.
    """
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta")
    check_positive(empirical_variance, "empirical_variance", strict=False)
    check_positive(value_range, "value_range", strict=False)
    log_term = math.log(3.0 / delta)
    a = math.sqrt(2.0 * empirical_variance * log_term)
    b = 3.0 * value_range * log_term
    # epsilon = a / sqrt(n) + b / n  ->  let x = 1/sqrt(n):  b x^2 + a x - eps = 0
    if b == 0:
        if a == 0:
            return 1
        return max(1, int(math.ceil((a / epsilon) ** 2)))
    x = (-a + math.sqrt(a * a + 4.0 * b * epsilon)) / (2.0 * b)
    if x <= 0:
        return 1
    return max(1, int(math.ceil(1.0 / (x * x))))


# --------------------------------------------------------------------------- #
# AMC-specific budgets (Eqs. (8) and (9))
# --------------------------------------------------------------------------- #
def amc_psi(
    walk_length: int,
    degree_s: float,
    degree_t: float,
    s_max1: float,
    s_max2: float,
    t_max1: float,
    t_max2: float,
) -> float:
    """The range parameter ``ψ`` of Eq. (9).

    ``ψ = 2 ceil(ℓ_f/2) (max1(s)/d(s) + max1(t)/d(t))
        + 2 floor(ℓ_f/2) (max2(s)/d(s) + max2(t)/d(t))``

    where ``max1``/``max2`` are the largest and second-largest entries of the
    input vectors ``s`` and ``t``.  ``ψ/2`` upper-bounds ``|Z_k|`` for every walk
    score ``Z_k`` (Lemma 3.3), so ``ψ`` is the width fed to Hoeffding and the
    range fed to empirical Bernstein.
    """
    check_integer(walk_length, "walk_length", minimum=0)
    check_positive(degree_s, "degree_s")
    check_positive(degree_t, "degree_t")
    return _amc_psi(walk_length, degree_s, degree_t, s_max1, s_max2, t_max1, t_max2)


def _amc_psi(
    walk_length: int,
    degree_s: float,
    degree_t: float,
    s_max1: float,
    s_max2: float,
    t_max1: float,
    t_max2: float,
) -> float:
    """:func:`amc_psi` for arguments the caller has validated."""
    if walk_length == 0:
        return 0.0
    half_up = math.ceil(walk_length / 2)
    half_down = walk_length // 2
    term1 = 2.0 * half_up * (s_max1 / degree_s + t_max1 / degree_t)
    term2 = 2.0 * half_down * (s_max2 / degree_s + t_max2 / degree_t)
    return term1 + term2


def amc_sample_budget(psi: float, epsilon: float, delta: float, num_batches: int) -> int:
    """The worst-case walk budget ``η*`` of Eq. (8).

    ``η* = 2 ψ² log(2 τ / δ) / ε²``.
    """
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta")
    check_integer(num_batches, "num_batches", minimum=1)
    check_positive(psi, "psi", strict=False)
    return _amc_sample_budget(psi, epsilon, delta, num_batches)


def _amc_sample_budget(psi: float, epsilon: float, delta: float, num_batches: int) -> int:
    """:func:`amc_sample_budget` for arguments the caller has validated."""
    if psi == 0:
        return 1
    return int(math.ceil(2.0 * psi**2 * math.log(2.0 * num_batches / delta) / epsilon**2))


def top_two_values(vector: np.ndarray) -> tuple[float, float]:
    """``(max1, max2)`` of a vector; ``max2`` is 0 for vectors of length 1.

    Selects, never computes: ``max1`` is the entry at the argmax and ``max2``
    the larger of the maxima on either side of it, so both are entries of the
    vector, bit for bit what ``np.partition(vector, -2)[-2:]`` picks — NaN
    included, which ranks above everything there as in ``np.maximum`` (and
    not in Python's ``max``).  The one difference: when the top two include
    zeros of both signs, ``np.partition`` may return either sign.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.size == 0:
        return 0.0, 0.0
    if vector.size == 1:
        return float(vector[0]), 0.0
    top = int(vector.argmax())
    second = np.maximum(
        vector[:top].max(initial=-np.inf), vector[top + 1 :].max(initial=-np.inf)
    )
    return float(vector[top]), float(second)


__all__ = [
    "hoeffding_error",
    "hoeffding_sample_size",
    "empirical_bernstein_error",
    "empirical_bernstein_sample_size",
    "amc_psi",
    "amc_sample_budget",
    "top_two_values",
]
