"""Uniform ε / node-pair validation across every query entry point.

Table-driven: every entry point — ``QueryEngine.query`` / ``query_many``,
``EffectiveResistanceEstimator.estimate_many`` and the three
``ResistanceService`` paths — must raise :class:`ValueError` for the same bad
inputs (non-positive ε, NaN/inf ε, out-of-range or non-integer node ids),
before any sampling happens.
"""

import math

import numpy as np
import pytest

from repro.core.estimator import EffectiveResistanceEstimator
from repro.core.engine import QueryEngine
from repro.graph import barabasi_albert_graph
from repro.service import ResistanceService

N = 40


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(N, 3, rng=5)


@pytest.fixture(scope="module")
def engine(graph):
    return QueryEngine(graph, rng=1)


@pytest.fixture(scope="module")
def estimator(graph):
    return EffectiveResistanceEstimator(graph, rng=1)


@pytest.fixture(scope="module")
def service(graph):
    return ResistanceService(graph, rng=1)


ENTRY_POINTS = {
    "engine.query": lambda engine, estimator, service, s, t, eps: engine.query(
        s, t, eps, method="smm"
    ),
    "engine.query_many": lambda engine, estimator, service, s, t, eps: (
        engine.query_many([(s, t)], eps, method="smm")
    ),
    "estimator.estimate_many": lambda engine, estimator, service, s, t, eps: (
        estimator.estimate_many([(s, t)], eps, method="smm")
    ),
    "service.query": lambda engine, estimator, service, s, t, eps: service.query(
        s, t, eps
    ),
    "service.query_many": lambda engine, estimator, service, s, t, eps: (
        service.query_many([(s, t)], eps)
    ),
}

BAD_CASES = [
    pytest.param(0, 1, 0.0, id="epsilon-zero"),
    pytest.param(0, 1, -0.5, id="epsilon-negative"),
    pytest.param(0, 1, float("nan"), id="epsilon-nan"),
    pytest.param(0, 1, float("inf"), id="epsilon-inf"),
    pytest.param(0, N, 0.5, id="t-out-of-range"),
    pytest.param(-1, 1, 0.5, id="s-negative"),
    pytest.param(0.0, 1, 0.5, id="s-float"),
    pytest.param(0, "1", 0.5, id="t-string"),
    pytest.param(np.float64(0.0), 1, 0.5, id="s-numpy-float"),
    pytest.param(True, 1, 0.5, id="s-bool"),
]


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("s,t,eps", BAD_CASES)
def test_bad_inputs_raise_value_error(entry_point, s, t, eps, engine, estimator, service):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry_point](engine, estimator, service, s, t, eps)


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_good_inputs_pass_validation(entry_point, engine, estimator, service):
    result = ENTRY_POINTS[entry_point](engine, estimator, service, 0, 1, 0.5)
    assert result is not None


def test_empty_batch_still_validates_epsilon(engine, estimator, service):
    """ε validation must not be skipped just because the pair list is empty."""
    for call in (
        lambda: engine.query_many([], float("nan"), method="smm"),
        lambda: estimator.estimate_many([], float("nan"), method="smm"),
        lambda: service.query_many([], float("nan")),
    ):
        with pytest.raises(ValueError):
            call()


def test_error_messages_name_the_argument(engine):
    with pytest.raises(ValueError, match="epsilon"):
        engine.query(0, 1, -1.0)
    with pytest.raises(ValueError, match="s"):
        engine.query(-3, 1, 0.5)
    with pytest.raises(ValueError, match="t"):
        engine.query(0, N + 7, 0.5)
