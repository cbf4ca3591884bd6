"""Tests for the exception hierarchy, result dataclass, logging helpers and package API."""

import logging
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.result import EstimateResult
from repro.exceptions import (
    BudgetExceededError,
    ConvergenceError,
    GraphStructureError,
    ReproError,
)
from repro.utils.logging import enable_verbose_logging, get_logger


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(GraphStructureError, ReproError)
        assert issubclass(ConvergenceError, ReproError)
        assert issubclass(BudgetExceededError, ReproError)
        assert issubclass(ReproError, Exception)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise GraphStructureError("boom")


class TestEstimateResult:
    def test_work_property(self):
        result = EstimateResult(
            value=0.5, method="geer", s=0, t=1, epsilon=0.1,
            total_steps=100, spmv_operations=40,
        )
        assert result.work == 140

    def test_float_conversion(self):
        result = EstimateResult(value=0.25, method="smm", s=0, t=1, epsilon=0.1)
        assert float(result) == 0.25

    def test_defaults(self):
        result = EstimateResult(value=1.0, method="amc", s=2, t=3, epsilon=0.2)
        assert result.num_walks == 0
        assert result.budget_exhausted is False
        assert result.details == {}


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("core").name == "repro.core"
        assert get_logger("repro.core").name == "repro.core"
        assert get_logger().name == "repro"

    def test_enable_verbose_idempotent(self):
        logger = enable_verbose_logging(logging.DEBUG)
        handlers_before = len(logger.handlers)
        enable_verbose_logging(logging.DEBUG)
        assert len(logger.handlers) == handlers_before


class TestPackageAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_setup_metadata_names_the_package(self):
        # Without a name and packages, `pip install -e .` installs nothing
        # and the `repro-er` console script never exists.
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.split() == ["repro", repro.__version__]

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_top_level_quickstart_path(self):
        graph = repro.barabasi_albert_graph(60, 4, rng=1)
        estimator = repro.EffectiveResistanceEstimator(graph, rng=1)
        result = estimator.estimate(0, 30, 0.3)
        assert isinstance(result, repro.EstimateResult)
        assert abs(result.value - repro.ground_truth_resistance(graph, 0, 30)) <= 0.3
