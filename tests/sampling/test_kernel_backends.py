"""Walk-kernel backend selection, fallback, and bit-identity (Contract 9).

Two families of tests:

* **Resolution / fallback** — ``kernel_backend`` is a speed knob with a
  guaranteed answer: unknown names fail fast, a missing numba falls back
  to numpy (silently under ``"auto"``, with exactly one
  :class:`RuntimeWarning` when requested explicitly), and a numba that
  imports but fails to compile warns once even under ``"auto"``.  The
  missing/broken numba is simulated by monkeypatching, so these run
  identically on hosts with and without numba installed.

* **Bit-identity of the numba algorithm** — the njit kernels are plain
  Python functions compiled at load time; run uncompiled (the "python
  twin" backend) they execute the same IEEE-754 float64 scalar
  arithmetic CPython-side.  Hex-equality of the twin against the numpy
  backend therefore proves Contract 9's algorithm on numba-free hosts:
  step draws, Vose alias acceptance, the replicated 128-step pairwise
  summation tree (including numpy's ``-0.0 → +0.0`` identity add), and
  the chunked stream bookkeeping.  CI's with-numba leg re-proves the
  compiled artifacts against the same fixtures.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sampling.kernels as kernels
from repro.graph.generators import barabasi_albert_graph, cycle_graph
from repro.sampling.kernels import numba_backend
from repro.sampling.kernels.numba_backend import python_twin_backend
from repro.sampling.kernels.numpy_backend import NUMPY_BACKEND
from repro.sampling.walks import RandomWalkEngine
from strategies import walkable_graphs

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture
def clean_resolution(monkeypatch):
    """Pristine backend-resolution state, restored afterwards.

    Clears the cached numba probe and the warn-once set, and removes the
    environment override so resolution behaves the same on every host
    (including CI's with-numba leg, which exports REPRO_KERNEL_BACKEND).
    """
    monkeypatch.delenv(kernels.KERNEL_BACKEND_ENV, raising=False)
    kernels._reset_for_tests()
    yield monkeypatch
    kernels._reset_for_tests()


def _stub_numba_missing(monkeypatch):
    """Make ``import numba`` raise ImportError, regardless of the host."""
    monkeypatch.setitem(sys.modules, "numba", None)


# --------------------------------------------------------------------------- #
# resolution + fallback
# --------------------------------------------------------------------------- #
class TestResolution:
    def test_numpy_always_resolves(self, clean_resolution):
        assert kernels.resolve_backend("numpy") is NUMPY_BACKEND
        assert kernels.active_backend_name("numpy") == "numpy"

    def test_unknown_backend_rejected(self, clean_resolution):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("cython")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            RandomWalkEngine(cycle_graph(5), kernel_backend="gpu")

    def test_auto_without_numba_falls_back_silently(self, clean_resolution):
        _stub_numba_missing(clean_resolution)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            backend = kernels.resolve_backend("auto")
        assert backend is NUMPY_BACKEND

    def test_explicit_numba_missing_warns_exactly_once(self, clean_resolution):
        _stub_numba_missing(clean_resolution)
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            engine = RandomWalkEngine(cycle_graph(6), kernel_backend="numba")
        assert engine.kernel_backend == "numpy"
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second request: no new warning
            again = RandomWalkEngine(cycle_graph(6), kernel_backend="numba")
        assert again.kernel_backend == "numpy"

    def test_compile_failure_warns_once_even_under_auto(self, clean_resolution):
        def broken_load():
            raise RuntimeError("LLVM exploded")

        clean_resolution.setattr(numba_backend, "load", broken_load)
        with pytest.warns(RuntimeWarning, match="compilation failed") as caught:
            backend = kernels.resolve_backend("auto")
        assert backend is NUMPY_BACKEND
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.resolve_backend("auto") is NUMPY_BACKEND
        status = kernels.backend_status()
        assert status["numba"]["available"] is False
        assert "LLVM exploded" in status["numba"]["error"]

    def test_env_var_steers_auto_resolution(self, clean_resolution):
        clean_resolution.setenv(kernels.KERNEL_BACKEND_ENV, "numpy")
        assert kernels.resolve_backend("auto") is NUMPY_BACKEND
        # an explicit budget value is never overridden by the environment
        clean_resolution.setenv(kernels.KERNEL_BACKEND_ENV, "numba")
        assert kernels.resolve_backend("numpy") is NUMPY_BACKEND
        # junk in the environment is ignored, not an error
        clean_resolution.setenv(kernels.KERNEL_BACKEND_ENV, "fortran")
        assert kernels.resolve_backend("auto").name in ("numpy", "numba")

    def test_backend_status_shape(self, clean_resolution):
        _stub_numba_missing(clean_resolution)
        status = kernels.backend_status()
        assert status["numpy"] == {"available": True, "error": None}
        assert status["numba"]["available"] is False
        assert "not installed" in status["numba"]["error"]

    def test_engine_exposes_resolved_backend(self):
        engine = RandomWalkEngine(cycle_graph(5), kernel_backend="numpy")
        assert engine.kernel_backend == "numpy"
        auto = RandomWalkEngine(cycle_graph(5))
        assert auto.kernel_backend in ("numpy", "numba")


# --------------------------------------------------------------------------- #
# bit-identity of the numba algorithm (python twin ≡ numpy backend)
# --------------------------------------------------------------------------- #
def _twin_engine(graph, rng):
    engine = RandomWalkEngine(graph, rng=rng, kernel_backend="numpy")
    engine._kernels = python_twin_backend()
    return engine


class TestTwinBitIdentity:
    @given(
        graph=walkable_graphs(max_nodes=24, weighted=None),
        seed=st.integers(0, 2**31 - 1),
        num_walks=st.integers(1, 24),
        length=st.integers(1, 280),
        chunk=st.one_of(st.none(), st.integers(1, 16)),
    )
    @SETTINGS
    def test_walk_scores_hex_identical(self, graph, seed, num_walks, length, chunk):
        weights = np.random.default_rng(seed ^ 0xA5A5).normal(size=graph.num_nodes)
        reference = RandomWalkEngine(graph, rng=seed, kernel_backend="numpy")
        twin = _twin_engine(graph, seed)
        expected = reference.walk_scores(0, num_walks, length, weights, chunk_size=chunk)
        actual = twin.walk_scores(0, num_walks, length, weights, chunk_size=chunk)
        assert actual.tobytes() == expected.tobytes()
        # the random stream must land in the same place too (Contract 2)
        assert (
            twin.rng.bit_generator.state == reference.rng.bit_generator.state
        )

    @given(
        graph=walkable_graphs(max_nodes=24, weighted=True),
        seed=st.integers(0, 2**31 - 1),
        num_walks=st.integers(1, 40),
        steps=st.integers(1, 12),
    )
    @SETTINGS
    def test_weighted_alias_draw_equivalence(self, graph, seed, num_walks, steps):
        """The compiled alias draw samples the exact same neighbours."""
        reference = RandomWalkEngine(graph, rng=seed, kernel_backend="numpy")
        twin = _twin_engine(graph, seed)
        nodes_ref = np.zeros(num_walks, dtype=np.int64)
        nodes_twin = np.zeros(num_walks, dtype=np.int64)
        for _ in range(steps):
            nodes_ref = reference.step(nodes_ref)
            nodes_twin = twin.step(nodes_twin)
            assert np.array_equal(nodes_ref, nodes_twin)

    def test_negative_zero_scores_match_numpy_identity_add(self):
        """All-(-0.0) weights: numpy's sum yields +0.0 and so must the twin."""
        graph = cycle_graph(8)
        weights = np.full(graph.num_nodes, -0.0)
        for length in (1, 7, 8, 100, 128, 300):
            reference = RandomWalkEngine(graph, rng=3, kernel_backend="numpy")
            twin = _twin_engine(graph, 3)
            expected = reference.walk_scores(0, 5, length, weights)
            actual = twin.walk_scores(0, 5, length, weights)
            assert actual.tobytes() == expected.tobytes()
            assert all(v.hex() == "0x0.0p+0" for v in actual)

    def test_endpoints_and_matrix_identical(self):
        graph = barabasi_albert_graph(150, 3, rng=11)
        reference = RandomWalkEngine(graph, rng=99, kernel_backend="numpy")
        twin = _twin_engine(graph, 99)
        assert np.array_equal(
            reference.walk_matrix(2, 20, 30), twin.walk_matrix(2, 20, 30)
        )
        assert np.array_equal(
            reference.walk_endpoints(2, 20, 30), twin.walk_endpoints(2, 20, 30)
        )


@pytest.mark.conformance
def test_twin_backend_reproduces_golden_fixtures(monkeypatch):
    """Replay every bitwise golden method through the numba algorithm.

    Forces engine construction to hand out the python twin, then requires
    hex-exact agreement with ``tests/data/golden.json`` — the same gate the
    compiled backend must pass on CI's with-numba leg.
    """
    import json

    import repro.sampling.walks as walks
    from regen_golden import BITWISE_METHODS, GOLDEN_PATH, golden_graphs, run_method

    twin = python_twin_backend()
    monkeypatch.setattr(walks, "resolve_backend", lambda name="auto": twin)
    golden = json.loads(GOLDEN_PATH.read_text())
    for graph_name, graph in golden_graphs().items():
        for method in BITWISE_METHODS:
            stored = golden["graphs"][graph_name]["methods"][method]["hex"]
            replayed = [float(v).hex() for v in run_method(graph, method)]
            assert replayed == stored, (
                f"python twin of the numba kernels drifted from golden values "
                f"for {method} on {graph_name}"
            )
