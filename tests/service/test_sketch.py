"""Unit tests for the landmark sketch store: bound validity and exact hits."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphStructureError
from repro.graph.generators import (
    barabasi_albert_graph,
    dumbbell_graph,
    grid_graph,
    path_graph,
)
from repro.linalg.solvers import LaplacianSolver
from repro.service import sketch as sketch_module
from repro.service.sketch import LandmarkSketchStore, _factor_grounded, _inverse_dense


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(150, 3, rng=5)


@pytest.fixture(scope="module")
def store(graph):
    return LandmarkSketchStore.build(graph, num_landmarks=6)


@pytest.fixture(scope="module")
def solver(graph):
    return LaplacianSolver(graph)


class TestBoundValidity:
    def test_envelope_contains_exact_value(self, graph, store, solver):
        rng = np.random.default_rng(1)
        for _ in range(60):
            s, t = map(int, rng.choice(graph.num_nodes, size=2, replace=False))
            exact = solver.effective_resistance(s, t)
            answer = store.bounds(s, t)
            assert answer.lower <= exact + 1e-7
            assert answer.upper >= exact - 1e-7
            assert answer.lower <= answer.upper

    def test_landmark_queries_are_exact(self, store, solver):
        for landmark in map(int, store.landmarks):
            other = 17 if landmark != 17 else 18
            answer = store.bounds(landmark, other)
            exact = solver.effective_resistance(landmark, other)
            assert answer.half_width <= 1e-7
            assert answer.midpoint == pytest.approx(exact, abs=1e-6)

    def test_same_node_is_zero(self, store):
        answer = store.bounds(9, 9)
        assert answer.lower == answer.upper == 0.0

    def test_bounds_on_structured_graphs(self):
        # A dumbbell stresses the bounds: cross-bar pairs have resistance
        # dominated by the bridge, which any landmark on either side captures.
        for graph in (dumbbell_graph(20, 4), grid_graph(6, 6)):
            store = LandmarkSketchStore.build(graph, num_landmarks=4)
            solver = LaplacianSolver(graph)
            rng = np.random.default_rng(3)
            for _ in range(20):
                s, t = map(int, rng.choice(graph.num_nodes, size=2, replace=False))
                exact = solver.effective_resistance(s, t)
                answer = store.bounds(s, t)
                assert answer.lower <= exact + 1e-7 <= answer.upper + 2e-7


class TestQuery:
    def test_query_answers_within_epsilon(self, graph, store, solver):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(40):
            s, t = map(int, rng.choice(graph.num_nodes, size=2, replace=False))
            answer = store.query(s, t, 0.2)
            if answer is None:
                continue
            hits += 1
            exact = solver.effective_resistance(s, t)
            assert abs(answer.midpoint - exact) <= 0.2 + 1e-7
        assert hits > 0  # ε=0.2 is loose enough for a BA graph to hit often
        assert store.stats.hits == hits

    def test_query_declines_when_gap_too_wide(self, store):
        # ε below achievable precision for a non-landmark pair: must decline
        # rather than serve an invalid answer (unless the envelope is exact).
        non_landmarks = [
            v for v in range(store.graph.num_nodes) if not store.is_landmark(v)
        ]
        s, t = non_landmarks[0], non_landmarks[1]
        answer = store.bounds(s, t)
        if answer.half_width > 0:
            epsilon = answer.half_width / 2
            assert store.query(s, t, epsilon) is None


class TestConstruction:
    def test_degree_strategy_picks_top_degrees(self, graph):
        landmarks = LandmarkSketchStore.select_landmarks(graph, 5, strategy="degree")
        degrees = graph.degrees
        cutoff = np.sort(degrees)[::-1][4]
        assert all(degrees[l] >= cutoff for l in landmarks)

    def test_random_strategy_is_seeded(self, graph):
        a = LandmarkSketchStore.select_landmarks(graph, 5, strategy="random", rng=3)
        b = LandmarkSketchStore.select_landmarks(graph, 5, strategy="random", rng=3)
        assert np.array_equal(a, b)
        assert len(np.unique(a)) == 5

    def test_unknown_strategy_rejected(self, graph):
        with pytest.raises(ValueError):
            LandmarkSketchStore.select_landmarks(graph, 5, strategy="bogus")

    def test_num_landmarks_clamped_to_graph(self):
        graph = grid_graph(2, 2)
        store = LandmarkSketchStore.build(graph, num_landmarks=50)
        assert store.num_landmarks == graph.num_nodes

    def test_disconnected_graph_rejected(self):
        from repro.graph.builders import from_edges

        graph = from_edges([(0, 1), (2, 3)], num_nodes=4)
        with pytest.raises(GraphStructureError):
            LandmarkSketchStore.build(graph, num_landmarks=2)

    def test_shape_validation(self, graph):
        with pytest.raises(ValueError):
            LandmarkSketchStore(graph, np.array([0, 1]), np.zeros((3, graph.num_nodes)))

    def test_resistances_match_solver(self, graph, store, solver):
        # Spot-check the stored matrix itself, not just the bounds it implies.
        for i, landmark in enumerate(map(int, store.landmarks[:3])):
            for v in (10, 77, 149):
                if v == landmark:
                    continue
                assert store.resistances[i, v] == pytest.approx(
                    solver.effective_resistance(landmark, v), abs=1e-6
                )

    def test_diag_chunk_is_not_an_option(self, graph):
        # A non-positive chunk used to skip the solves and serve np.empty.
        with pytest.raises(TypeError):
            LandmarkSketchStore.build(graph, num_landmarks=2, diag_chunk=-1)


def _log_uniform_weights(graph, decades, seed):
    """``graph`` with edge weights log-uniform in ``[10**-decades, 10**decades)``."""
    gen = np.random.default_rng(seed)
    return graph.with_weights(10.0 ** gen.uniform(-decades, decades, graph.num_edges))


REFERENCE_GRAPHS = {
    "ba-300-4": lambda: barabasi_albert_graph(300, 4, rng=1),
    "grid-15x15-w1e4": lambda: _log_uniform_weights(grid_graph(15, 15), 4, seed=2),
    "ba-250-3-w1e6": lambda: _log_uniform_weights(
        barabasi_albert_graph(250, 3, rng=3), 6, seed=4
    ),
    "path-300": lambda: path_graph(300),
}


PATHS = ("dense", "sparse")


def _spy_on_paths(monkeypatch):
    """Record, in call order, which inversion helper ``build`` runs."""
    calls = []
    for path in PATHS:
        helper = getattr(sketch_module, f"_inverse_{path}")

        def spy(*args, _helper=helper, _path=path):
            calls.append(_path)
            return _helper(*args)

        monkeypatch.setattr(sketch_module, f"_inverse_{path}", spy)
    return calls


@pytest.fixture(
    scope="module",
    params=[(name, path) for name in sorted(REFERENCE_GRAPHS) for path in PATHS],
    ids=lambda param: "-".join(param),
)
def reference(request):
    """A sketch built on one inversion path beside a dense ``pinv(L)``.

    The order bound is moved so that ``build`` takes the named path, and a spy
    checks that it did.  ``tol`` is the reference's conditioning tolerance:
    ``10·κ(L_g)·2⁻⁵²`` relative to the largest resistance, with ``L_g``
    grounded at the sketch's first landmark.  Forward error in a solve with
    ``L_g`` scales with the matrix's largest entries, so the tolerance is
    normwise, and it is the only slack any assertion below allows.
    """
    name, path = request.param
    graph = REFERENCE_GRAPHS[name]()
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_on_paths(patch)
        bound = graph.num_nodes if path == "dense" else 0
        patch.setattr(sketch_module, "_DENSE_MAX_ORDER", bound)
        store = LandmarkSketchStore.build(graph, num_landmarks=8)
    assert calls == [path]
    laplacian = graph.laplacian_matrix().toarray()
    pinv = np.linalg.pinv(laplacian)
    diag = np.diag(pinv)
    exact = diag[:, None] + diag[None, :] - 2.0 * pinv
    keep = np.delete(np.arange(graph.num_nodes), store.landmarks[0])
    kappa = np.linalg.cond(laplacian[np.ix_(keep, keep)])
    tol = 10.0 * kappa * 2.0**-52 * exact.max()
    return SimpleNamespace(graph=graph, store=store, exact=exact, tol=tol)


class TestDenseReference:
    def test_stored_resistances_match_pinv(self, reference):
        np.testing.assert_allclose(
            reference.store.resistances,
            reference.exact[reference.store.landmarks],
            rtol=0.0,
            atol=reference.tol,
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_answers_hold_their_epsilon(self, reference, data):
        n = reference.graph.num_nodes
        s = data.draw(st.integers(0, n - 1), label="s")
        t = data.draw(st.integers(0, n - 1), label="t")
        epsilon = data.draw(st.floats(0.01, 1.0), label="epsilon")
        answer = reference.store.query(s, t, epsilon)
        if answer is None:
            return
        exact, tol = reference.exact[s, t], reference.tol
        assert abs(answer.midpoint - exact) <= epsilon + tol
        assert answer.lower <= exact + tol
        assert exact <= answer.upper + tol


def test_symmetric_factor_has_at_most_half_the_default_fill():
    # SuperLU's default COLAMD + partial pivoting measured 2.8x the fill here.
    graph = barabasi_albert_graph(600, 8, rng=1)
    ground = int(LandmarkSketchStore.select_landmarks(graph, 1)[0])
    keep = np.delete(np.arange(graph.num_nodes), ground)
    grounded = graph.laplacian_matrix()[keep][:, keep].tocsc()
    factor = _factor_grounded(grounded)
    default = spla.splu(grounded)
    assert factor.L.nnz + factor.U.nnz <= 0.5 * (default.L.nnz + default.U.nnz)


@pytest.mark.parametrize("num_nodes, path", [(2049, "dense"), (2050, "sparse")])
def test_order_bound_picks_the_path(num_nodes, path, monkeypatch):
    # Orders 2,048 and 2,049 on either side of the bound; a path graph's
    # resistances have the closed form r(u, v) = |u - v|.
    calls = _spy_on_paths(monkeypatch)
    store = LandmarkSketchStore.build(path_graph(num_nodes), num_landmarks=4)
    assert calls == [path]
    exact = np.abs(store.landmarks[:, None] - np.arange(num_nodes)[None, :])
    # The reference tolerance with κ(L_g) ≤ λ_max · trace(L_g⁻¹): Gershgorin
    # bounds λ_max by twice the largest degree, and trace(L_g⁻¹) = Σ_v r(g, v).
    kappa = 4.0 * exact[0].sum()
    tol = 10.0 * kappa * 2.0**-52 * exact.max()
    np.testing.assert_allclose(store.resistances, exact, rtol=0.0, atol=tol)


def test_dense_inverse_raises_on_a_matrix_that_is_not_positive_definite():
    # The ungrounded Laplacian is singular.  A path's pivots are exact (all 1,
    # then 0), so dpotrf meets the zero pivot; rounding on other graphs can
    # leave a tiny positive one instead.
    laplacian = path_graph(50).laplacian_matrix().tocsc()
    with pytest.raises(np.linalg.LinAlgError, match="dpotrf"):
        _inverse_dense(laplacian, np.array([3]))


def test_dense_inverse_works_in_place():
    # Handed a C-ordered matrix, the LAPACK wrappers copy it: twice the peak.
    graph = barabasi_albert_graph(600, 4, rng=1)
    grounded = graph.laplacian_matrix()[1:, 1:].tocsc()
    matrix_bytes = 8 * grounded.shape[0] ** 2
    tracemalloc.start()
    try:
        _inverse_dense(grounded, np.array([3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix_bytes
