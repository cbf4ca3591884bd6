"""SMM propagation ≡ scipy's sparse product (DESIGN.md Contract 10).

:class:`~repro.core.smm.SMMState` holds ``s*``/``t*`` as dense vectors plus a
sorted support and pushes over that support (or runs ``P @ x`` on the
ndarray past the dense switch).  :class:`ScipyReference` keeps the previous
implementation — ``(n, 1)`` ``csc_matrix`` vectors advanced by ``P @ x`` on
sparse objects — as the oracle.  Both are stepped side by side and compared
hex-exactly after every step: vectors, estimate, Eq. (17) cost accounting
and the top-two values GEER's greedy rule reads.

The identity rests on scipy summing each row of a sparse product from +0.0
in the row's CSR storage order; every failure message names the scipy
version so a release that changes that order fails by name.
"""

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from scipy.sparse import csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smm import SMMState
from repro.graph import EdgeDelta, Graph, barabasi_albert_graph, with_random_weights
from repro.sampling.concentration import top_two_values
from tests.strategies import connected_graphs

FRACTIONS = (0.0, 0.25, 1.1)
VERSIONS = f"scipy {scipy.__version__}, numpy {np.__version__}"


class ScipyReference:
    """The ``csc_matrix`` propagation SMMState used before Contract 10."""

    def __init__(self, graph, s, t, dense_switch_fraction):
        n = graph.num_nodes
        self.transition = graph.transition_matrix()
        self.degrees = graph.degrees
        self.deg_s = float(graph.weighted_degrees[s])
        self.deg_t = float(graph.weighted_degrees[t])
        self.s, self.t = s, t
        self.switch = max(int(dense_switch_fraction * n), 1)
        self.vectors = [sp.csc_matrix(([1.0], ([node], [0])), shape=(n, 1)) for node in (s, t)]
        self.spmv_operations = 0
        self.estimate = self.term()

    def dense(self, which):
        vector = self.vectors[which]
        if isinstance(vector, np.ndarray):
            return vector
        return np.asarray(vector.todense()).reshape(-1)

    def entry(self, which, node):
        vector = self.vectors[which]
        return float(vector[node]) if isinstance(vector, np.ndarray) else float(vector[node, 0])

    def cost(self):
        total = 0
        for vector in self.vectors:
            support = np.flatnonzero(vector) if isinstance(vector, np.ndarray) else vector.indices
            total += int(self.degrees[support].sum())
        return total

    def term(self):
        return (
            self.entry(0, self.s) / self.deg_s
            + self.entry(1, self.t) / self.deg_t
            - self.entry(0, self.t) / self.deg_s
            - self.entry(1, self.s) / self.deg_t
        )

    def step(self):
        self.spmv_operations += self.cost()
        for which, vector in enumerate(self.vectors):
            advanced = self.transition @ vector
            if not isinstance(vector, np.ndarray):
                advanced = advanced.tocsc()
                if advanced.nnz >= self.switch:
                    advanced = np.asarray(advanced.todense()).reshape(-1)
            self.vectors[which] = advanced
        self.estimate += self.term()


def _hex(value: float) -> str:
    return float(value).hex()


def _assert_identical(state: SMMState, reference: ScipyReference, step: int) -> None:
    where = f"after step {step} ({VERSIONS})"
    for which, vector in enumerate((state.s_vector(), state.t_vector())):
        expected = reference.dense(which)
        differing = np.flatnonzero(vector.view(np.int64) != expected.view(np.int64))
        assert differing.size == 0, (
            f"{'st'[which]}* differs from scipy's sparse product {where} "
            f"at nodes {differing[:5].tolist()}: {vector[differing[:5]]!r} != "
            f"{expected[differing[:5]]!r}"
        )
    assert _hex(state.estimate) == _hex(reference.estimate), where
    assert state.spmv_operations == reference.spmv_operations, where
    assert state.next_iteration_cost() == reference.cost(), where
    expected_top = (*top_two_values(state.s_vector()), *top_two_values(state.t_vector()))
    assert [_hex(v) for v in state.top_two_values()] == [_hex(v) for v in expected_top], where


def _run_side_by_side(graph, s, t, fraction, steps):
    state = SMMState(graph, s, t, dense_switch_fraction=fraction)
    reference = ScipyReference(graph, s, t, fraction)
    _assert_identical(state, reference, 0)
    for step in range(1, steps + 1):
        state.step()
        reference.step()
        _assert_identical(state, reference, step)
    return state


@st.composite
def smm_cases(draw):
    graph = draw(connected_graphs(min_nodes=4, max_nodes=30, weighted=None))
    s = draw(st.integers(0, graph.num_nodes - 1))
    t = draw(st.integers(0, graph.num_nodes - 2))
    t += t >= s  # any t != s
    return graph, s, t, draw(st.sampled_from(FRACTIONS)), draw(st.integers(0, 8))


@settings(max_examples=80, deadline=None)
@given(case=smm_cases())
def test_identity_on_random_graphs(case):
    graph, s, t, fraction, steps = case
    _run_side_by_side(graph, s, t, fraction, steps)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_identity_after_edge_delta(weighted, fraction):
    graph = barabasi_albert_graph(60, 3, rng=21)
    if weighted:
        graph = with_random_weights(graph, rng=22)
    non_edge = next(
        (0, v) for v in range(1, graph.num_nodes) if not graph.has_edge(0, v)
    )
    removed = tuple(map(int, graph.edge_array()[5]))
    updated = EdgeDelta(inserts=[non_edge], removals=[removed]).apply_to(graph)
    _run_side_by_side(updated, non_edge[0], non_edge[1], fraction, 8)


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_identity_on_unsorted_csr_rows(fraction):
    """A graph whose CSR rows are not in column order: scipy sums them in storage order."""
    graph = with_random_weights(barabasi_albert_graph(300, 3, rng=31), rng=32)
    rng = np.random.default_rng(33)
    indptr = graph.indptr
    permuted = np.concatenate(
        [lo + rng.permutation(hi - lo) for lo, hi in zip(indptr[:-1], indptr[1:])]
    )
    shuffled = Graph(indptr, graph.indices[permuted], graph.weights[permuted])
    assert not np.array_equal(shuffled.indices, graph.indices)
    _run_side_by_side(shuffled, 250, 299, fraction, 8)


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_identity_on_large_sparse_frontier(fraction):
    """2000 nodes, queried far from the hub: the push runs several steps, then switches."""
    graph = barabasi_albert_graph(2000, 2, rng=41)
    hub = int(np.argmax(graph.degrees))
    hops = csgraph.shortest_path(graph.adjacency_matrix(), indices=hub, unweighted=True)
    s, t = (int(v) for v in np.argsort(-hops, kind="stable")[:2])
    state = SMMState(graph, s, t)
    state.run(4)
    assert np.count_nonzero(state.s_vector()) < 0.25 * graph.num_nodes
    assert np.count_nonzero(state.t_vector()) < 0.25 * graph.num_nodes
    _run_side_by_side(graph, s, t, fraction, 10)
