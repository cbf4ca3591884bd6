"""SMM — deterministic estimation via sparse matrix-vector multiplications.

Algorithm 2 in the paper.  Starting from the one-hot vectors ``e_s`` and
``e_t``, each iteration multiplies by the transition matrix ``P`` so that after
``i`` iterations ``s*(v) = p_i(v, s)`` and ``t*(v) = p_i(v, t)`` (Eq. (15)),
and accumulates the ``i``-th term of the truncated effective resistance
``r_ℓ(s, t)`` (Eq. (4)).

Each propagation vector is a dense float64 ``n``-vector plus its sorted
support.  While the support is small — the regime in which the paper argues
SMM beats random walks — an iteration *pushes* over the support, touching
only the edges Eq. (17) charges for (recorded in
:attr:`SMMState.spmv_operations`); past ``dense_switch_fraction`` of the
nodes it is the dense ``P @ x``.  Both give the bits of scipy's sparse
product, each row summed from +0.0 in CSR storage order (DESIGN.md
Contract 10).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.core.registry import QueryContext, register_method
from repro.core.result import EstimateResult
from repro.core.walk_length import peng_walk_length
from repro.graph.graph import Graph
from repro.sampling.concentration import top_two_values
from repro.utils.timing import Timer
from repro.utils.validation import check_integer, check_node_pair, check_positive


def _reverse_arcs(graph: Graph) -> tuple[np.ndarray, bool]:
    """``(reverse, rows_sorted)``: slot ``reverse[k]`` holds ``(v, u)`` if ``k`` holds ``(u, v)``.

    Structural, so it indexes any matrix with the graph's CSR pattern — ``P``
    in particular.  Memoised on the graph, built by the first push.
    """
    cached = graph._reverse_arcs_cache
    if cached is None:
        rows = np.repeat(np.arange(graph.num_nodes), graph.degrees)
        by_row = np.lexsort((graph.indices, rows))
        reverse = np.empty_like(by_row)
        # The k-th arc by (row, col) is the reverse of the k-th by (col, row).
        reverse[by_row] = np.lexsort((rows, graph.indices))
        reverse.setflags(write=False)
        rows_sorted = bool(np.array_equal(by_row, np.arange(len(by_row))))
        cached = graph._reverse_arcs_cache = (reverse, rows_sorted)
    return cached


class _Frontier:
    """One propagation vector: dense values, sorted support, Eq. (17) cost."""

    __slots__ = ("values", "support", "support_degrees", "cost", "dense")

    def __init__(self, values: np.ndarray, degrees: np.ndarray, dense: bool) -> None:
        self.values = values
        self.support = np.flatnonzero(values)
        self.support_degrees = degrees[self.support]
        self.cost = int(self.support_degrees.sum())
        self.dense = dense


class SMMState:
    """Iteratively maintains ``s*`` and ``t*``, each a dense vector plus its support.

    Parameters
    ----------
    graph:
        The input graph.
    s, t:
        Query nodes.
    transition:
        Optional pre-built transition matrix ``P = D^{-1}A`` (CSR, with the
        graph's CSR pattern, as :meth:`Graph.transition_matrix` builds it).
        Passing it avoids rebuilding the matrix for every query in a sweep.
    dense_switch_fraction:
        Once a vector's support reaches this fraction of the nodes, it is
        advanced by the dense ``P @ x``.  Results do not depend on it.
    """

    def __init__(
        self,
        graph: Graph,
        s: int,
        t: int,
        *,
        transition: Optional[sp.csr_matrix] = None,
        dense_switch_fraction: float = 0.25,
    ) -> None:
        s, t = check_node_pair(s, t, graph.num_nodes)
        dense_switch_fraction = check_positive(
            dense_switch_fraction, "dense_switch_fraction", strict=False
        )
        self._graph = graph
        self._s = s
        self._t = t
        self._transition = transition if transition is not None else graph.transition_matrix()
        # Structural degrees drive the Eq. (17) frontier-cost accounting
        # (edge traversals); the *weighted* degrees enter the estimate terms.
        self._degrees = graph.degrees
        self._deg_s = float(graph.weighted_degrees[s])
        self._deg_t = float(graph.weighted_degrees[t])
        self._dense_switch = max(int(dense_switch_fraction * graph.num_nodes), 1)
        n = graph.num_nodes
        self._s_frontier = _Frontier(np.eye(1, n, s)[0], self._degrees, dense=False)
        self._t_frontier = _Frontier(np.eye(1, n, t)[0], self._degrees, dense=False)

        self.iterations = 0
        self.spmv_operations = 0
        self.estimate = self._current_term()

    # ------------------------------------------------------------------ #
    # vector access
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def s(self) -> int:
        return self._s

    @property
    def t(self) -> int:
        return self._t

    def s_vector(self) -> np.ndarray:
        """Dense copy of ``s*`` (``s*(v) = p_i(v, s)`` after ``i`` iterations)."""
        return self._s_frontier.values.copy()

    def t_vector(self) -> np.ndarray:
        """Dense copy of ``t*``."""
        return self._t_frontier.values.copy()

    def top_two_values(self) -> tuple[float, float, float, float]:
        """``(s_max1, s_max2, t_max1, t_max2)``: the two largest entries of ``s*`` and ``t*``.

        Read over the supports only.  Equal to :func:`top_two_values` of the
        dense vectors: off-support entries are 0 and support entries are > 0.
        """
        s, t = self._s_frontier, self._t_frontier
        return (*top_two_values(s.values[s.support]), *top_two_values(t.values[t.support]))

    def next_iteration_cost(self) -> int:
        """Edge traversals the *next* SMM iteration would perform (Eq. (17) LHS)."""
        return self._s_frontier.cost + self._t_frontier.cost

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def _current_term(self) -> float:
        s_values, t_values = self._s_frontier.values, self._t_frontier.values
        return (
            float(s_values[self._s]) / self._deg_s
            + float(t_values[self._t]) / self._deg_t
            - float(s_values[self._t]) / self._deg_s
            - float(t_values[self._s]) / self._deg_t
        )

    def _push(self, frontier: _Frontier) -> np.ndarray:
        """``P @ x`` over the support: arc ``j → i`` carries ``P[i, j]·x[j]``.

        ``np.bincount`` adds each row's contributions from +0.0 in input order;
        ascending sources are CSR storage order when rows are sorted.
        """
        reverse_arcs, rows_sorted = _reverse_arcs(self._graph)
        support, degrees = frontier.support, frontier.support_degrees
        # The support's CSR rows back to back, in ascending row order.
        first = self._graph.indptr[support] - (np.cumsum(degrees) - degrees)
        positions = np.arange(frontier.cost) + np.repeat(first, degrees)
        reverse = reverse_arcs[positions]
        targets = self._graph.indices[positions]
        pushed = self._transition.data[reverse] * np.repeat(frontier.values[support], degrees)
        if not rows_sorted:
            order = np.argsort(reverse)
            targets, pushed = targets[order], pushed[order]
        return np.bincount(targets, weights=pushed, minlength=self._graph.num_nodes)

    def _advance(self, frontier: _Frontier) -> _Frontier:
        if frontier.dense:
            return _Frontier(self._transition @ frontier.values, self._degrees, dense=True)
        advanced = _Frontier(self._push(frontier), self._degrees, dense=False)
        advanced.dense = len(advanced.support) >= self._dense_switch
        return advanced

    def step(self) -> float:
        """Perform one SMM iteration (Lines 4-5 of Algorithm 2); returns the new term."""
        self.spmv_operations += self.next_iteration_cost()
        self._s_frontier = self._advance(self._s_frontier)
        self._t_frontier = self._advance(self._t_frontier)
        self.iterations += 1
        term = self._current_term()
        self.estimate += term
        return term

    def run(self, num_iterations: int) -> float:
        """Run ``num_iterations`` additional iterations; returns the running estimate."""
        check_integer(num_iterations, "num_iterations", minimum=0)
        for _ in range(num_iterations):
            self.step()
        return self.estimate


def smm_estimate(
    graph: Graph,
    s: int,
    t: int,
    num_iterations: int,
    *,
    transition: Optional[sp.csr_matrix] = None,
) -> EstimateResult:
    """Run SMM (Algorithm 2) for ``num_iterations`` iterations.

    When ``num_iterations`` equals the maximum walk length ℓ of Eq. (6), the
    returned value approximates ``r(s, t)`` within ``ε/2`` deterministically.
    """
    check_integer(num_iterations, "num_iterations", minimum=0)
    timer = Timer()
    with timer:
        state = SMMState(graph, s, t, transition=transition)
        state.run(num_iterations)
    return EstimateResult(
        value=state.estimate,
        method="smm",
        s=state.s,
        t=state.t,
        epsilon=float("nan"),
        walk_length=num_iterations,
        smm_iterations=state.iterations,
        spmv_operations=state.spmv_operations,
        elapsed_seconds=timer.elapsed,
    )


# --------------------------------------------------------------------------- #
# registry adapters
# --------------------------------------------------------------------------- #
def _smm_registry_query(
    context: QueryContext, s: int, t: int, epsilon: float, **kwargs
) -> EstimateResult:
    num_iterations = kwargs.pop("num_iterations", None)
    refined = kwargs.pop("refined", True)
    if num_iterations is None:
        num_iterations = context.walk_length(s, t, epsilon, refined=refined)
    timer = Timer()
    with timer:
        result = smm_estimate(
            context.graph, s, t, num_iterations, transition=context.transition, **kwargs
        )
    result.epsilon = epsilon
    result.elapsed_seconds = timer.elapsed
    return result


def _smm_peng_registry_query(
    context: QueryContext, s: int, t: int, epsilon: float, **kwargs
) -> EstimateResult:
    num_iterations = kwargs.pop("num_iterations", None)
    if num_iterations is None:
        num_iterations = peng_walk_length(epsilon, context.lambda_max_abs)
    result = smm_estimate(
        context.graph, s, t, num_iterations, transition=context.transition, **kwargs
    )
    result.epsilon = epsilon
    result.method = "smm-peng"
    return result


register_method(
    "smm",
    description="Algorithm 2: deterministic SpMV propagation for the refined length ℓ",
    deterministic=True,
    walk_length_param="num_iterations",
    walk_length_kind="refined",
    func=_smm_registry_query,
)
register_method(
    "smm-peng",
    description="SMM run for the generic Eq. (5) length (the Fig. 11 comparison arm)",
    deterministic=True,
    walk_length_param="num_iterations",
    walk_length_kind="peng",
    func=_smm_peng_registry_query,
)

__all__ = ["SMMState", "smm_estimate"]
