"""The core :class:`Graph` container.

The library operates on undirected graphs stored in compressed sparse row
(CSR) form, optionally carrying positive edge weights.  The CSR layout is what
makes the random-walk kernel and the sparse matrix-vector products used
throughout the paper fast: sampling a neighbour of node ``v`` is a single
array gather (plus an alias-table lookup when the graph is weighted), and one
SMM iteration pushes along the CSR rows of its frontier.

Weights generalise every quantity the estimators use: the weighted degree
``d(v) = Σ_u w(v, u)`` replaces the neighbour count, the transition matrix
becomes ``P(v, u) = w(v, u) / d(v)`` and the Laplacian ``L = D - A`` uses the
weighted adjacency.  An unweighted graph (``weights is None``) keeps the
original integer-degree arithmetic bit-for-bit, which is the contract the
estimator test-suite pins down.

Nodes are integers ``0 .. n-1``.  The structure is immutable after
construction; all mutation-style operations (adding edges, taking subgraphs)
return new :class:`Graph` instances.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphStructureError
from repro.utils.validation import check_node


class Graph:
    """An immutable undirected graph in CSR form, optionally edge-weighted.

    Parameters
    ----------
    indptr, indices:
        CSR row pointer and column index arrays of the (symmetric) adjacency
        matrix.  Each undirected edge ``{u, v}`` appears twice: as ``v`` in the
        row of ``u`` and as ``u`` in the row of ``v``.
    weights:
        Optional CSR-aligned array of positive edge weights, one entry per
        directed arc (``weights[k]`` belongs to ``indices[k]``).  Both copies
        of an undirected edge must carry the same weight.  ``None`` (default)
        means the graph is unweighted and every estimator runs the original
        integer-degree fast path.
    validate:
        When true (default) the arrays are checked for CSR consistency,
        symmetry, absence of self-loops, absence of duplicate edges and (when
        weighted) weight positivity/symmetry.

    Notes
    -----
    Use the builder helpers (:func:`repro.graph.from_edges`,
    :func:`repro.graph.from_networkx`, the generators in
    :mod:`repro.graph.generators`) rather than calling this constructor with
    raw arrays.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_weights",
        "_degrees",
        "_weighted_degrees",
        "_total_weight",
        "_num_nodes",
        "_num_edges",
        "_alias_cache",
        "_cumweights_cache",
        "_reverse_arcs_cache",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional arrays")
        if len(indptr) == 0:
            raise ValueError("indptr must contain at least one entry")
        num_nodes = len(indptr) - 1
        if validate:
            self._validate_csr(indptr, indices, num_nodes)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise ValueError("weights must align with the CSR indices array")
            if validate:
                self._validate_weights(indptr, indices, weights, num_nodes)
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._num_nodes = num_nodes
        self._degrees = np.diff(indptr).astype(np.int64)
        if weights is None:
            self._weighted_degrees = None  # lazy float copy, built on first use
        else:
            rows = np.repeat(np.arange(num_nodes), self._degrees)
            self._weighted_degrees = np.bincount(
                rows, weights=weights, minlength=num_nodes
            ).astype(np.float64)
        total_directed = int(indptr[-1])
        if total_directed % 2 != 0:
            raise GraphStructureError(
                "CSR structure is not symmetric: odd number of directed arcs"
            )
        self._num_edges = total_directed // 2
        if weights is None:
            self._total_weight = float(self._num_edges)
        else:
            self._total_weight = float(weights.sum()) / 2.0
        # Memoised derived data, built lazily by repro.sampling and
        # repro.core.smm and shared by every engine on this graph.
        self._alias_cache = None
        self._cumweights_cache = None
        self._reverse_arcs_cache = None
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        self._degrees.setflags(write=False)
        if self._weighted_degrees is not None:
            self._weighted_degrees.setflags(write=False)
        if self._weights is not None:
            self._weights.setflags(write=False)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_csr(indptr: np.ndarray, indices: np.ndarray, num_nodes: int) -> None:
        if indptr[0] != 0:
            raise ValueError("indptr must start at zero")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != len(indices):
            raise ValueError("indptr[-1] must equal len(indices)")
        if len(indices) and (indices.min() < 0 or indices.max() >= num_nodes):
            raise ValueError("indices contain out-of-range node ids")
        # no self loops
        rows = np.repeat(np.arange(num_nodes), np.diff(indptr))
        if np.any(rows == indices):
            raise GraphStructureError("self-loops are not supported")
        # no duplicate arcs within a row
        order = np.lexsort((indices, rows))
        sorted_rows = rows[order]
        sorted_cols = indices[order]
        dup = (sorted_rows[1:] == sorted_rows[:-1]) & (sorted_cols[1:] == sorted_cols[:-1])
        if np.any(dup):
            raise GraphStructureError("duplicate edges are not supported")
        # symmetry: the multiset of arcs must equal the multiset of reversed arcs
        forward = sorted_rows * num_nodes + sorted_cols
        backward = np.sort(indices * num_nodes + rows)
        if not np.array_equal(np.sort(forward), backward):
            raise GraphStructureError("adjacency structure is not symmetric")

    @staticmethod
    def _validate_weights(
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        num_nodes: int,
    ) -> None:
        if len(weights) == 0:
            return
        if not np.all(np.isfinite(weights)):
            raise GraphStructureError("edge weights must be finite")
        if np.any(weights <= 0):
            raise GraphStructureError("edge weights must be strictly positive")
        # weight symmetry: sorting arcs by (min, max, weight) pairs each arc
        # with its reverse, so equal-keyed neighbours must match exactly.
        rows = np.repeat(np.arange(num_nodes), np.diff(indptr))
        lo = np.minimum(rows, indices)
        hi = np.maximum(rows, indices)
        order = np.lexsort((weights, hi, lo))
        w = weights[order]
        lo, hi = lo[order], hi[order]
        same_edge = (lo[::2] == lo[1::2]) & (hi[::2] == hi[1::2])
        if not np.all(same_edge) or not np.array_equal(w[::2], w[1::2]):
            raise GraphStructureError(
                "edge weights are not symmetric: w(u, v) must equal w(v, u)"
            )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer array (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column index array (read-only view)."""
        return self._indices

    @property
    def weights(self) -> Optional[np.ndarray]:
        """CSR-aligned arc weights (read-only view), or ``None`` when unweighted."""
        return self._weights

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries explicit edge weights."""
        return self._weights is not None

    @property
    def degrees(self) -> np.ndarray:
        """Array of structural node degrees (neighbour counts, read-only view)."""
        return self._degrees

    @property
    def weighted_degrees(self) -> np.ndarray:
        """Weighted degrees ``d(v) = Σ_u w(v, u)`` as float64 (read-only view).

        Equals ``degrees`` (as floats) on unweighted graphs — where the copy
        is built lazily on first use; this is the quantity every estimator
        formula means by ``d(v)``.
        """
        if self._weighted_degrees is None:
            lazy = self._degrees.astype(np.float64)
            lazy.setflags(write=False)
            self._weighted_degrees = lazy
        return self._weighted_degrees

    @property
    def total_weight(self) -> float:
        """Total edge weight ``W = Σ_e w(e)`` (= ``num_edges`` when unweighted)."""
        return self._total_weight

    def degree(self, node: int) -> int:
        """Structural degree (neighbour count) of a single node."""
        node = check_node(node, self._num_nodes)
        return int(self._degrees[node])

    def weighted_degree(self, node: int) -> float:
        """Weighted degree ``d(v)`` of a single node."""
        node = check_node(node, self._num_nodes)
        return float(self.weighted_degrees[node])

    @property
    def average_degree(self) -> float:
        """Average structural degree ``2m / n``."""
        if self._num_nodes == 0:
            return 0.0
        return 2.0 * self._num_edges / self._num_nodes

    def neighbors(self, node: int) -> np.ndarray:
        """Array of neighbours of ``node`` (read-only view into CSR storage)."""
        node = check_node(node, self._num_nodes)
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def neighbor_weights(self, node: int) -> np.ndarray:
        """Arc weights aligned with :meth:`neighbors` (ones when unweighted)."""
        node = check_node(node, self._num_nodes)
        if self._weights is None:
            return np.ones(int(self._degrees[node]), dtype=np.float64)
        return self._weights[self._indptr[node] : self._indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        u = check_node(u, self._num_nodes, "u")
        v = check_node(v, self._num_nodes, "v")
        if self._degrees[u] > self._degrees[v]:
            u, v = v, u
        return bool(np.any(self.neighbors(u) == v))

    def edge_weight(self, u: int, v: int) -> float:
        """The weight of the undirected edge ``{u, v}`` (1.0 when unweighted).

        Raises
        ------
        GraphStructureError
            When ``{u, v}`` is not an edge of the graph.
        """
        u = check_node(u, self._num_nodes, "u")
        v = check_node(v, self._num_nodes, "v")
        if self._degrees[u] > self._degrees[v]:
            u, v = v, u
        row = self.neighbors(u)
        position = np.flatnonzero(row == v)
        if len(position) == 0:
            raise GraphStructureError(f"({u}, {v}) is not an edge of the graph")
        if self._weights is None:
            return 1.0
        return float(self._weights[self._indptr[u] + position[0]])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self._num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` integer array with ``u < v``."""
        rows = np.repeat(np.arange(self._num_nodes), self._degrees)
        mask = rows < self._indices
        return np.column_stack((rows[mask], self._indices[mask]))

    def edge_weight_array(self) -> np.ndarray:
        """Edge weights aligned with :meth:`edge_array` (ones when unweighted)."""
        if self._weights is None:
            return np.ones(self._num_edges, dtype=np.float64)
        rows = np.repeat(np.arange(self._num_nodes), self._degrees)
        mask = rows < self._indices
        return self._weights[mask]

    # ------------------------------------------------------------------ #
    # matrix views
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> sp.csr_matrix:
        """The symmetric (weighted) adjacency matrix ``A`` as ``scipy.sparse.csr_matrix``."""
        if self._weights is None:
            data = np.ones(len(self._indices), dtype=np.float64)
        else:
            data = self._weights.copy()
        return sp.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()),
            shape=(self._num_nodes, self._num_nodes),
        )

    def degree_matrix(self) -> sp.csr_matrix:
        """The diagonal (weighted) degree matrix ``D``."""
        return sp.diags(self.weighted_degrees.astype(np.float64), format="csr")

    def laplacian_matrix(self) -> sp.csr_matrix:
        """The combinatorial Laplacian ``L = D - A`` (weighted when applicable)."""
        return (self.degree_matrix() - self.adjacency_matrix()).tocsr()

    def transition_matrix(self) -> sp.csr_matrix:
        """The random-walk transition matrix ``P = D^{-1} A``.

        On weighted graphs ``P(v, u) = w(v, u) / d(v)`` with ``d(v)`` the
        weighted degree.
        """
        if np.any(self._degrees == 0):
            raise GraphStructureError(
                "transition matrix undefined: graph has isolated nodes"
            )
        if self._weights is None:
            inv_deg = 1.0 / self._degrees.astype(np.float64)
            data = np.repeat(inv_deg, self._degrees)
        else:
            data = self._weights / np.repeat(self._weighted_degrees, self._degrees)
        return sp.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()),
            shape=(self._num_nodes, self._num_nodes),
        )

    def stationary_distribution(self) -> np.ndarray:
        """The stationary distribution ``pi(v) = d(v) / 2W`` of the walk."""
        if self._num_edges == 0:
            raise GraphStructureError("stationary distribution undefined on empty graph")
        if self._weights is None:
            return self._degrees / (2.0 * self._num_edges)
        return self._weighted_degrees / (2.0 * self._total_weight)

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Sequence[int] | np.ndarray) -> "Graph":
        """The induced subgraph on ``nodes`` (relabelled to ``0..len(nodes)-1``).

        The order of ``nodes`` defines the new labels.  Edge weights are
        carried over.
        """
        nodes = np.asarray(list(nodes), dtype=np.int64)
        if len(np.unique(nodes)) != len(nodes):
            raise ValueError("subgraph node list contains duplicates")
        for node in nodes:
            check_node(int(node), self._num_nodes)
        remap = -np.ones(self._num_nodes, dtype=np.int64)
        remap[nodes] = np.arange(len(nodes))
        edges = []
        weights: list[float] = []
        for new_u, old_u in enumerate(nodes):
            lo, hi = self._indptr[old_u], self._indptr[old_u + 1]
            for position in range(lo, hi):
                new_v = remap[self._indices[position]]
                if new_v >= 0 and new_u < new_v:
                    edges.append((new_u, int(new_v)))
                    if self._weights is not None:
                        weights.append(float(self._weights[position]))
        from repro.graph.builders import from_edges

        return from_edges(
            edges,
            num_nodes=len(nodes),
            weights=weights if self._weights is not None else None,
        )

    def _edge_weight_map(self) -> dict[tuple[int, int], float]:
        """Canonical ``(u, v) -> weight`` map of the current edges."""
        edges = self.edge_array()
        weights = self.edge_weight_array()
        return {
            (int(u), int(v)): float(w) for (u, v), w in zip(edges, weights)
        }

    @staticmethod
    def _canonical_edge_updates(
        edges: Iterable[Sequence[float]], num_nodes: int, default_weight: float = 1.0
    ) -> tuple[dict[tuple[int, int], float], bool]:
        """Normalise an edge iterable into a canonical ``(u, v) -> weight`` map.

        Accepts ``(u, v)`` pairs and ``(u, v, w)`` triples.  Mirrors the
        :func:`repro.graph.builders.from_edges` contract: self-loops raise,
        exact duplicates dedupe silently, and duplicates with conflicting
        weights raise.  Also returns whether any entry was an explicit
        triple — like ``from_edges``, an explicit weight (even 1.0) makes
        the result weighted.
        """
        updates: dict[tuple[int, int], float] = {}
        saw_triple = False
        for edge in edges:
            if len(edge) == 3:
                u, v, weight = edge
                weight = float(weight)
                saw_triple = True
            elif len(edge) == 2:
                u, v = edge
                weight = default_weight
            else:
                raise ValueError(f"edges must be (u, v) or (u, v, w), got {edge!r}")
            u = check_node(int(u), num_nodes, "u")
            v = check_node(int(v), num_nodes, "v")
            if u == v:
                raise GraphStructureError("self-loops are not supported")
            if weight <= 0 or not np.isfinite(weight):
                raise GraphStructureError("edge weights must be positive and finite")
            key = (min(u, v), max(u, v))
            if key in updates and updates[key] != weight:
                raise GraphStructureError(
                    f"conflicting weights for duplicate edge {key}: "
                    f"{updates[key]} vs {weight}"
                )
            updates[key] = weight
        return updates, saw_triple

    def remove_edges(self, edges: Iterable[Sequence[int]]) -> "Graph":
        """Return a copy of the graph with the given undirected edges removed.

        Self-loop inputs raise (consistent with :func:`from_edges`); duplicate
        entries in ``edges`` dedupe; removing an edge the graph does not have
        raises :class:`GraphStructureError`.
        """
        forbidden = set()
        for u, v in edges:
            u = check_node(u, self._num_nodes, "u")
            v = check_node(v, self._num_nodes, "v")
            if u == v:
                raise GraphStructureError("self-loops are not supported")
            key = (min(u, v), max(u, v))
            if key not in forbidden and not self.has_edge(*key):
                raise GraphStructureError(f"cannot remove non-existent edge {key}")
            forbidden.add(key)
        current = self._edge_weight_map()
        kept = [(u, v) for (u, v) in current if (u, v) not in forbidden]
        kept.sort()
        from repro.graph.builders import from_edges

        if self._weights is None:
            return from_edges(kept, num_nodes=self._num_nodes)
        return from_edges(
            kept,
            num_nodes=self._num_nodes,
            weights=[current[edge] for edge in kept],
        )

    def add_edges(self, edges: Iterable[Sequence[float]]) -> "Graph":
        """Return a copy of the graph with the given undirected edges added.

        Entries are ``(u, v)`` pairs or ``(u, v, w)`` triples (weight defaults
        to 1.0).  Consistent with :func:`from_edges`: self-loops raise,
        duplicates (within the input or against existing edges) dedupe when
        the weights agree and raise :class:`GraphStructureError` when they
        conflict.
        """
        updates, saw_triple = self._canonical_edge_updates(edges, self._num_nodes)
        merged = self._edge_weight_map()
        weighted = self._weights is not None or saw_triple
        for key, weight in updates.items():
            if key in merged and merged[key] != weight:
                raise GraphStructureError(
                    f"conflicting weights for existing edge {key}: "
                    f"{merged[key]} vs {weight}"
                )
            merged[key] = weight
        ordered = sorted(merged)
        from repro.graph.builders import from_edges

        return from_edges(
            ordered,
            num_nodes=self._num_nodes,
            weights=[merged[edge] for edge in ordered] if weighted else None,
        )

    def with_weights(self, weights: np.ndarray) -> "Graph":
        """A weighted copy of this graph with per-*edge* weights.

        ``weights`` is aligned with :meth:`edge_array` (length ``m``); both
        directed copies of each edge receive the same value.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self._num_edges,):
            raise ValueError(f"weights must have shape ({self._num_edges},)")
        # Map each directed arc's canonical key to its edge_array() position.
        # Rows built by the library's builders keep indices sorted, but a
        # Graph constructed from raw CSR arrays may not, so sort the keys
        # explicitly rather than assuming edge_array() order.
        edges = self.edge_array()
        edge_keys = edges[:, 0] * self._num_nodes + edges[:, 1]
        key_order = np.argsort(edge_keys, kind="stable")
        rows = np.repeat(np.arange(self._num_nodes), self._degrees)
        arc_lo = np.minimum(rows, self._indices)
        arc_hi = np.maximum(rows, self._indices)
        positions = key_order[
            np.searchsorted(
                edge_keys[key_order], arc_lo * self._num_nodes + arc_hi
            )
        ]
        return Graph(self._indptr.copy(), self._indices.copy(), weights[positions])

    def unweighted(self) -> "Graph":
        """A structurally identical copy with weights dropped."""
        if self._weights is None:
            return self
        return Graph(self._indptr.copy(), self._indices.copy(), validate=False)

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if (
            self._num_nodes != other._num_nodes
            or not np.array_equal(self._indptr, other._indptr)
            or not np.array_equal(self._indices, other._indices)
        ):
            return False
        if (self._weights is None) != (other._weights is None):
            return False
        if self._weights is None:
            return True
        return np.array_equal(self._weights, other._weights)

    def __hash__(self) -> int:  # immutable, so hashable
        weight_token = (
            self._weights.tobytes() if self._weights is not None else b""
        )
        return hash(
            (self._num_nodes, self._num_edges, self._indices.tobytes(), weight_token)
        )

    def __repr__(self) -> str:
        weighted = ", weighted" if self.is_weighted else ""
        return (
            f"Graph(num_nodes={self._num_nodes}, num_edges={self._num_edges}, "
            f"avg_degree={self.average_degree:.2f}{weighted})"
        )


__all__ = ["Graph"]
