"""Landmark resistance sketches: O(k) per-query bounds without the walk engine.

Effective resistance is a metric on the nodes of a connected graph, so for any
landmark ``l``

.. math::

    |r(s, l) - r(l, t)| \\;\\le\\; r(s, t) \\;\\le\\; r(s, l) + r(l, t).

:class:`LandmarkSketchStore` precomputes the **exact** resistance vectors
``r(l, ·)`` for ``k`` landmark nodes and serves, per query, the tightest
triangle-inequality envelope over all landmarks.  When the envelope half-width
is at most the requested ε the midpoint is a valid ε-approximate answer — no
random walks, no SpMVs, just two ``k``-vector reads.  Queries touching a
landmark are answered exactly (the envelope collapses to a point).

Preprocessing inverts the grounded Laplacian ``L_g`` (the Laplacian with the
row/column of a grounding node ``g`` removed): with ``a = L_g⁻¹``,

* ``r(g, v) = a[v, v]`` — the diagonal of the inverse, and
* ``r(l, v) = a[l, l] - 2 a[l, v] + a[v, v]`` — one column of the inverse per
  landmark.

The grounding node is the first landmark, so ``k`` landmarks need
``diag(L_g⁻¹)`` and ``k - 1`` columns.  Both are exact up to solver precision,
so the served bounds are *valid* (the tests check every stored value against
a dense ``pinv(L)`` within a tolerance set by the condition number of
``L_g``, for both paths below).

Both paths rely on the connectivity check.  ``xᵀ L_g x`` is the Laplacian
quadratic form of ``x`` extended by ``x[g] = 0``, which vanishes only for
vectors constant on a connected graph, so ``L_g`` is symmetric positive
definite: a Cholesky factor exists, and elimination without row exchanges is
stable.  :meth:`LandmarkSketchStore.build` picks the path by the order
``n - 1`` of ``L_g`` alone:

**Dense, order ≤ 2,048** (:func:`_inverse_dense`).  One LAPACK Cholesky
(``dpotrf``) and the inverse from its factor (``dpotri``), both in place on
the densified ``L_g``.  In place needs a Fortran-ordered float64 array
(``toarray(order="F")`` of the CSC matrix): handed a C-ordered one, the
wrappers copy it, and the build holds two matrices instead of one.  The bound
is memory, not speed: the matrix is ``8 · 2048²`` bytes = 32 MiB at the
bound and grows quadratically past it, while the sparse factor's memory
follows its fill.  On the 2,000-node ``ba-2000-8`` graph, whose sparse factor
already holds 23% of a dense factor's entries, the dense build takes 0.18 s
against 1.1–1.3 s sparse (6–7x), and on ``facebook-syn`` 0.18–0.21 s against
1.7–2.0 s (best of three, one CPU of a 2-vCPU host).  The dense cost is
bounded by the size, about 0.2 s at the bound, so graphs whose sparse factor
stays thin build a little slower than they would sparse: a 2,000-node path
0.18 s against 0.09 s, a 45×45 grid 0.19 s against 0.17 s, a
``BA(2000, 2)`` graph 0.18 s against 0.14 s.

**Sparse, order > 2,048** (:func:`_inverse_sparse`).  One SuperLU factor,
chunked identity solves for the diagonal and one solve per landmark column:
``n + k`` triangular solves in all, and the only path whose memory scales to
``sketch_max_nodes`` (50,000 by default).  :func:`_factor_grounded` runs
SuperLU in its symmetric mode: a minimum-degree ordering of ``L_g + L_gᵀ``
applied to rows and columns alike (``MMD_AT_PLUS_A``), with diagonal pivots
(``diag_pivot_thresh=0``).  SuperLU's default (COLAMD on the columns, partial
pivoting on the rows) ignores the symmetry: on ``ba-2000-8`` it fills L+U to
2.72M nonzeros, the symmetric mode to 0.92M.  Each identity solve touches all
of them, so the ``n - 1`` solves behind ``diag(L_g⁻¹)`` — most of a sparse
build — shrink with the fill (about 3x faster builds there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from repro.exceptions import GraphStructureError
from repro.graph.graph import Graph
from repro.graph.properties import is_connected
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_node_pair, check_positive

LANDMARK_STRATEGIES = ("degree", "random")

# Largest order of L_g inverted densely.  The bound is memory: the dense
# matrix is 8 · 2048² bytes = 32 MiB here, and only the sparse factor's memory
# scales to the service's ``sketch_max_nodes``.
_DENSE_MAX_ORDER = 2048

# Identity columns per solve when extracting diag(L_g⁻¹) on the sparse path:
# bounds the dense right-hand-side block at (n - 1) x 512 doubles.
_DIAG_CHUNK = 512


def _inverse_dense(
    grounded: sp.csc_matrix, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``diag(L_g⁻¹)`` and ``L_g⁻¹[:, columns]`` from one dense Cholesky.

    ``dpotrf`` and ``dpotri`` overwrite one Fortran-ordered matrix: first with
    the lower Cholesky factor, then with the lower triangle of the inverse.
    Any nonzero LAPACK ``info`` — ``grounded`` not positive definite, or a bad
    argument — raises :class:`numpy.linalg.LinAlgError`, so no value of a
    failed factorization is ever returned.
    """
    matrix = grounded.toarray(order="F")
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"dpotrf failed on the grounded Laplacian (info={info})"
        )
    inverse, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"dpotri failed on the grounded Laplacian (info={info})"
        )
    # Only the lower triangle holds the inverse: column j is row j left of
    # the diagonal, then column j from the diagonal down.
    block = np.empty((len(inverse), len(columns)), order="F")
    for i, j in enumerate(columns):
        block[:j, i] = inverse[j, :j]
        block[j:, i] = inverse[j:, j]
    # A copy, not a view: a view of the diagonal would keep the matrix alive.
    return inverse.diagonal().copy(), block


def _factor_grounded(grounded: sp.csc_matrix) -> spla.SuperLU:
    """Sparse LU of a grounded Laplacian in SuperLU's symmetric mode.

    ``grounded`` must come from a connected graph, which makes it symmetric
    positive definite (see the module docstring): diagonal pivots are then
    stable and a symmetric minimum-degree ordering keeps the fill low.
    """
    return spla.splu(
        grounded,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _inverse_sparse(
    grounded: sp.csc_matrix, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``diag(L_g⁻¹)`` and ``L_g⁻¹[:, columns]`` from SuperLU solves.

    Chunked identity solves give the diagonal and one solve per entry of
    ``columns`` the columns, all against one symmetric-mode factor.
    """
    lu = _factor_grounded(grounded)
    order = grounded.shape[0]
    diag = np.empty(order, dtype=np.float64)
    for start in range(0, order, _DIAG_CHUNK):
        stop = min(start + _DIAG_CHUNK, order)
        rhs = np.zeros((order, stop - start), dtype=np.float64)
        rhs[np.arange(start, stop), np.arange(stop - start)] = 1.0
        block = lu.solve(rhs)
        diag[start:stop] = block[np.arange(start, stop), np.arange(stop - start)]
    solved = np.empty((order, len(columns)), order="F")
    for i, j in enumerate(columns):
        rhs = np.zeros(order, dtype=np.float64)
        rhs[j] = 1.0
        solved[:, i] = lu.solve(rhs)
    return diag, solved


@dataclass(frozen=True)
class SketchAnswer:
    """The triangle-inequality envelope one query gets from the sketch."""

    lower: float
    upper: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def half_width(self) -> float:
        """The additive error guarantee of :attr:`midpoint`."""
        return 0.5 * (self.upper - self.lower)

    def answers(self, epsilon: float) -> bool:
        """Whether :attr:`midpoint` is a valid ε-approximate answer."""
        return self.half_width <= epsilon


@dataclass
class SketchStats:
    """Counters for one :class:`LandmarkSketchStore`."""

    lookups: int = 0
    hits: int = 0
    exact_hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> dict[str, object]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "exact_hits": self.exact_hits,
            "hit_rate": round(self.hit_rate, 4),
        }


class LandmarkSketchStore:
    """Exact landmark resistance vectors serving triangle-inequality bounds.

    Build one with :meth:`build` (preprocessing) or :meth:`from_arrays`
    (restoring persisted artifacts).  The store itself is immutable apart from
    its stats.

    Parameters
    ----------
    graph:
        The graph the sketch was built for (used only for validation).
    landmarks:
        Landmark node ids, in selection order.
    resistances:
        ``(k, n)`` array with ``resistances[i, v] = r(landmarks[i], v)``.
    strategy:
        How the landmarks were chosen (``"degree"`` or ``"random"``), recorded
        for artifact round-trips.
    """

    def __init__(
        self,
        graph: Graph,
        landmarks: np.ndarray,
        resistances: np.ndarray,
        *,
        strategy: str = "degree",
    ) -> None:
        landmarks = np.asarray(landmarks, dtype=np.int64)
        resistances = np.asarray(resistances, dtype=np.float64)
        if resistances.shape != (len(landmarks), graph.num_nodes):
            raise ValueError(
                f"resistances must have shape ({len(landmarks)}, {graph.num_nodes}), "
                f"got {resistances.shape}"
            )
        self.graph = graph
        self.landmarks = landmarks
        self.resistances = resistances
        self.strategy = strategy
        self.stats = SketchStats()
        self.stale = False
        self._landmark_index = {int(l): i for i, l in enumerate(landmarks)}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def select_landmarks(
        graph: Graph,
        num_landmarks: int,
        *,
        strategy: str = "degree",
        rng: RngLike = None,
    ) -> np.ndarray:
        """Pick landmark nodes: highest degree first, or uniformly at random."""
        if strategy not in LANDMARK_STRATEGIES:
            raise ValueError(
                f"strategy must be one of {LANDMARK_STRATEGIES}, got {strategy!r}"
            )
        k = min(int(num_landmarks), graph.num_nodes)
        if k < 1:
            raise ValueError(f"num_landmarks must be >= 1, got {num_landmarks}")
        if strategy == "degree":
            # Stable sort so ties break towards the lowest node id.  Weighted
            # degrees pick heavy hubs on weighted graphs and reduce to the
            # structural degrees (same ordering) otherwise.
            return np.argsort(-graph.weighted_degrees, kind="stable")[:k].astype(np.int64)
        gen = as_generator(rng)
        return np.sort(gen.choice(graph.num_nodes, size=k, replace=False)).astype(
            np.int64
        )

    @classmethod
    def build(
        cls,
        graph: Graph,
        *,
        num_landmarks: int = 8,
        strategy: str = "degree",
        rng: RngLike = None,
    ) -> "LandmarkSketchStore":
        """Invert the grounded Laplacian and materialise ``r(l, ·)`` exactly.

        Orders up to ``_DENSE_MAX_ORDER`` take the dense Cholesky path, larger
        ones the sparse SuperLU path (see the module docstring).
        """
        if graph.num_nodes < 2:
            raise ValueError("landmark sketches need at least two nodes")
        if not is_connected(graph):
            raise GraphStructureError("landmark sketches require a connected graph")
        landmarks = cls.select_landmarks(
            graph, num_landmarks, strategy=strategy, rng=rng
        )
        n = graph.num_nodes
        ground = int(landmarks[0])
        keep = np.delete(np.arange(n), ground)
        reduced = np.full(n, -1, dtype=np.int64)
        reduced[keep] = np.arange(n - 1)

        grounded = graph.laplacian_matrix()[keep][:, keep].tocsc()
        inverse = _inverse_dense if n - 1 <= _DENSE_MAX_ORDER else _inverse_sparse
        diag, columns = inverse(grounded, reduced[landmarks[1:]])

        resistances = np.zeros((len(landmarks), n), dtype=np.float64)
        # Ground landmark: r(g, v) = a[v, v].
        resistances[0, keep] = diag
        for i, landmark in enumerate(landmarks[1:], start=1):
            column = columns[:, i - 1]
            a_ll = column[reduced[landmark]]
            resistances[i, keep] = a_ll - 2.0 * column + diag
            resistances[i, ground] = a_ll
            resistances[i, landmark] = 0.0
        np.maximum(resistances, 0.0, out=resistances)
        return cls(graph, landmarks, resistances, strategy=strategy)

    @classmethod
    def from_arrays(
        cls,
        graph: Graph,
        landmarks: np.ndarray,
        resistances: np.ndarray,
        *,
        strategy: str = "degree",
    ) -> "LandmarkSketchStore":
        """Restore a store from persisted arrays (see :mod:`repro.service.artifacts`)."""
        return cls(graph, landmarks, resistances, strategy=strategy)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    def is_landmark(self, node: int) -> bool:
        return int(node) in self._landmark_index

    def bounds(self, s: int, t: int) -> SketchAnswer:
        """The tightest landmark envelope ``lower <= r(s, t) <= upper``.

        When ``s`` or ``t`` is a landmark both bounds equal the exact value
        (the triangle inequality is tight through that landmark).
        """
        s, t = check_node_pair(s, t, self.graph.num_nodes)
        if s == t:
            return SketchAnswer(0.0, 0.0)
        r_s = self.resistances[:, s]
        r_t = self.resistances[:, t]
        lower = float(np.max(np.abs(r_s - r_t)))
        upper = float(np.min(r_s + r_t))
        # Solver round-off can leave lower a hair above upper on exact hits.
        if lower > upper:
            lower = upper = 0.5 * (lower + upper)
        return SketchAnswer(lower, upper)

    def mark_stale(self) -> None:
        """Flag the sketch as built for an older graph epoch.

        A stale sketch refuses to answer (``query`` returns None) until the
        owner rebuilds it — its landmark resistances were exact for a graph
        that no longer exists, so serving them would silently break the
        ε guarantee.  The refresh policy (eager / on-next-read / budgeted)
        lives in :class:`~repro.service.server.ResistanceService`, which owns
        the rebuild.
        """
        self.stale = True

    def gap(self, s: int, t: int) -> Optional[float]:
        """The envelope half-width for ``(s, t)``, or None when stale.

        A planning probe, not a lookup: no stats are touched, so the adaptive
        planner can consult the sketch's tightness for every query without
        distorting the hit-rate counters.  ``gap(s, t) <= ε`` iff
        :meth:`query` would answer at ε.
        """
        if self.stale:
            return None
        return self.bounds(s, t).half_width

    def query(self, s: int, t: int, epsilon: float) -> Optional[SketchAnswer]:
        """Return the envelope iff its midpoint is a valid ε-answer, else None.

        A sketch marked stale (see :meth:`mark_stale`) never answers.
        """
        epsilon = check_positive(epsilon, "epsilon")
        if self.stale:
            return None
        answer = self.bounds(s, t)
        self.stats.lookups += 1
        if not answer.answers(epsilon):
            return None
        self.stats.hits += 1
        if self.is_landmark(s) or self.is_landmark(t):
            self.stats.exact_hits += 1
        return answer

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(landmarks={self.num_landmarks}, "
            f"strategy={self.strategy!r}, n={self.graph.num_nodes})"
        )


__all__ = ["SketchAnswer", "SketchStats", "LandmarkSketchStore", "LANDMARK_STRATEGIES"]
