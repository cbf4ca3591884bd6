"""Vectorised truncated random-walk engine.

Every Monte Carlo estimator in the paper (MC, MC2, TP, TPC, AMC and the AMC
stage of GEER) boils down to simulating many independent simple random walks.
A pure-Python step loop is far too slow, so the engine advances *all* walks of
a batch simultaneously: one step for ``k`` walks is a single vectorised gather
into the CSR ``indices`` array.

Three access patterns are provided:

* :meth:`RandomWalkEngine.walk_scores` **fuses stepping and score
  accumulation**: walks are advanced in lock-step and every visited node's
  weight is folded into a per-walk running score, so the caller never
  materialises a walk matrix.  This is the hot kernel behind AMC and GEER's
  tail stage — score memory is eight lane vectors, ``8 · num_walks`` floats,
  instead of the ``O(num_walks · length)`` of the materialised path, and an
  optional chunked driver (``chunk_size``) bounds it further by processing
  walks in slabs.  Both modes are **bit-identical** to scoring a
  materialised walk matrix under the same seed — see *Determinism* below.
* :meth:`RandomWalkEngine.walk_matrix` materialises the full ``(k, length)``
  matrix of visited nodes — kept for callers that genuinely need every
  visited node, and as the reference the fused kernel is tested against.
* :meth:`RandomWalkEngine.walk_endpoints` only tracks the current frontier —
  enough for TP/TPC style endpoint statistics and much lighter on memory.

A slow, step-by-step reference implementation (:meth:`walk_single_python`) is
kept for cross-checking the vectorised kernel in the test-suite.

Determinism
-----------
The engine upholds two exact-equivalence contracts (see DESIGN.md):

1. **Fused ≡ materialised.**  ``walk_scores(s, k, ℓ, w)`` consumes the random
   stream exactly like ``walk_matrix(s, k, ℓ)`` (one ``rng.random(k)`` draw
   per step) and accumulates scores with the same floating-point association
   as ``w[matrix].sum(axis=1)`` — NumPy's pairwise summation is replayed
   step by step in eight lane vectors per leaf — so the returned scores are
   bit-for-bit identical to the materialised computation.
2. **Chunked ≡ unchunked.**  With ``chunk_size`` set, walks are processed in
   slabs, but each slab's generator is *advanced* to the exact offsets the
   unchunked kernel would have used (``PCG64.advance``), so every walk sees
   the very same draws and the result is bit-identical to ``chunk_size=None``,
   the main generator's state afterwards included (its buffered 32-bit half
   too, see :func:`~repro.utils.rng.skip_doubles`).  Bit generators whose
   ``advance`` does not count doubles (Philox) or that have none (MT19937,
   SFC64) fall back to a single chunk rather than silently changing the walks.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.fault import FAULTS
from repro.graph.graph import Graph
from repro.obs import NULL_OBS, Observability
from repro.sampling.kernels import WalkKernelState, _pairwise_plan, resolve_backend
from repro.utils.rng import RngLike, as_generator, skip_doubles
from repro.utils.validation import check_integer, check_node


def _build_alias_tables(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node Vose alias tables for weight-proportional neighbour sampling.

    Returns CSR-aligned arrays ``(prob, alias_node)``: slot ``k`` of node
    ``v``'s row accepts its own neighbour ``indices[k]`` when the draw's
    fractional part is below ``prob[k]`` and redirects to ``alias_node[k]``
    otherwise.  Construction is ``O(d(v))`` per node, ``O(m)`` total; the
    expected per-slot probability mass is exactly ``w / Σw`` up to float
    round-off.  The result is memoised on the (immutable) graph, so the cost
    is paid once per graph no matter how many engines are built on it (a
    parallel QueryPlan builds one engine per query).
    """
    cached = graph._alias_cache
    if cached is not None:
        return cached
    indptr = graph.indptr
    indices = graph.indices
    weights = graph.weights
    prob = np.ones(len(indices), dtype=np.float64)
    alias_node = indices.copy()
    # Normalised slot masses for every row in one vectorised pass: slot k of
    # node v carries scaled[k] = w[k] · d(v) / Σ_row w.
    degrees = graph.degrees
    all_scaled = weights * np.repeat(
        degrees / np.maximum(graph.weighted_degrees, 1e-300), degrees
    )
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        _fill_alias_row(prob, alias_node, indices, int(lo), int(hi), all_scaled[lo:hi])
    prob.setflags(write=False)
    alias_node.setflags(write=False)
    graph._alias_cache = (prob, alias_node)
    return prob, alias_node


def _fill_alias_row(
    prob: np.ndarray,
    alias_node: np.ndarray,
    indices: np.ndarray,
    lo: int,
    hi: int,
    scaled: np.ndarray,
) -> None:
    """Run Vose's construction on one CSR row (slots default to self-accept)."""
    degree = hi - lo
    if degree <= 1:
        return
    small = [k for k in range(degree) if scaled[k] < 1.0]
    if not small:
        return  # uniform row: every slot accepts itself
    large = [k for k in range(degree) if scaled[k] >= 1.0]
    remaining = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[lo + s] = remaining[s]
        alias_node[lo + s] = indices[lo + g]
        remaining[g] = (remaining[g] + remaining[s]) - 1.0
        if remaining[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    # leftovers (round-off) keep prob = 1.0: the slot always accepts itself
    for k in small + large:
        prob[lo + k] = 1.0
        alias_node[lo + k] = indices[lo + k]


def patch_alias_tables(
    old_graph: Graph, new_graph: Graph, touched_nodes: np.ndarray
) -> None:
    """Carry ``old_graph``'s memoised alias tables onto ``new_graph``.

    ``new_graph`` must be ``old_graph`` after an edge delta whose endpoints
    are exactly ``touched_nodes``: untouched rows (same neighbours, same
    weights, same weighted degree) have their alias slots copied verbatim,
    touched rows re-run Vose's construction with the same per-row arithmetic
    as :func:`_build_alias_tables` — so the patched tables are **bit-identical**
    to a cold build on ``new_graph`` (the delta ≡ rebuild contract).  No-op
    when the old graph never built its tables (nothing warm to preserve) or
    the new graph is unweighted.
    """
    from repro.graph.delta import untouched_arc_masks

    cached = old_graph._alias_cache
    if cached is None or not new_graph.is_weighted:
        return
    old_prob, old_alias = cached
    untouched_old, untouched_new, touched_mask = untouched_arc_masks(
        old_graph, new_graph, touched_nodes
    )
    prob = np.ones(len(new_graph.indices), dtype=np.float64)
    alias_node = new_graph.indices.copy()
    prob[untouched_new] = old_prob[untouched_old]
    alias_node[untouched_new] = old_alias[untouched_old]
    indptr = new_graph.indptr
    indices = new_graph.indices
    weights = new_graph.weights
    degrees = new_graph.degrees
    weighted_degrees = new_graph.weighted_degrees
    for node in np.flatnonzero(touched_mask):
        lo, hi = int(indptr[node]), int(indptr[node + 1])
        # Same per-element arithmetic as the full build's vectorised pass:
        # scaled[k] = w[k] · (d(v) / max(Σ_row w, 1e-300)).
        ratio = degrees[node] / np.maximum(weighted_degrees[node], 1e-300)
        _fill_alias_row(prob, alias_node, indices, lo, hi, weights[lo:hi] * ratio)
    prob.setflags(write=False)
    alias_node.setflags(write=False)
    new_graph._alias_cache = (prob, alias_node)


class RandomWalkEngine:
    """Simulates random walks on a :class:`Graph` using CSR gathers.

    On weighted graphs each step is weight-proportional
    (``P(v → u) = w(v, u) / d(v)``), implemented with per-node **alias
    tables** so a batch step stays a constant number of vectorised gathers:
    one uniform draw per walk selects a slot (exactly like the unweighted
    kernel) and the alias probability/partner arrays redirect the slot with
    the Vose acceptance test.  Unweighted graphs never build the tables and
    run the original kernel bit-for-bit.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        rng: RngLike = None,
        obs: Optional["Observability"] = None,
        kernel_backend: str = "auto",
    ) -> None:
        if graph.num_nodes == 0:
            raise ValueError("cannot walk on an empty graph")
        if np.any(graph.degrees == 0):
            raise ValueError("cannot walk on a graph with isolated nodes")
        self._graph = graph
        self._indptr = graph.indptr
        self._indices = graph.indices
        # Degree metadata is derived once: the float copy feeds the offset
        # multiply without a per-step int→float conversion pass, and a
        # uniform-degree graph (cycles, complete graphs, tori) skips the
        # per-step degree gather entirely.  Both paths draw identical offsets.
        self._degrees_float = graph.degrees.astype(np.float64)
        first_degree = int(graph.degrees[0])
        self._uniform_degree: Optional[int] = (
            first_degree
            if not graph.is_weighted and np.all(graph.degrees == first_degree)
            else None
        )
        if graph.is_weighted:
            self._alias_prob, self._alias_node = _build_alias_tables(graph)
        else:
            self._alias_prob = None
            self._alias_node = None
        # Kernel backend: "numpy" is the reference implementation, "numba"
        # the optional compiled one (bit-identical by Contract 9), "auto"
        # picks numba when importable.  Resolution is cached module-wide and
        # falls back to numpy (with a one-time warning when explicit), so
        # engine construction stays cheap and never fails on a missing
        # accelerator.  The state bundle hands the backend plain CSR arrays.
        self._kernels = resolve_backend(kernel_backend)
        self.kernel_backend = self._kernels.name
        self._kernel_state = WalkKernelState(
            indptr=self._indptr,
            indices=self._indices,
            degrees_float=self._degrees_float,
            uniform_degree=self._uniform_degree,
            alias_prob=self._alias_prob,
            alias_node=self._alias_node,
        )
        self._rng = as_generator(rng)
        self.total_steps = 0  # cumulative number of single-node transitions taken
        #: Observability bundle; spans only open when its tracer is active, so
        #: the default NULL_OBS costs one attribute read per walk_scores call.
        #: Instrumentation never draws from ``rng`` (DESIGN.md Contract 6).
        self.obs = obs if obs is not None else NULL_OBS

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    # ------------------------------------------------------------------ #
    # batch kernels
    # ------------------------------------------------------------------ #
    def _advance(
        self, nodes: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """One lock-step transition for ``nodes``; draws ``rng.random(len(nodes))``.

        The constructor has already rejected isolated nodes, so the kernel
        skips re-deriving degrees from ``indptr`` and the per-step isolated
        check — both value-preserving optimisations (the drawn offsets are
        bit-identical to the checked public kernel).
        """
        generator = self._rng if rng is None else rng
        return self._kernels.advance(self._kernel_state, nodes, generator)

    def step(self, nodes: np.ndarray) -> np.ndarray:
        """Advance every walk currently at ``nodes`` by one step."""
        nodes = np.asarray(nodes, dtype=np.int64)
        self.total_steps += len(nodes)
        return self._advance(nodes)

    def walk_matrix(self, start: int, num_walks: int, length: int) -> np.ndarray:
        """Simulate ``num_walks`` walks of ``length`` steps from ``start``.

        Returns an ``(num_walks, length)`` matrix whose column ``i`` holds the
        node visited after ``i + 1`` steps (the start node itself is *not*
        included, matching the walk definition in Algorithm 1 / Lemma 3.3).
        """
        start = check_node(start, self._graph.num_nodes, "start")
        check_integer(num_walks, "num_walks", minimum=0)
        check_integer(length, "length", minimum=0)
        if num_walks == 0 or length == 0:
            return np.empty((num_walks, length), dtype=np.int64)
        visits = np.empty((num_walks, length), dtype=np.int64)
        current = np.full(num_walks, start, dtype=np.int64)
        for i in range(length):
            current = self._advance(current)
            self.total_steps += num_walks
            visits[:, i] = current
        return visits

    def walk_scores(
        self,
        start: int,
        num_walks: int,
        length: int,
        weights: np.ndarray,
        *,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Fused walk simulation and scoring (the AMC/GEER hot kernel).

        Returns the length-``num_walks`` vector whose entry ``k`` equals
        ``weights[walk_matrix(start, num_walks, length)[k]].sum()`` — the
        per-walk sum of visited-node weights of Algorithm 1 — **bit-for-bit**,
        without ever materialising the walk matrix.  Scores are summed in
        eight lane vectors, ``8 · num_walks`` floats, or ``8 · chunk_size``
        when ``chunk_size`` bounds the number of walks in flight (the huge
        ``η*`` regimes of Figs. 8–9).

        Parameters
        ----------
        weights:
            Dense length-``n`` weight vector ``w`` scoring visited nodes.
        chunk_size:
            Optional bound on the number of simultaneous walks.  Chunking
            preserves the exact draw assignment of the unchunked kernel by
            advancing a cloned generator to each slab's stream offsets, so
            results are identical for every chunk size (requires a PCG64 or
            PCG64DXSM bit generator — ``default_rng``'s qualifies; others
            fall back to one chunk, see :func:`~repro.utils.rng.skip_doubles`).
        """
        start = check_node(start, self._graph.num_nodes, "start")
        check_integer(num_walks, "num_walks", minimum=0)
        check_integer(length, "length", minimum=0)
        if chunk_size is not None:
            chunk_size = check_integer(chunk_size, "chunk_size", minimum=1)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self._graph.num_nodes,):
            raise ValueError("weights must be a length-n vector")
        if num_walks == 0 or length == 0:
            return np.zeros(num_walks, dtype=np.float64)
        tracer = self.obs.tracer
        if (
            chunk_size is None
            or chunk_size >= num_walks
            or not skip_doubles(self._rng, 0)
        ):
            scores = np.empty(num_walks, dtype=np.float64)
            with tracer.span(
                "walk:scores", start=start, walks=num_walks, length=length, chunks=1
            ):
                self._scores_block(
                    start, num_walks, length, weights, self._rng, 0, scores
                )
            self.total_steps += num_walks * length
            return scores
        scores = np.empty(num_walks, dtype=np.float64)
        base = self._rng.bit_generator
        with tracer.span(
            "walk:scores",
            start=start,
            walks=num_walks,
            length=length,
            chunks=-(-num_walks // chunk_size),
        ):
            for lo in range(0, num_walks, chunk_size):
                hi = min(lo + chunk_size, num_walks)
                # A cloned generator advanced to the slab's first stream offset;
                # _scores_block skips the other slabs' draws after every step, so
                # walk k consumes the exact double the unchunked kernel would
                # have handed it (stream position step·num_walks + k).
                child = np.random.Generator(type(base)())
                child.bit_generator.state = base.state
                child.bit_generator.advance(lo)
                FAULTS.check("walk:chunk_fault")
                with tracer.span("walk:chunk", lo=lo, hi=hi):
                    self._scores_block(
                        start, hi - lo, length, weights, child,
                        num_walks - (hi - lo), scores[lo:hi],
                    )
                self.total_steps += (hi - lo) * length
        # The main stream consumed nothing directly; move it past the draws
        # the slabs used so subsequent calls see the unchunked stream state.
        skip_doubles(self._rng, num_walks * length)
        return scores

    def _scores_block(
        self,
        start: int,
        num_walks: int,
        length: int,
        weights: np.ndarray,
        rng: np.random.Generator,
        stream_skip: int,
        out: np.ndarray,
    ) -> None:
        """Advance ``num_walks`` walks for ``length`` steps, scoring as we go.

        ``stream_skip`` > 0 (chunked mode) advances ``rng`` past the other
        slabs' draws after every step so the slab stays aligned with the
        global stream.  Scores follow NumPy's exact pairwise reduction tree
        (:func:`_pairwise_plan`): each leaf is summed step by step in eight
        lane vectors that replay NumPy's leaf sum, and the leaf totals merge
        ``left + right`` in recursion order — reproducing
        ``weights[matrix].sum(axis=1)`` bit-for-bit in ``8 · num_walks``
        floats.
        """
        self._kernels.scores_block(
            self._kernel_state, start, num_walks, length, weights, rng,
            stream_skip, out,
        )

    def walk_endpoints(self, start: int, num_walks: int, length: int) -> np.ndarray:
        """End nodes of ``num_walks`` independent length-``length`` walks from ``start``."""
        start = check_node(start, self._graph.num_nodes, "start")
        check_integer(num_walks, "num_walks", minimum=0)
        check_integer(length, "length", minimum=0)
        current = np.full(num_walks, start, dtype=np.int64)
        if num_walks == 0 or length == 0:
            return current
        for _ in range(length):
            current = self._advance(current)
            self.total_steps += num_walks
        return current

    def hitting_walks(
        self,
        start: int,
        target: int,
        num_walks: int,
        *,
        max_steps: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Simulate ``num_walks`` walks from ``start`` until each hits ``target``.

        All walks advance in lock-step (one vectorised gather per step for the
        still-active walks), which is what makes the MC / MC2 baselines usable
        at laptop scale.

        Returns
        -------
        (hit_steps, previous_nodes):
            ``hit_steps[k]`` is the number of steps walk ``k`` took to reach
            ``target`` (``-1`` if it did not within ``max_steps``);
            ``previous_nodes[k]`` is the node it was at immediately before the
            arriving step (undefined, ``-1``, for walks that never arrived).
        """
        start = check_node(start, self._graph.num_nodes, "start")
        target = check_node(target, self._graph.num_nodes, "target")
        check_integer(num_walks, "num_walks", minimum=0)
        check_integer(max_steps, "max_steps", minimum=1)
        hit_steps = -np.ones(num_walks, dtype=np.int64)
        previous_nodes = -np.ones(num_walks, dtype=np.int64)
        if num_walks == 0:
            return hit_steps, previous_nodes
        active_ids = np.arange(num_walks)
        current = np.full(num_walks, start, dtype=np.int64)
        for step_index in range(1, max_steps + 1):
            nxt = self.step(current)
            arrived = nxt == target
            if np.any(arrived):
                arrived_ids = active_ids[arrived]
                hit_steps[arrived_ids] = step_index
                previous_nodes[arrived_ids] = current[arrived]
                keep = ~arrived
                active_ids = active_ids[keep]
                current = nxt[keep]
            else:
                current = nxt
            if len(active_ids) == 0:
                break
        return hit_steps, previous_nodes

    def walk_until(
        self,
        start: int,
        targets: Iterable[int],
        *,
        max_steps: int,
    ) -> tuple[int, int, int]:
        """Walk from ``start`` until any node in ``targets`` is hit (or ``max_steps``).

        Returns ``(hit_node, steps_taken, previous_node)`` where ``hit_node`` is
        ``-1`` if no target was reached within the step budget.  Used by the
        MC and MC2 baselines whose walks have no a-priori length bound.
        """
        start = check_node(start, self._graph.num_nodes, "start")
        check_integer(max_steps, "max_steps", minimum=1)
        target_set = set(int(t) for t in targets)
        current = start
        previous = start
        for step_index in range(1, max_steps + 1):
            nxt = int(self.step(np.array([current], dtype=np.int64))[0])
            previous, current = current, nxt
            if current in target_set:
                return current, step_index, previous
        return -1, max_steps, previous

    # ------------------------------------------------------------------ #
    # reference implementation (for tests)
    # ------------------------------------------------------------------ #
    def walk_single_python(self, start: int, length: int) -> list[int]:
        """Step-by-step pure-Python walk; slow but obviously correct."""
        start = check_node(start, self._graph.num_nodes, "start")
        check_integer(length, "length", minimum=0)
        path = []
        current = start
        for _ in range(length):
            neighbors = self._graph.neighbors(current)
            if self._graph.is_weighted:
                # inverse-CDF sampling over the row weights — an independent
                # formulation the alias kernel is cross-checked against
                row_weights = self._graph.neighbor_weights(current)
                cumulative = np.cumsum(row_weights)
                draw = self._rng.random() * cumulative[-1]
                position = int(np.searchsorted(cumulative, draw, side="right"))
                current = int(neighbors[min(position, len(neighbors) - 1)])
            else:
                current = int(neighbors[self._rng.integers(0, len(neighbors))])
            path.append(current)
        self.total_steps += length
        return path


def simulate_walks(
    graph: Graph,
    start: int,
    num_walks: int,
    length: int,
    *,
    rng: RngLike = None,
) -> np.ndarray:
    """Functional shortcut for :meth:`RandomWalkEngine.walk_matrix`."""
    return RandomWalkEngine(graph, rng=rng).walk_matrix(start, num_walks, length)


def walk_endpoints(
    graph: Graph,
    start: int,
    num_walks: int,
    length: int,
    *,
    rng: RngLike = None,
) -> np.ndarray:
    """Functional shortcut for :meth:`RandomWalkEngine.walk_endpoints`."""
    return RandomWalkEngine(graph, rng=rng).walk_endpoints(start, num_walks, length)


def walk_scores(
    graph: Graph,
    start: int,
    num_walks: int,
    length: int,
    weights: np.ndarray,
    *,
    rng: RngLike = None,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """Functional shortcut for :meth:`RandomWalkEngine.walk_scores`."""
    return RandomWalkEngine(graph, rng=rng).walk_scores(
        start, num_walks, length, weights, chunk_size=chunk_size
    )


__all__ = [
    "RandomWalkEngine",
    "patch_alias_tables",
    "simulate_walks",
    "walk_endpoints",
    "walk_scores",
]
