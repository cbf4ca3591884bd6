"""Property tests of the fused/chunked walk-scoring kernel's exact contracts.

The two determinism contracts (DESIGN.md) are tested with **bit-for-bit**
equality, not tolerances:

1. fused ``walk_scores`` ≡ ``weights[walk_matrix].sum(axis=1)`` under the same
   seed (same draw sequence, same pairwise summation tree);
2. chunked ≡ unchunked for every chunk size, including the post-call random
   stream state (the chunked driver advances the main generator to exactly
   where unchunked execution would have left it, buffered 32-bit half and all).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.amc import amc_query
from repro.core.engine import QueryEngine
from repro.core.geer import geer_query
from repro.core.registry import QueryBudget, QueryContext
from repro.graph.builders import with_random_weights
from repro.graph.generators import barabasi_albert_graph, cycle_graph
from repro.sampling.walks import RandomWalkEngine, _pairwise_plan, walk_scores

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module", params=["unweighted", "weighted"])
def graph(request):
    """Both pipelines: the classic uniform kernel and the weighted alias kernel.

    Every exact-equivalence contract in this module (fused == materialised,
    chunked == unchunked, chunk-size invariance of AMC/GEER) must hold for
    weight-proportional steps too.
    """
    base = barabasi_albert_graph(200, 4, rng=5)
    if request.param == "weighted":
        return with_random_weights(base, rng=31)
    return base


@pytest.fixture(scope="module")
def weights(graph):
    return np.random.default_rng(17).random(graph.num_nodes) - 0.3


class TestPairwisePlan:
    @given(st.integers(1, 5000))
    @SETTINGS
    def test_leaves_cover_length_and_merges_balance(self, length):
        leaves, merges = _pairwise_plan(length)
        assert sum(leaves) == length
        assert all(1 <= leaf <= 128 for leaf in leaves)
        # post-order merge counts must collapse the stack to exactly one entry
        depth = 0
        for merge_count in merges:
            depth += 1
            depth -= merge_count
            assert depth >= 1
        assert depth == 1

    @given(st.integers(1, 2000), st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_plan_replays_numpy_reduction(self, length, seed):
        values = np.random.default_rng(seed).random((3, length)) - 0.5
        leaves, merges = _pairwise_plan(length)
        stack = []
        offset = 0
        for leaf, merge_count in zip(leaves, merges):
            partial = values[:, offset : offset + leaf].sum(axis=1)
            offset += leaf
            for _ in range(merge_count):
                right = partial
                partial = stack.pop()
                partial = partial + right
            stack.append(partial)
        assert np.array_equal(stack[0], values.sum(axis=1))


#: Scoring weights where the summation order shows: exact zeros of both
#: signs, subnormals, and magnitudes far enough apart that reassociating a
#: sum changes its last bits (or its sign of zero).
WEIGHT_PALETTE = (
    0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -0.7, 1.0, 3.25, 1e16, -1e16, 1e300,
)

#: Lengths at the edges of numpy's pairwise leaves: the running sum below 8,
#: the eight-lane unroll, the 128-element leaf and the first recursive split.
LEAF_EDGE_LENGTHS = (
    *range(1, 10), 15, 16, 17, 127, 128, 129, 255, 256, 257,
)

RING = cycle_graph(64)


class TestFusedEqualsMaterialised:
    @given(
        num_walks=st.integers(0, 300),
        length=st.one_of(st.integers(0, 200), st.sampled_from(LEAF_EDGE_LENGTHS)),
        seed=st.integers(0, 2**31 - 1),
        palette=st.one_of(
            st.none(),
            st.just([-0.0]),
            st.lists(st.sampled_from(WEIGHT_PALETTE), min_size=1, max_size=5),
        ),
        on_ring=st.booleans(),
        chunk_size=st.one_of(st.none(), st.integers(1, 300)),
    )
    @settings(SETTINGS, max_examples=60)
    def test_bit_identical_scores_and_step_counts(
        self, graph, weights, num_walks, length, seed, palette, on_ring, chunk_size
    ):
        # The numpy backend replays numpy's pairwise summation rather than
        # calling it, so a numpy release that changes that sum fails here.
        if on_ring:
            graph = RING
        if palette is not None:
            weights = np.random.default_rng(seed).choice(palette, graph.num_nodes)
        elif on_ring:
            weights = np.random.default_rng(seed).random(graph.num_nodes) - 0.3
        materialised = RandomWalkEngine(graph, rng=seed)
        fused = RandomWalkEngine(graph, rng=seed)
        expected = weights[materialised.walk_matrix(7, num_walks, length)].sum(axis=1)
        actual = fused.walk_scores(7, num_walks, length, weights, chunk_size=chunk_size)
        assert expected.tobytes() == actual.tobytes(), (
            f"fused scores differ from numpy {np.__version__}'s "
            "weights[walk_matrix].sum(axis=1)"
        )
        assert materialised.total_steps == fused.total_steps
        # both engines must leave the shared stream in the same state
        assert np.array_equal(materialised.rng.random(3), fused.rng.random(3))

    def test_long_walks_cross_pairwise_leaf_boundaries(self, graph, weights):
        # lengths around the 128-element pairwise leaf and above (recursive split)
        for length in (127, 128, 129, 256, 400, 517):
            reference = RandomWalkEngine(graph, rng=11)
            fused = RandomWalkEngine(graph, rng=11)
            expected = weights[reference.walk_matrix(0, 40, length)].sum(axis=1)
            assert np.array_equal(expected, fused.walk_scores(0, 40, length, weights))

    def test_uniform_degree_fast_path(self):
        ring = cycle_graph(50)
        ring_weights = np.random.default_rng(3).random(50)
        reference = RandomWalkEngine(ring, rng=9)
        fused = RandomWalkEngine(ring, rng=9)
        assert reference._kernel_state.uniform_degree == 2
        expected = ring_weights[reference.walk_matrix(4, 60, 30)].sum(axis=1)
        assert np.array_equal(expected, fused.walk_scores(4, 60, 30, ring_weights))

    def test_zero_walks_and_zero_length_draw_nothing(self, graph, weights):
        engine = RandomWalkEngine(graph, rng=1)
        before = engine.rng.bit_generator.state["state"]["state"]
        assert np.array_equal(engine.walk_scores(0, 0, 10, weights), np.zeros(0))
        assert np.array_equal(engine.walk_scores(0, 5, 0, weights), np.zeros(5))
        assert engine.walk_endpoints(0, 0, 10).shape == (0,)
        assert engine.walk_matrix(0, 0, 10).shape == (0, 10)
        assert engine.rng.bit_generator.state["state"]["state"] == before
        assert engine.total_steps == 0

    def test_weights_shape_validated(self, graph):
        engine = RandomWalkEngine(graph, rng=1)
        with pytest.raises(ValueError, match="length-n"):
            engine.walk_scores(0, 4, 3, np.ones(graph.num_nodes + 1))

    @pytest.mark.parametrize("num_walks", [0, 2, 5])
    @pytest.mark.parametrize("chunk_size", ["8", 2.5, 0])
    def test_chunk_size_validated_for_every_walk_count(
        self, graph, weights, num_walks, chunk_size
    ):
        engine = RandomWalkEngine(graph, rng=1)
        with pytest.raises(ValueError, match="chunk_size"):
            engine.walk_scores(0, num_walks, 3, weights, chunk_size=chunk_size)

    def test_largest_draw_never_reaches_the_degree(self):
        # The fused kernel truncates draw * degree without clamping to
        # degree - 1.  Generator.random() returns k * 2**-53, so its largest
        # value is 1 - 2**-53; the offset grows with the draw, so the largest
        # draw covers every draw.
        largest = np.nextafter(1.0, 0.0)
        assert largest == 1 - 2**-53
        for lo in range(1, 2**24, 2**20):
            degrees = np.arange(lo, min(lo + 2**20, 2**24), dtype=np.int64)
            offsets = (largest * degrees.astype(np.float64)).astype(np.int64)
            assert np.array_equal(offsets, degrees - 1)
        for k in range(1, 53):
            for d in (2**k - 1, 2**k, 2**k + 1):
                assert np.int64(largest * float(d)) == d - 1, d

    def test_functional_shortcut_matches_engine(self, graph, weights):
        from_engine = RandomWalkEngine(graph, rng=21).walk_scores(2, 25, 12, weights)
        from_function = walk_scores(graph, 2, 25, 12, weights, rng=21)
        assert np.array_equal(from_engine, from_function)


class TestChunkedEqualsUnchunked:
    @given(
        num_walks=st.integers(1, 200),
        length=st.integers(1, 150),
        chunk_size=st.integers(1, 250),
        seed=st.integers(0, 2**31 - 1),
        buffered=st.booleans(),
    )
    @SETTINGS
    def test_bit_identical_for_every_chunk_size(
        self, graph, weights, num_walks, length, chunk_size, seed, buffered
    ):
        unchunked = RandomWalkEngine(graph, rng=seed)
        chunked = RandomWalkEngine(graph, rng=seed)
        if buffered:
            # a 32-bit draw leaves half of a 64-bit output buffered in the state
            for engine in (unchunked, chunked):
                engine.rng.integers(0, 7, dtype=np.int32)
        expected = unchunked.walk_scores(3, num_walks, length, weights)
        actual = chunked.walk_scores(3, num_walks, length, weights, chunk_size=chunk_size)
        assert np.array_equal(expected, actual)
        assert unchunked.total_steps == chunked.total_steps
        # the chunked driver must leave the main stream exactly where the
        # unchunked kernel would have (subsequent draws stay aligned)
        assert unchunked.rng.bit_generator.state == chunked.rng.bit_generator.state
        assert unchunked.rng.integers(0, 2**32, dtype=np.uint32) == chunked.rng.integers(
            0, 2**32, dtype=np.uint32
        )
        assert np.array_equal(unchunked.rng.random(4), chunked.rng.random(4))

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_fallback_without_advance_support(self, graph, weights, bit_generator):
        # MT19937 and SFC64 have no advance(), and Philox's counts blocks of
        # four doubles: chunking falls back to a single chunk rather than
        # silently changing which draws feed which walk.
        legacy = np.random.Generator(bit_generator(5))
        reference = np.random.Generator(bit_generator(5))
        chunked = RandomWalkEngine(graph, rng=legacy).walk_scores(
            0, 50, 20, weights, chunk_size=7
        )
        unchunked = RandomWalkEngine(graph, rng=reference).walk_scores(
            0, 50, 20, weights
        )
        assert np.array_equal(chunked, unchunked)


class TestEstimatorsInvariantUnderChunking:
    """AMC and GEER estimates must not depend on the memory-bounding knob."""

    @pytest.mark.parametrize("chunk", [None, 3, 17, 1000])
    def test_amc_estimate_invariant(self, graph, chunk):
        context = QueryContext(graph, rng=0)
        lam = context.lambda_max_abs
        baseline = amc_query(
            graph, 0, 9, epsilon=0.5, lambda_max_abs=lam, rng=1234
        )
        chunked = amc_query(
            graph, 0, 9, epsilon=0.5, lambda_max_abs=lam, rng=1234,
            walk_chunk_size=chunk,
        )
        assert chunked.value == baseline.value

    @pytest.mark.parametrize("chunk", [None, 5, 64])
    def test_geer_query_invariant(self, graph, chunk):
        context = QueryContext(graph, rng=0)
        lam = context.lambda_max_abs
        baseline = geer_query(graph, 0, 9, epsilon=0.4, lambda_max_abs=lam, rng=77)
        chunked = geer_query(
            graph, 0, 9, epsilon=0.4, lambda_max_abs=lam, rng=77,
            walk_chunk_size=chunk,
        )
        assert chunked.value == baseline.value

    def test_session_after_buffered_draws_invariant(self):
        """HAY's spanning-tree draws (32-bit) leave half an output buffered in
        the session generator, which GEER's chunked walks must carry along."""
        graph = barabasi_albert_graph(300, 3, rng=5)
        edge = (0, int(graph.indices[graph.indptr[0]]))

        def session(chunk):
            engine = QueryEngine(graph, rng=11, budget=QueryBudget(walk_chunk_size=chunk))
            values = []
            for t in (100, 101, 102):
                values.append(engine.query(*edge, 0.3, method="hay").value.hex())
                values.append(engine.query(3, t, 0.05, method="geer").value.hex())
            return values

        assert session(64) == session(None)

    def test_budget_chunk_size_threads_through_registry(self, graph):
        tight = QueryContext(graph, rng=6, budget=QueryBudget(walk_chunk_size=4))
        loose = QueryContext(graph, rng=6, budget=QueryBudget(walk_chunk_size=None))
        from repro.core.registry import resolve_method

        spec = resolve_method("amc")
        assert (
            spec(tight, 0, 9, 0.5).value == spec(loose, 0, 9, 0.5).value
        )


class TestWeightedStepDistribution:
    """The alias kernel must realise exactly the weighted transition law."""

    def test_alias_tables_partition_probability_mass(self):
        from repro.sampling.walks import _build_alias_tables

        graph = with_random_weights(barabasi_albert_graph(80, 3, rng=2), rng=4)
        prob, alias_node = _build_alias_tables(graph)
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        for v in range(graph.num_nodes):
            lo, hi = int(indptr[v]), int(indptr[v + 1])
            degree = hi - lo
            # accumulate each neighbour's total mass across the slots
            mass = {int(u): 0.0 for u in indices[lo:hi]}
            for k in range(lo, hi):
                mass[int(indices[k])] += prob[k] / degree
                mass[int(alias_node[k])] += (1.0 - prob[k]) / degree
            row_total = weights[lo:hi].sum()
            for k in range(lo, hi):
                expected = weights[k] / row_total
                assert mass[int(indices[k])] == pytest.approx(expected, abs=1e-12)

    def test_step_frequencies_match_transition_matrix(self, weighted_triangle):
        engine = RandomWalkEngine(weighted_triangle, rng=8)
        starts = np.zeros(120_000, dtype=np.int64)
        ends = engine.step(starts)
        freq = np.bincount(ends, minlength=3) / len(ends)
        row = weighted_triangle.transition_matrix()[0].toarray().ravel()
        assert np.allclose(freq, row, atol=0.01)

    def test_python_reference_agrees_statistically(self, weighted_triangle):
        engine = RandomWalkEngine(weighted_triangle, rng=12)
        ends = np.array(
            [engine.walk_single_python(0, 1)[-1] for _ in range(40_000)]
        )
        freq = np.bincount(ends, minlength=3) / len(ends)
        row = weighted_triangle.transition_matrix()[0].toarray().ravel()
        assert np.allclose(freq, row, atol=0.02)

    @given(st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_hitting_walks_and_endpoints_share_weighted_kernel(self, seed):
        graph = with_random_weights(barabasi_albert_graph(40, 3, rng=6), rng=7)
        one = RandomWalkEngine(graph, rng=seed)
        two = RandomWalkEngine(graph, rng=seed)
        assert np.array_equal(
            one.walk_endpoints(0, 50, 9), two.walk_matrix(0, 50, 9)[:, -1]
        )
