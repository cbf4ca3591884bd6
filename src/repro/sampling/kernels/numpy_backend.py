"""Reference numpy walk kernels.

This module is the *definition* of the walk arithmetic: every other
backend must reproduce these kernels bit-for-bit (DESIGN.md Contract 9).
``scores_block`` sums visited-node weights step by step in eight lane
vectors that copy numpy's own pairwise sum, so its scores equal
``weights[walk_matrix].sum(axis=1)`` bit-for-bit (Contract 1) with
``8 · num_walks`` floats of score memory.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.kernels import WalkKernelState, _pairwise_plan
from repro.utils.rng import random_choice_csr


class NumpyWalkBackend:
    """The always-available pure-numpy backend."""

    name = "numpy"

    def advance(
        self,
        state: WalkKernelState,
        nodes: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One lock-step transition for ``nodes``; draws ``rng.random(len(nodes))``.

        The engine constructor has already rejected isolated nodes, so the
        kernel skips re-deriving degrees from ``indptr`` and the per-step
        isolated check — both value-preserving optimisations (the drawn
        offsets are bit-identical to the checked public kernel).
        """
        if state.uniform_degree is not None:
            degree = state.uniform_degree
            starts = state.indptr[nodes]
            draws = rng.random(len(nodes))
            draws *= float(degree)
            offsets = draws.astype(np.int64)
            np.minimum(offsets, degree - 1, out=offsets)
            starts += offsets
            return state.indices[starts]
        if state.alias_prob is not None:
            # Weighted step: the slot draw consumes exactly one uniform per
            # walk (same stream schedule as the unweighted kernel, which is
            # what keeps the chunked driver's `advance` bookkeeping valid);
            # the fractional part runs the Vose acceptance test.
            starts = state.indptr[nodes]
            degrees = state.degrees_float[nodes]
            draws = rng.random(len(nodes))
            draws *= degrees
            offsets = draws.astype(np.int64)
            np.minimum(offsets, degrees.astype(np.int64) - 1, out=offsets)
            frac = draws - offsets
            positions = starts + offsets
            return np.where(
                frac < state.alias_prob[positions],
                state.indices[positions],
                state.alias_node[positions],
            )
        return random_choice_csr(
            rng,
            state.indptr,
            state.indices,
            nodes,
            degrees=state.degrees_float,
            checked=False,
        )

    def scores_block(
        self,
        state: WalkKernelState,
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
        global stream.  Each leaf of :func:`_pairwise_plan` is summed step by
        step in eight lane vectors that replay numpy's ``DOUBLE_pairwise_sum``,
        and the leaf totals merge ``left + right`` in recursion order —
        reproducing ``weights[matrix].sum(axis=1)`` bit-for-bit in
        ``8 · num_walks`` floats of score memory.
        """
        leaves, merges = _pairwise_plan(length)
        indptr, indices = state.indptr, state.indices
        uniform = state.uniform_degree
        current = np.full(num_walks, start, dtype=np.int64)
        draws = np.empty(num_walks, dtype=np.float64)
        stack: list[np.ndarray] = []
        for leaf_length, merge_count in zip(leaves, merges):
            # DOUBLE_pairwise_sum on a leaf of n: columns below n - n % 8
            # (none when n < 8) feed lane c % 8, the eight lanes combine as a
            # fixed tree, and the remaining columns add in order.
            unrolled = 0 if leaf_length < 8 else leaf_length - leaf_length % 8
            lanes: list[np.ndarray] = []
            total = None
            for column in range(leaf_length):
                rng.random(out=draws)
                if stream_skip:
                    rng.bit_generator.advance(stream_skip)
                # No clamp to degree - 1: the largest draw is 1 - 2**-53 and
                # fl((1 - 2**-53) * d) < d for every integer d < 2**53; the
                # offset grows with the draw, so no draw reaches d.
                if uniform is None:
                    draws *= state.degrees_float[current]
                else:
                    draws *= uniform
                offsets = draws.astype(np.int64)
                positions = indptr[current]
                positions += offsets
                if state.alias_prob is None:
                    current = indices[positions]
                else:
                    # Vose acceptance on the draw's fractional part.
                    current = np.where(
                        draws - offsets < state.alias_prob[positions],
                        indices[positions],
                        state.alias_node[positions],
                    )
                visited = weights[current]
                if column < unrolled:
                    if column < 8:
                        lanes.append(visited)
                    else:
                        lanes[column % 8] += visited
                    if column == unrolled - 1:
                        l0, l1, l2, l3, l4, l5, l6, l7 = lanes
                        total = ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
                elif total is None:
                    total = visited  # numpy starts at -0.0, and -0.0 + x == x
                else:
                    total += visited
            # numpy's identity add: 0.0 + res turns a -0.0 total into +0.0.
            total += 0.0
            for _ in range(merge_count):
                right = total
                total = stack.pop()
                total += right
            stack.append(total)
        assert len(stack) == 1
        out[:] = stack[0]


NUMPY_BACKEND = NumpyWalkBackend()

__all__ = ["NUMPY_BACKEND", "NumpyWalkBackend"]
