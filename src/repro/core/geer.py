"""GEER — greedy integration of SMM and AMC (Algorithm 3).

GEER splits the truncated effective resistance ``r_ℓ(s, t)`` at a switch point
``ℓ_b`` (Eq. (16)): the head ``r*_b`` (walk lengths ``0..ℓ_b``) is computed
deterministically with SMM, and the tail ``r*_f`` (lengths ``ℓ_b+1..ℓ``) is
estimated by AMC *seeded with the SMM propagation vectors* ``s*``, ``t*``.
Because the entries of those vectors are small and spread out, the range
parameter ψ and the empirical variance of the AMC scores collapse, which is
where GEER's order-of-magnitude speedups over plain AMC come from
(Section 4.1.2).

The switch point is chosen greedily (Eq. (17)): SMM keeps iterating while the
cost of its next iteration (the degree mass of the current frontier) is below
the worst-case number of random-walk samples AMC would need for the remaining
tail.  An explicit ``force_smm_iterations`` override reproduces the Fig. 10
ablation.
"""

from __future__ import annotations

import math
from typing import Optional

import scipy.sparse as sp

from repro.core.amc import amc_estimate
from repro.core.registry import register_method
from repro.core.result import EstimateResult
from repro.core.smm import SMMState
from repro.core.walk_length import refined_walk_length
from repro.graph.graph import Graph
from repro.sampling.concentration import amc_psi, amc_sample_budget
from repro.sampling.walks import RandomWalkEngine
from repro.utils.rng import RngLike
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_integer,
    check_node_pair,
    check_positive,
    check_probability,
)


def _worst_case_walk_budget(
    tail_length: int,
    top_two: tuple[float, float, float, float],
    degree_s: float,
    degree_t: float,
    epsilon: float,
    delta: float,
    num_batches: int,
) -> int:
    """``h(ℓ - ℓ_b)``: the total walks AMC may need for the remaining tail.

    ``h = (2^τ - 1) ⌈η* / 2^(τ-1)⌉`` (Section 3.3.2), with η* computed from
    the ψ of the *current* propagation vectors; ``top_two`` is their
    ``(s_max1, s_max2, t_max1, t_max2)`` (:meth:`SMMState.top_two_values`).
    Since the ceiling adds less than one, ``h < 2 η* + 2^τ - 1``; ``h < 2 η*``
    fails when it rounds a small η* up (η* = 3, τ = 5 gives h = 31).  AMC's
    skipped futile batches make the real worst case cheaper, but h picks ℓ_b
    through Eq. (17), so it stays the paper's count (DESIGN.md Contract 11).
    """
    if tail_length <= 0:
        return 0
    psi = amc_psi(tail_length, degree_s, degree_t, *top_two)
    if psi == 0.0:
        return 0
    eta_star = amc_sample_budget(psi, epsilon, delta, num_batches)
    first_batch = max(1, math.ceil(eta_star / 2 ** (num_batches - 1)))
    return (2**num_batches - 1) * first_batch


def geer_query(
    graph: Graph,
    s: int,
    t: int,
    *,
    epsilon: float,
    lambda_max_abs: float,
    num_batches: int = 5,
    delta: float = 0.01,
    rng: RngLike = None,
    engine: Optional[RandomWalkEngine] = None,
    transition: Optional[sp.csr_matrix] = None,
    walk_length: Optional[int] = None,
    force_smm_iterations: Optional[int] = None,
    max_total_steps: Optional[int] = None,
    walk_chunk_size: Optional[int] = None,
) -> EstimateResult:
    """Answer an ε-approximate PER query with GEER (Algorithm 3).

    Parameters
    ----------
    lambda_max_abs:
        ``λ = max(|λ₂|, |λ_n|)`` from the one-off preprocessing step
        (:func:`repro.linalg.spectral_radius_second`).
    transition:
        Optional pre-built transition matrix, reused across queries in sweeps.
    walk_length:
        Override for ℓ (defaults to the refined bound of Eq. (6)).
    force_smm_iterations:
        Fix ℓ_b instead of using the greedy rule — used by the Fig. 10 ablation.
    max_total_steps:
        Optional safety cap forwarded to the AMC stage (see
        :func:`repro.core.amc.amc_estimate`).
    walk_chunk_size:
        Optional memory bound on the fused AMC scoring kernel (bit-identical
        to the unchunked kernel; see
        :meth:`repro.sampling.walks.RandomWalkEngine.walk_scores`).
    """
    s, t = check_node_pair(s, t, graph.num_nodes)
    epsilon = check_positive(epsilon, "epsilon")
    delta = check_probability(delta, "delta")
    num_batches = check_integer(num_batches, "num_batches", minimum=1)

    timer = Timer()
    with timer:
        if s == t:
            return EstimateResult(
                value=0.0, method="geer", s=s, t=t, epsilon=epsilon,
            )
        deg_s = float(graph.weighted_degrees[s])
        deg_t = float(graph.weighted_degrees[t])
        if walk_length is None:
            walk_length = refined_walk_length(epsilon, lambda_max_abs, deg_s, deg_t)
        walk_length = check_integer(walk_length, "walk_length", minimum=0)

        state = SMMState(graph, s, t, transition=transition)

        if force_smm_iterations is not None:
            target = check_integer(force_smm_iterations, "force_smm_iterations", minimum=0)
            target = min(target, walk_length)
            state.run(target)
        else:
            # Greedy switch (Lines 5-9): keep iterating SMM while its next
            # iteration is cheaper than the remaining AMC sampling budget.
            while state.iterations < walk_length:
                budget = _worst_case_walk_budget(
                    walk_length - state.iterations,
                    state.top_two_values(),
                    deg_s,
                    deg_t,
                    epsilon,
                    delta,
                    num_batches,
                )
                if state.next_iteration_cost() > budget:
                    break
                state.step()

        switch_point = state.iterations
        tail_length = walk_length - switch_point
        amc_result = amc_estimate(
            graph,
            s,
            t,
            state.s_vector(),
            state.t_vector(),
            epsilon=epsilon,
            walk_length=tail_length,
            num_batches=num_batches,
            delta=delta,
            rng=rng,
            engine=engine,
            max_total_steps=max_total_steps,
            walk_chunk_size=walk_chunk_size,
        )
        value = state.estimate + amc_result.value

    return EstimateResult(
        value=value,
        method="geer",
        s=s,
        t=t,
        epsilon=epsilon,
        walk_length=walk_length,
        smm_iterations=switch_point,
        num_walks=amc_result.num_walks,
        num_batches=amc_result.num_batches,
        total_steps=amc_result.total_steps,
        spmv_operations=state.spmv_operations,
        elapsed_seconds=timer.elapsed,
        budget_exhausted=amc_result.budget_exhausted,
        details={
            "switch_point": switch_point,
            "smm_value": state.estimate,
            "amc_value": amc_result.value,
            "psi": amc_result.psi,
            "eta_star": amc_result.eta_star,
            "empirical_error": amc_result.empirical_error,
            "skipped_batches": amc_result.skipped_batches,
        },
    )


# --------------------------------------------------------------------------- #
# registry adapter
# --------------------------------------------------------------------------- #
def _geer_registry_query(context, s: int, t: int, epsilon: float, **kwargs) -> EstimateResult:
    kwargs.setdefault("walk_chunk_size", context.budget.walk_chunk_size)
    kwargs.setdefault("engine", context.engine)
    kwargs.setdefault("transition", context.transition)
    return geer_query(
        context.graph,
        s,
        t,
        epsilon=epsilon,
        lambda_max_abs=context.lambda_max_abs,
        num_batches=context.num_batches,
        delta=context.delta,
        **kwargs,
    )


register_method(
    "geer",
    description="Algorithm 3: greedy SMM/AMC hybrid — the paper's fastest method",
    walk_length_param="walk_length",
    walk_length_kind="refined",
    parallel_seed="engine",
    func=_geer_registry_query,
)

__all__ = ["geer_query"]
