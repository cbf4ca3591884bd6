"""AMC — the adaptive Monte Carlo estimator (Algorithm 1).

AMC estimates the tail quantity ``q(s, t)`` of Eq. (12): the sum over walk
lengths ``1..ℓ_f`` of the expected difference of the weight vector
``w = s/d(s) - t/d(t)`` under walks started at ``s`` versus walks started at
``t``.  Each sampled pair of walks contributes

``Z_k = Σ_{u ∈ S_k} w(u) - Σ_{u ∈ T_k} w(u)``

whose expectation is exactly ``q(s, t)`` (Eq. (13)).

Samples are drawn in τ doubling batches.  After every batch the empirical
Bernstein radius (Lemma 3.2) is compared against ``ε/2``: if the observed
variance is small — which happens early on well-connected graphs and almost
immediately when GEER feeds in smoothed vectors — AMC stops long before the
worst-case Hoeffding budget ``η*`` (Eq. (8)) is spent.  Per the paper, each new
batch discards the previous one (the samples must be i.i.d. for Lemma 3.2), so
the final batch alone determines the estimate.

A batch whose range term ``3ψ log(3τ/δ)/η`` alone exceeds ε/2 cannot stop
whatever its variance, so when a later batch is sure to run it is *futile*:
instead of walking it, the generator moves past the draws it would have used
(DESIGN.md Contract 11).  The answer, the reported schedule and the stream
state afterwards are those of running it; only the step counts, which count
walks actually taken, are smaller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.registry import register_method
from repro.core.result import EstimateResult
from repro.core.walk_length import refined_walk_length
from repro.graph.graph import Graph
from repro.sampling.concentration import (
    _amc_psi,
    _amc_sample_budget,
    _empirical_bernstein_error,
    top_two_values,
)
from repro.sampling.walks import RandomWalkEngine
from repro.utils.rng import RngLike, skip_doubles
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_integer,
    check_node_pair,
    check_positive,
    check_probability,
)


@dataclass
class AMCResult:
    """Raw outcome of the AMC core (an estimate of ``q(s, t)``, not of ``r(s, t)``).

    ``skipped_batches`` counts the futile batches whose walks were never taken.
    """

    value: float
    psi: float
    eta_star: int
    num_walks: int
    num_batches: int
    total_steps: int
    empirical_error: float
    empirical_variance: float
    budget_exhausted: bool = False
    batch_sizes: list[int] = field(default_factory=list)
    skipped_batches: int = 0


def amc_estimate(
    graph: Graph,
    s: int,
    t: int,
    s_vector: np.ndarray,
    t_vector: np.ndarray,
    *,
    epsilon: float,
    walk_length: int,
    num_batches: int = 5,
    delta: float = 0.01,
    rng: RngLike = None,
    engine: Optional[RandomWalkEngine] = None,
    max_total_steps: Optional[int] = None,
    walk_chunk_size: Optional[int] = None,
) -> AMCResult:
    """Algorithm 1: adaptively estimate ``q(s, t)`` with truncated random walks.

    Parameters
    ----------
    graph:
        The input graph.
    s, t:
        Query nodes (walk start points).
    s_vector, t_vector:
        The non-negative weight vectors ``s`` and ``t`` of Algorithm 1.  For a
        standalone PER query these are the one-hot vectors ``e_s`` and ``e_t``;
        GEER passes the SMM propagation vectors instead.
    epsilon:
        Additive error target ε (the core aims for ε/2 on ``q``).
    walk_length:
        The maximum walk length ``ℓ_f``.
    num_batches:
        τ, the maximum number of doubling batches.
    delta:
        Failure probability δ.
    engine:
        Optional shared :class:`RandomWalkEngine` (lets a sweep reuse one RNG
        stream and accumulate step counts).
    max_total_steps:
        Optional safety budget on the total number of walk steps.  The paper's
        algorithm has no such cap; it exists so that laptop-scale benchmark
        sweeps can include configurations whose faithful cost would be
        excessive.  When the cap triggers, ``budget_exhausted`` is set and the
        ε guarantee no longer holds.  Every scheduled batch is charged against
        the cap, futile ones that are skipped included, so a capped query is
        cut short exactly where running every batch would cut it.
    walk_chunk_size:
        Optional bound on the number of walks simulated simultaneously by the
        fused scoring kernel (see
        :meth:`~repro.sampling.walks.RandomWalkEngine.walk_scores`).  Chunking
        bounds peak memory in the huge ``η*`` regimes and is bit-identical to
        the unchunked kernel under the same seed.

    Returns
    -------
    AMCResult
        ``value`` estimates ``q(s, t)``.  The caller converts it to an estimate
        of ``r(s, t)`` (see :func:`amc_query` and GEER).  ``num_batches`` and
        ``batch_sizes`` list skipped batches too; ``total_steps`` counts only
        the steps walked.

    Raises
    ------
    ValueError
        Checked once, here: ``s`` and ``t`` are nodes of positive degree, ε,
        δ, τ and ℓ_f are in range, and both vectors are length-n, finite and
        non-negative.  ψ, η* and the Lemma 3.2 radii are not re-checked.
    """
    s, t = check_node_pair(s, t, graph.num_nodes)
    epsilon = check_positive(epsilon, "epsilon")
    delta = check_probability(delta, "delta")
    num_batches = check_integer(num_batches, "num_batches", minimum=1)
    walk_length = check_integer(walk_length, "walk_length", minimum=0)
    deg_s = float(graph.weighted_degrees[s])
    deg_t = float(graph.weighted_degrees[t])
    if not deg_s > 0:
        raise ValueError(f"s={s} is an isolated node: AMC needs d(s) > 0")
    if not deg_t > 0:
        raise ValueError(f"t={t} is an isolated node: AMC needs d(t) > 0")

    s_vector = np.asarray(s_vector, dtype=np.float64)
    t_vector = np.asarray(t_vector, dtype=np.float64)
    if s_vector.shape != (graph.num_nodes,) or t_vector.shape != (graph.num_nodes,):
        raise ValueError("s_vector and t_vector must be length-n vectors")
    if s_vector.min() < 0 or t_vector.min() < 0:
        raise ValueError("s_vector and t_vector must be non-negative (Lemma 3.3)")
    # max1 is NaN when any entry is: with the minimum checked, a finite max1
    # makes the whole vector finite.
    s_max1, s_max2 = top_two_values(s_vector)
    t_max1, t_max2 = top_two_values(t_vector)
    if not (math.isfinite(s_max1) and math.isfinite(t_max1)):
        raise ValueError("s_vector and t_vector must be finite")
    psi = _amc_psi(walk_length, deg_s, deg_t, s_max1, s_max2, t_max1, t_max2)

    if walk_length == 0 or psi == 0.0:
        # No tail left to estimate: q(s, t) = 0 deterministically.
        return AMCResult(
            value=0.0,
            psi=psi,
            eta_star=0,
            num_walks=0,
            num_batches=0,
            total_steps=0,
            empirical_error=0.0,
            empirical_variance=0.0,
        )

    eta_star = _amc_sample_budget(psi, epsilon, delta, num_batches)
    eta = max(1, math.ceil(eta_star / 2 ** (num_batches - 1)))

    if engine is None:
        engine = RandomWalkEngine(graph, rng=rng)
    can_skip = skip_doubles(engine.rng, 0)
    weights = s_vector / deg_s - t_vector / deg_t

    estimate = 0.0
    empirical_error = math.inf
    empirical_variance = 0.0
    total_walks = 0
    total_steps = 0
    charged_steps = 0  # what max_total_steps sees: skipped batches count too
    batches_run = 0
    skipped_batches = 0
    pending_skip = 0  # draws of skipped batches the stream has yet to move past
    batch_sizes: list[int] = []
    budget_exhausted = False
    pair_steps = 2 * walk_length

    for batch_index in range(num_batches):
        eta_batch = eta
        if max_total_steps is not None:
            # Spend whatever step budget remains instead of dropping the batch:
            # the returned estimate is then the best achievable within the cap
            # (flagged via budget_exhausted, since the eps guarantee is void).
            remaining = max_total_steps - charged_steps
            allowed = remaining // pair_steps
            if allowed < 1:
                budget_exhausted = True
                break
            if allowed < eta_batch:
                eta_batch = int(allowed)
                budget_exhausted = True
        batch_steps = eta_batch * pair_steps
        charged_steps += batch_steps
        total_walks = 2 * eta_batch
        batches_run += 1
        batch_sizes.append(eta_batch)
        # Futile batch (DESIGN.md Contract 11): at σ̂² = 0 the radius is the
        # range term alone and the real radius is no smaller, so a batch whose
        # range term exceeds ε/2 cannot stop.  If the next batch is sure to
        # run — this one is not the last and the cap leaves the next at least
        # one walk (a batch the cap cut short leaves less) — it overwrites
        # everything this batch would set, so the stream just moves past
        # this batch's draws.
        next_batch_runs = batch_index < num_batches - 1 and (
            max_total_steps is None or max_total_steps - charged_steps >= pair_steps
        )
        if (
            can_skip
            and next_batch_runs
            and _empirical_bernstein_error(eta_batch, 0.0, psi, delta / num_batches)
            > epsilon / 2.0
        ):
            skipped_batches += 1
            pending_skip += batch_steps
            eta *= 2
            continue
        # The range term shrinks as batches double, so the futile batches are
        # a prefix, and a batch that runs follows it: one skip moves past all
        # of them, and nothing is pending once the loop ends.
        if pending_skip:
            skip_doubles(engine.rng, pending_skip)
            pending_skip = 0
        # Fused stepping + scoring: never materialises the (η, ℓ) walk
        # matrices, yet is bit-identical to scoring them (same draw sequence,
        # same pairwise summation tree — see RandomWalkEngine.walk_scores).
        scores_s = engine.walk_scores(
            s, eta_batch, walk_length, weights, chunk_size=walk_chunk_size
        )
        scores_t = engine.walk_scores(
            t, eta_batch, walk_length, weights, chunk_size=walk_chunk_size
        )
        scores = scores_s - scores_t
        total_steps += batch_steps

        estimate = float(scores.mean())
        empirical_variance = float(scores.var())  # biased variance, as in Lemma 3.2
        empirical_error = _empirical_bernstein_error(
            eta_batch, empirical_variance, psi, delta / num_batches
        )
        if empirical_error <= epsilon / 2.0 or budget_exhausted:
            break
        eta *= 2

    return AMCResult(
        value=estimate,
        psi=psi,
        eta_star=eta_star,
        num_walks=total_walks,
        num_batches=batches_run,
        total_steps=total_steps,
        empirical_error=empirical_error,
        empirical_variance=empirical_variance,
        budget_exhausted=budget_exhausted,
        batch_sizes=batch_sizes,
        skipped_batches=skipped_batches,
    )


def amc_query(
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
    walk_length: Optional[int] = None,
    max_total_steps: Optional[int] = None,
    walk_chunk_size: Optional[int] = None,
) -> EstimateResult:
    """Answer an ε-approximate PER query with plain AMC (Theorem 3.4).

    Sets ``ℓ_f`` to the refined length of Eq. (6), the weight vectors to the
    one-hot vectors, runs Algorithm 1 and adds the zeroth-iteration correction
    ``1_{s≠t} (1/d(s) + 1/d(t))``.
    """
    s, t = check_node_pair(s, t, graph.num_nodes)
    timer = Timer()
    with timer:
        if s == t:
            return EstimateResult(
                value=0.0, method="amc", s=s, t=t, epsilon=epsilon,
                elapsed_seconds=0.0,
            )
        deg_s = float(graph.weighted_degrees[s])
        deg_t = float(graph.weighted_degrees[t])
        if walk_length is None:
            walk_length = refined_walk_length(epsilon, lambda_max_abs, deg_s, deg_t)
        e_s = np.zeros(graph.num_nodes)
        e_s[s] = 1.0
        e_t = np.zeros(graph.num_nodes)
        e_t[t] = 1.0
        core = amc_estimate(
            graph, s, t, e_s, e_t,
            epsilon=epsilon,
            walk_length=walk_length,
            num_batches=num_batches,
            delta=delta,
            rng=rng,
            engine=engine,
            max_total_steps=max_total_steps,
            walk_chunk_size=walk_chunk_size,
        )
        value = core.value + (1.0 / deg_s + 1.0 / deg_t)
    return EstimateResult(
        value=value,
        method="amc",
        s=s,
        t=t,
        epsilon=epsilon,
        walk_length=walk_length,
        num_walks=core.num_walks,
        num_batches=core.num_batches,
        total_steps=core.total_steps,
        elapsed_seconds=timer.elapsed,
        budget_exhausted=core.budget_exhausted,
        details={
            "psi": core.psi,
            "eta_star": core.eta_star,
            "empirical_error": core.empirical_error,
            "empirical_variance": core.empirical_variance,
            "skipped_batches": core.skipped_batches,
        },
    )


# --------------------------------------------------------------------------- #
# registry adapter
# --------------------------------------------------------------------------- #
def _amc_registry_query(context, s: int, t: int, epsilon: float, **kwargs) -> EstimateResult:
    kwargs.setdefault("max_total_steps", context.budget.max_total_steps)
    kwargs.setdefault("walk_chunk_size", context.budget.walk_chunk_size)
    kwargs.setdefault("engine", context.engine)
    return amc_query(
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
    "amc",
    description="Algorithm 1: adaptive Monte Carlo over truncated walks (refined ℓ)",
    walk_length_param="walk_length",
    walk_length_kind="refined",
    parallel_seed="engine",
    func=_amc_registry_query,
)

__all__ = ["AMCResult", "amc_estimate", "amc_query"]
