"""Observability overhead: the instrumented walk kernel vs the bare one.

Contract 6 (DESIGN.md) says instrumentation never changes results and costs
(near) nothing when enabled.  This benchmark quantifies the second half on the
150k-walk fused-kernel workload of ``bench_kernels.py``: the same
``walk_scores`` call is timed

* **bare** — the engine's default ``NULL_OBS`` (disabled registry, inactive
  tracer: the no-op fast path every library user gets);
* **serving** — metrics enabled, tracer disabled (the ``ResistanceService``
  default);
* **traced** — metrics enabled *and* an active trace open around the call, so
  every chunk records a span (the worst case: ``repro-er query --trace``).

Timings are interleaved min-of-N to filter scheduler noise; the traced run
must stay within ``MAX_OVERHEAD_PCT`` of bare, and all three variants must
return bit-identical scores (the first half of Contract 6).  Results go to
``benchmarks/results/BENCH_obs.json``; ``REPRO_BENCH_QUICK=1`` (as CI does)
shrinks η and the JSON records which mode produced the numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import QUICK, write_record
from repro.graph.generators import barabasi_albert_graph
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.sampling.walks import RandomWalkEngine


# Same regime as bench_kernels' fused-kernel workload: huge η*, long ℓ,
# chunked driver — so each call spawns ~η/chunk span records when traced.
ETA = 40_000 if QUICK else 150_000
LENGTH = 160
CHUNK = 8_192 if QUICK else 16_384
REPEATS = 3 if QUICK else 5
#: acceptance threshold: tracing the chunked kernel must cost at most this
MAX_OVERHEAD_PCT = 5.0


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(5000, 8, rng=1)


def _traced_obs() -> Observability:
    return Observability(
        metrics=MetricsRegistry(enabled=True), tracer=Tracer(enabled=True)
    )


def _serving_obs() -> Observability:
    return Observability.serving()


def test_instrumentation_overhead(graph):
    weights = np.random.default_rng(2).random(graph.num_nodes)
    seed = 5

    def bare():
        return RandomWalkEngine(graph, rng=seed).walk_scores(
            0, ETA, LENGTH, weights, chunk_size=CHUNK
        )

    def serving():
        engine = RandomWalkEngine(graph, rng=seed, obs=_serving_obs())
        return engine.walk_scores(0, ETA, LENGTH, weights, chunk_size=CHUNK)

    def traced():
        obs = _traced_obs()
        engine = RandomWalkEngine(graph, rng=seed, obs=obs)
        with obs.tracer.trace("bench:walk_scores"):
            return engine.walk_scores(0, ETA, LENGTH, weights, chunk_size=CHUNK)

    bare()  # untimed warm-up: first-touch page faults land outside the timings

    # Interleaved min-of-N: each variant sees the same thermal/scheduler
    # conditions, so the ratio is not an artifact of measurement order.
    best = {"bare": float("inf"), "serving": float("inf"), "traced": float("inf")}
    scores = {}
    for _ in range(REPEATS):
        for name, fn in (("bare", bare), ("serving", serving), ("traced", traced)):
            start = time.perf_counter()
            scores[name] = fn()
            best[name] = min(best[name], time.perf_counter() - start)

    # Contract 6, first half: instrumentation never changes results.
    assert np.array_equal(scores["bare"], scores["serving"])
    assert np.array_equal(scores["bare"], scores["traced"])

    overhead_serving = (best["serving"] / best["bare"] - 1.0) * 100.0
    overhead_traced = (best["traced"] / best["bare"] - 1.0) * 100.0

    record = {
        "workload": {
            "graph": "ba-5000-8",
            "eta": ETA,
            "length": LENGTH,
            "chunk_size": CHUNK,
            "repeats": REPEATS,
        },
        "bare_seconds": round(best["bare"], 4),
        "serving_seconds": round(best["serving"], 4),
        "traced_seconds": round(best["traced"], 4),
        "overhead_serving_pct": round(overhead_serving, 2),
        "overhead_traced_pct": round(overhead_traced, 2),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "bit_identical": True,
    }
    write_record("obs", record)

    assert overhead_traced <= MAX_OVERHEAD_PCT, (
        f"tracing the chunked walk kernel cost {overhead_traced:.2f}% "
        f"(bare {best['bare']:.4f}s, traced {best['traced']:.4f}s); "
        f"budget is {MAX_OVERHEAD_PCT}%"
    )
