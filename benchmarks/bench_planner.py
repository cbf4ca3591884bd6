"""Static vs adaptive serving on a Zipfian-skew mixed-ε workload.

The adaptive planner's pitch (DESIGN.md, Contract 8) is that per-query
cost-based routing buys latency without touching answers.  This benchmark
measures both halves on one workload shaped like real traffic:

* **Zipfian pair skew** — a few hot pairs dominate (cache territory), a long
  tail of cold pairs appears once or twice;
* **mixed ε** — hot pairs ask loose tolerances (ε = 0.4: sketch envelopes
  qualify), the cold tail asks tight ones (ε = 0.08: beyond the sketch, where
  the engine-vs-exact routing decision actually matters).

**The ε gate comes first**: every adaptive answer over the full workload is
checked against the exact oracle within GEER's conformance tolerance
(1.0·ε + 0.05, ``tests/test_conformance.py``) *before any timing* — a planner
that earns speed by loosening answers must fail here, not post a win.  Then
identical fresh services (static pipeline vs adaptive planner) serve the same
sequence and per-query latencies are compared.  Results go to
``benchmarks/results/BENCH_planner.json``; ``REPRO_BENCH_QUICK=1`` (CI)
shrinks the workload.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import QUICK, write_record
from repro.baselines.exact import ExactEffectiveResistance
from repro.graph.generators import barabasi_albert_graph
from repro.service.planner import PlannerConfig
from repro.service.server import ResistanceService, ServiceConfig


NUM_QUERIES = 150 if QUICK else 600
POOL_SIZE = 40
HOT_RANKS = 5          # pool ranks served with the loose ε
LOOSE_EPSILON = 0.4
TIGHT_EPSILON = 0.08
WARMUP = 20            # untimed head of the sequence (cache fill, calibration)
SEED = 20260808


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(400, 4, rng=3)


def _workload(graph) -> list[tuple[int, int, float]]:
    """The pinned Zipfian query sequence: (s, t, epsilon) triples."""
    rng = np.random.default_rng(SEED)
    pool = []
    seen = set()
    while len(pool) < POOL_SIZE:
        s, t = (int(x) for x in rng.choice(graph.num_nodes, size=2, replace=False))
        key = (min(s, t), max(s, t))
        if key not in seen:
            seen.add(key)
            pool.append(key)
    weights = 1.0 / np.arange(1, POOL_SIZE + 1)
    ranks = rng.choice(POOL_SIZE, size=NUM_QUERIES, p=weights / weights.sum())
    return [
        (
            pool[rank][0],
            pool[rank][1],
            LOOSE_EPSILON if rank < HOT_RANKS else TIGHT_EPSILON,
        )
        for rank in ranks
    ]


def _static_service(graph) -> ResistanceService:
    return ResistanceService(graph, config=ServiceConfig(), rng=9)


def _adaptive_service(graph) -> ResistanceService:
    config = ServiceConfig(
        planner="adaptive",
        planner_config=PlannerConfig(refine_in_background=False),
    )
    return ResistanceService(graph, config=config, rng=9)


def _timed_run(service, workload) -> list[float]:
    """Per-query latencies (seconds) after the untimed warm-up head."""
    for s, t, epsilon in workload[:WARMUP]:
        service.query(s, t, epsilon)
    latencies = []
    for s, t, epsilon in workload[WARMUP:]:
        start = time.perf_counter()
        service.query(s, t, epsilon)
        latencies.append(time.perf_counter() - start)
    return latencies


def test_adaptive_planner_beats_static_on_skewed_traffic(graph):
    workload = _workload(graph)
    oracle = ExactEffectiveResistance(graph)

    # ---- ε-conformance gate: answers first, speed second ---------------- #
    gate_service = _adaptive_service(graph)
    worst_error_ratio = 0.0
    for s, t, epsilon in workload:
        result = gate_service.query(s, t, epsilon)
        tolerance = 1.0 * epsilon + 0.05  # geer's conformance budget
        error = abs(result.value - oracle.query(s, t))
        worst_error_ratio = max(worst_error_ratio, error / tolerance)
        assert error <= tolerance, (
            f"adaptive answer off by {error:.4f} > {tolerance:.4f} for "
            f"r({s},{t}) at ε={epsilon} via tier "
            f"{result.details.get('plan', result.details.get('source'))}"
        )
    planner_summary = gate_service.planner.summary()

    # ---- timing: identical fresh services, identical sequence ----------- #
    static_latencies = _timed_run(_static_service(graph), workload)
    adaptive_latencies = _timed_run(_adaptive_service(graph), workload)

    static_mean = float(np.mean(static_latencies))
    adaptive_mean = float(np.mean(adaptive_latencies))
    speedup = static_mean / adaptive_mean

    record = {
        "workload": {
            "graph": "ba-400-4",
            "num_queries": NUM_QUERIES,
            "pool_size": POOL_SIZE,
            "hot_ranks": HOT_RANKS,
            "loose_epsilon": LOOSE_EPSILON,
            "tight_epsilon": TIGHT_EPSILON,
            "warmup": WARMUP,
            "seed": SEED,
        },
        "conformance": {
            "tolerance_rule": "1.0*epsilon + 0.05",
            "worst_error_ratio": round(worst_error_ratio, 4),
            "gate_passed": True,
        },
        "static_mean_ms": round(static_mean * 1000.0, 4),
        "adaptive_mean_ms": round(adaptive_mean * 1000.0, 4),
        "static_p99_ms": round(float(np.percentile(static_latencies, 99)) * 1000.0, 4),
        "adaptive_p99_ms": round(
            float(np.percentile(adaptive_latencies, 99)) * 1000.0, 4
        ),
        "speedup": round(speedup, 3),
        "decisions_by_tier": planner_summary["by_tier"],
        "fallbacks": planner_summary["fallbacks"],
    }
    write_record("planner", record)

    assert speedup > 1.0, (
        f"adaptive routing must beat the static pipeline on skewed traffic: "
        f"static {static_mean * 1000:.3f} ms vs adaptive "
        f"{adaptive_mean * 1000:.3f} ms (speedup {speedup:.2f}x)"
    )
