"""Serving-stack benchmarks: shared-memory pool vs serial, HTTP round-trips.

The shared-memory pool (:mod:`repro.net.pool`) is the repository's process
executor: its workers attach once to published segments
(:mod:`repro.net.shm`), so a batch ships only task tuples — never the graph
or the context.  This module records the machine-readable evidence in
``benchmarks/results/BENCH_server.json``:

* ``shm_pool_vs_serial`` — steady-state batch execution on a persistent,
  pre-warmed pool vs in-process serial execution of the same plan, plus the
  bit-identity proof (pool results hex-equal to the thread executor's under
  the same seed — DESIGN.md Contract 5).
* ``server_roundtrip`` — end-to-end HTTP/JSON ``/query_batch`` latency
  (p50/p99) and throughput through :class:`repro.net.server.NetServer`.

Set ``REPRO_BENCH_QUICK=1`` (as CI does) for a smaller workload; the JSON
records which mode produced each number.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import QUICK, update_record
from repro.core.engine import QueryEngine
from repro.experiments.queries import random_query_set
from repro.graph.generators import barabasi_albert_graph
from repro.net.client import ResistanceClient
from repro.net.pool import SharedWorkerPool
from repro.net.server import NetServer, NetServerConfig
from repro.net.shm import install_shared_context, shm_available
from repro.service import ResistanceService, ServiceConfig

GRAPH_NODES = 2000
GRAPH_M = 8
SEED = 1

# One worker per spare core; on a single-CPU host a lone worker is the honest
# configuration (two processes would just time-slice one core).
POOL_WORKERS = min(4, os.cpu_count() or 1) if (os.cpu_count() or 1) > 1 else 1
POOL_PAIRS = 24 if QUICK else 100
# Small ε: per-pair engine work dominates the fixed per-task cost of the
# parallel determinism contract (one derived stream per query).
POOL_EPSILON = 0.02
POOL_REPEATS = 2 if QUICK else 5

HTTP_BATCHES = 4 if QUICK else 12
HTTP_PAIRS_PER_BATCH = 4 if QUICK else 8
HTTP_EPSILON = 0.2


def _best_of(repeats, fn):
    """Min-of-N wall-clock (the standard noise filter for micro-benchmarks)."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


@pytest.fixture(scope="module")
def bench_graph():
    return barabasi_albert_graph(GRAPH_NODES, GRAPH_M, rng=SEED)


@pytest.fixture(scope="module")
def bench_pairs(bench_graph):
    return list(random_query_set(bench_graph, POOL_PAIRS, rng=SEED).pairs)


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
def test_shm_pool_vs_serial(bench_graph, bench_pairs):
    """Persistent shared-memory pool vs serial in-process batch execution.

    Both sides execute freshly planned batches in steady state (the pool is
    pre-warmed — fork + attach happens once, as in a server, not per batch).
    Bit-identity against the thread executor under the same session seed is
    asserted before any timing, so the speedup compares identical outputs.
    """
    # --- bit-identity proof (Contract 5) -------------------------------- #
    # Reference: the in-process parallel contract (derived per-query streams,
    # identical across worker counts) — always workers=2 so the parallel
    # path is taken even when the pool itself runs a single worker.
    engine_thread = QueryEngine(bench_graph, rng=SEED)
    thread_batch = engine_thread.plan(bench_pairs, POOL_EPSILON).execute(workers=2)

    engine_pool = QueryEngine(bench_graph, rng=SEED)
    shared = install_shared_context(engine_pool.context)
    assert shared is not None
    with SharedWorkerPool(
        shared,
        workers=POOL_WORKERS,
        delta=engine_pool.context.delta,
        num_batches=engine_pool.context.num_batches,
        budget=engine_pool.context.budget,
    ) as pool:
        pool.warm()
        pool_batch = pool.execute_plan(engine_pool.plan(bench_pairs, POOL_EPSILON))
        bit_identical = all(
            a.value.hex() == b.value.hex() for a, b in zip(thread_batch, pool_batch)
        )
        assert bit_identical, "shm pool diverged from the thread executor"

        # --- steady-state timing ---------------------------------------- #
        engine_serial = QueryEngine(bench_graph, rng=SEED)
        engine_serial.plan(bench_pairs[:1], POOL_EPSILON).execute()  # warm
        serial_seconds, _ = _best_of(
            POOL_REPEATS,
            lambda: engine_serial.plan(bench_pairs, POOL_EPSILON).execute(),
        )
        pool_seconds, _ = _best_of(
            POOL_REPEATS,
            lambda: pool.execute_plan(engine_pool.plan(bench_pairs, POOL_EPSILON)),
        )

    speedup = serial_seconds / pool_seconds if pool_seconds > 0 else float("inf")
    update_record("server", {
        "shm_pool_vs_serial": {
            "graph": f"ba-{GRAPH_NODES}-{GRAPH_M}",
            "pairs": len(bench_pairs),
            "epsilon": POOL_EPSILON,
            "workers": POOL_WORKERS,
            "repeats": POOL_REPEATS,
            "serial_seconds": round(serial_seconds, 4),
            "pool_seconds": round(pool_seconds, 4),
            "speedup": round(speedup, 3),
            "bit_identical_to_thread_executor": bit_identical,
            "shared_segment_bytes": shared.handle.nbytes,
        },
    })
    # Catastrophic regressions (e.g. a return to per-batch pickling,
    # historically 0.71x) must fail. On a single CPU the pool cannot beat
    # serial — parity is the ceiling and scheduler noise swings ±10% — so the
    # floor is looser there; with real cores the pool must win outright.
    floor = 0.7 if POOL_WORKERS == 1 else 1.0
    assert speedup >= floor, f"shm pool fell to {speedup:.2f}x of serial"


def test_server_roundtrip(bench_graph, bench_pairs):
    """End-to-end HTTP latency/throughput through NetServer + client.

    Cache and sketch are disabled so every request exercises the full
    network → service → engine (→ pool, when shared memory is available)
    path rather than a layer hit.
    """
    service = ResistanceService(
        bench_graph,
        rng=SEED,
        config=ServiceConfig(use_cache=False, use_sketch=False),
    )
    config = NetServerConfig(workers=POOL_WORKERS if shm_available() else 0)
    rng = np.random.default_rng(SEED)
    latencies: list[float] = []
    pairs_served = 0
    with NetServer(service, config) as server:
        client = ResistanceClient(server.url)
        client.wait_ready()
        for _ in range(HTTP_BATCHES):
            batch = [
                bench_pairs[int(index)]
                for index in rng.integers(0, len(bench_pairs), HTTP_PAIRS_PER_BATCH)
            ]
            start = time.perf_counter()
            response = client.query_batch(batch, HTTP_EPSILON)
            latencies.append(time.perf_counter() - start)
            pairs_served += len(response["results"])
        stats = client.stats()
    assert stats["server"]["answered"] == HTTP_BATCHES
    total = sum(latencies)
    update_record("server", {
        "server_roundtrip": {
            "graph": f"ba-{GRAPH_NODES}-{GRAPH_M}",
            "batches": HTTP_BATCHES,
            "pairs_per_batch": HTTP_PAIRS_PER_BATCH,
            "epsilon": HTTP_EPSILON,
            "pool_workers": config.workers,
            "shared_memory": bool(stats["shared_memory"]),
            "p50_ms": round(1000.0 * float(np.percentile(latencies, 50)), 2),
            "p99_ms": round(1000.0 * float(np.percentile(latencies, 99)), 2),
            "pairs_per_second": round(pairs_served / total, 1) if total > 0 else 0.0,
        },
    })
