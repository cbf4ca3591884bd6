"""Micro-benchmarks of the computational substrates (true pytest-benchmark targets).

Unlike the figure macro-benchmarks (one pedantic round each), these measure the
hot kernels with full statistical repetition: the vectorised walk kernel, the
SMM sparse mat-vec iteration, Wilson's spanning-tree sampler, the Laplacian CG
solve and a single GEER query.  They are the ablation evidence for the
"vectorised walk kernel" design choice called out in DESIGN.md.

Two comparison benchmarks additionally start the repo's **machine-readable
perf record**: :func:`test_fused_vs_materialised_scoring` pits the fused
``walk_scores`` kernel against a faithful replica of the historical
materialise-then-score path — under every available kernel backend (numpy
always; the compiled numba backend wherever numba is installed) — and
:func:`test_parallel_batch_execution` measures a 100-query GEER batch serial
vs the persistent shared-memory worker pool.  Both write their measurements
into ``benchmarks/results/BENCH_kernels.json`` so future PRs can track the
trajectory.  Set ``REPRO_BENCH_QUICK=1`` (as CI does) for a smaller, faster
workload; the JSON records which mode produced it.

Per the bench_fault/bench_planner convention, every bit-identity assertion
(including the golden hex-equality replay when numba is installed) runs
*before* any timing loop: a backend that produces wrong bits must fail the
benchmark, not publish a speedup.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import QUICK, update_record
from repro.sampling import kernels as walk_kernels
from repro.core.engine import QueryEngine
from repro.core.estimator import EffectiveResistanceEstimator
from repro.core.registry import resolve_method
from repro.core.smm import SMMState
from repro.experiments.datasets import load_dataset
from repro.experiments.queries import random_query_set
from repro.graph.generators import barabasi_albert_graph
from repro.linalg.solvers import LaplacianSolver
from repro.sampling.spanning_tree import wilson_spanning_tree
from repro.sampling.walks import RandomWalkEngine

# Fused-kernel workload: the huge-η*, long-ℓ regime of Figs. 8-9 (small ε),
# where the materialised path's (η, ℓ) buffers dwarf the fused kernel's
# eight score lanes.  Quick mode shrinks η for CI runners.
FUSED_ETA = 40_000 if QUICK else 150_000
FUSED_LENGTH = 160
FUSED_CHUNK = 8_192 if QUICK else 16_384
FUSED_REPEATS = 2 if QUICK else 3

PARALLEL_PAIRS = 50 if QUICK else 100
PARALLEL_EPSILON = 0.1
PARALLEL_WORKERS = min(4, os.cpu_count() or 1) if (os.cpu_count() or 1) > 1 else 2


# --------------------------------------------------------------------------- #
# historical (pre-fused-kernel) reference path
# --------------------------------------------------------------------------- #
def _materialised_step(rng, indptr, indices, nodes):
    """Replica of the historical per-step kernel: degrees re-derived from
    ``indptr`` and the isolated-node guard re-run on every step."""
    starts = indptr[nodes]
    degrees = indptr[nodes + 1] - starts
    if np.any(degrees == 0):
        raise ValueError("isolated node")
    offsets = np.floor(rng.random(len(nodes)) * degrees).astype(np.int64)
    np.minimum(offsets, degrees - 1, out=offsets)
    return indices[starts + offsets]


def _materialised_scores(graph, start, num_walks, length, weights, seed):
    """The historical AMC scoring path: materialise the full (η, ℓ) walk
    matrix, then gather and pairwise-sum the visited weights."""
    rng = np.random.default_rng(seed)
    visits = np.empty((num_walks, length), dtype=np.int64)
    current = np.full(num_walks, start, dtype=np.int64)
    for i in range(length):
        current = np.asarray(current, dtype=np.int64)
        current = _materialised_step(rng, graph.indptr, graph.indices, current)
        visits[:, i] = current
    return weights[visits].sum(axis=1)


def _best_of(repeats, fn):
    """Min-of-N wall-clock (the standard noise filter for micro-benchmarks)."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _peak_bytes(fn):
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


# --------------------------------------------------------------------------- #
# comparison benchmarks (write BENCH_kernels.json)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def big_graph():
    return barabasi_albert_graph(5000, 8, rng=1)


def _assert_numba_reproduces_golden() -> bool:
    """Replay the bitwise golden fixtures through the compiled backend.

    Only called when numba resolved — a green return means the *compiled*
    kernels (not the python twin) reproduced ``tests/data/golden.json``
    hex-exactly.  Runs before any timing, like every other identity check.
    """
    tests_dir = Path(__file__).resolve().parent.parent / "tests"
    if str(tests_dir) not in sys.path:
        sys.path.insert(0, str(tests_dir))
    from regen_golden import BITWISE_METHODS, GOLDEN_PATH, golden_graphs, run_method

    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for graph_name, graph in golden_graphs().items():
        for method in BITWISE_METHODS:
            stored = golden["graphs"][graph_name]["methods"][method]["hex"]
            replayed = [
                float(v).hex()
                for v in run_method(graph, method, kernel_backend="numba")
            ]
            assert replayed == stored, (
                f"compiled backend drifted from golden values for {method} "
                f"on {graph_name} (Contract 9 violated)"
            )
    return True


def test_fused_vs_materialised_scoring(big_graph):
    """Fused ``walk_scores`` vs the historical materialise-then-score path.

    Bit-identity across every path *and every backend* is asserted first
    (same draws, same pairwise summation tree — plus the golden hex replay
    when numba is installed), so the timing comparison that follows is pure
    speed.  The chunked driver is measured too, with ``tracemalloc`` peaks
    showing its memory bound.  The compiled backend's probe cost (import +
    JIT compile + warmup cross-check) is recorded separately from the warm
    kernel timings.
    """
    weights = np.random.default_rng(2).random(big_graph.num_nodes)
    seed = 5

    # Probe the compiled backend up front; on a cold process (CI runs this
    # test in a fresh interpreter) this times numba import + JIT + warmup.
    probe_start = time.perf_counter()
    numba_status = walk_kernels.backend_status()["numba"]
    jit_load_seconds = time.perf_counter() - probe_start
    backends = ["numpy"] + (["numba"] if numba_status["available"] else [])

    def fused(backend):
        return RandomWalkEngine(
            big_graph, rng=seed, kernel_backend=backend
        ).walk_scores(0, FUSED_ETA, FUSED_LENGTH, weights)

    def chunked(backend):
        return RandomWalkEngine(
            big_graph, rng=seed, kernel_backend=backend
        ).walk_scores(0, FUSED_ETA, FUSED_LENGTH, weights, chunk_size=FUSED_CHUNK)

    # -- bit-identity gate: every backend, before any timing --------------- #
    mat_scores = _materialised_scores(
        big_graph, 0, FUSED_ETA, FUSED_LENGTH, weights, seed
    )
    for backend in backends:
        assert np.array_equal(mat_scores, fused(backend)), (
            f"fused kernel diverged under the {backend!r} backend"
        )
        assert np.array_equal(mat_scores, chunked(backend)), (
            f"chunked kernel diverged under the {backend!r} backend"
        )
    golden_hex_exact = (
        _assert_numba_reproduces_golden() if "numba" in backends else None
    )

    # -- timing (all backends are warm now; JIT cost was paid in the probe) #
    mat_seconds, _ = _best_of(
        FUSED_REPEATS,
        lambda: _materialised_scores(
            big_graph, 0, FUSED_ETA, FUSED_LENGTH, weights, seed
        ),
    )
    backend_payload = {}
    for backend in backends:
        fused_seconds, _ = _best_of(FUSED_REPEATS, lambda b=backend: fused(b))
        chunked_seconds, _ = _best_of(FUSED_REPEATS, lambda b=backend: chunked(b))
        backend_payload[backend] = {
            "available": True,
            "fused_seconds": round(fused_seconds, 4),
            "fused_chunked_seconds": round(chunked_seconds, 4),
            "speedup_fused": round(mat_seconds / fused_seconds, 2),
            "speedup_fused_chunked": round(mat_seconds / chunked_seconds, 2),
            "bit_identical": True,
        }
    if "numba" in backends:
        backend_payload["numba"]["jit_load_seconds"] = round(jit_load_seconds, 4)
        backend_payload["numba"]["golden_hex_exact"] = golden_hex_exact
    else:
        backend_payload["numba"] = {
            "available": False,
            "reason": numba_status["error"] or "numba not installed",
        }

    numpy_timing = backend_payload["numpy"]
    peak_materialised = _peak_bytes(
        lambda: _materialised_scores(big_graph, 0, FUSED_ETA, FUSED_LENGTH, weights, seed)
    )
    peak_chunked = _peak_bytes(lambda: chunked("numpy"))

    update_record("kernels", {
        "fused_walk_scores": {
            "eta": FUSED_ETA,
            "length": FUSED_LENGTH,
            "chunk_size": FUSED_CHUNK,
            "repeats": FUSED_REPEATS,
            "materialised_seconds": round(mat_seconds, 4),
            # top-level numbers track the always-available numpy backend so
            # the trajectory stays comparable with pre-backend records; the
            # per-backend dimension (incl. compiled numba) lives below.
            "fused_seconds": numpy_timing["fused_seconds"],
            "fused_chunked_seconds": numpy_timing["fused_chunked_seconds"],
            "speedup_fused": numpy_timing["speedup_fused"],
            "speedup_fused_chunked": numpy_timing["speedup_fused_chunked"],
            "bit_identical": True,
            "backends": backend_payload,
            # The materialised path holds the (η, ℓ) int64 visit matrix plus
            # the (η, ℓ) float gather; the chunked kernel's walk buffer is
            # its eight float64 score lanes of chunk_size walks, whatever η.
            "walk_buffer_bytes_materialised": FUSED_ETA * FUSED_LENGTH * 8,
            "walk_buffer_bytes_chunked": 8 * FUSED_CHUNK * 8,
            "tracemalloc_peak_bytes_materialised": peak_materialised,
            "tracemalloc_peak_bytes_chunked": peak_chunked,
        },
    })
    # the chunked walk buffer must stay bounded by the chunk size, not η
    assert peak_chunked < peak_materialised


def test_parallel_batch_execution():
    """A 100-query GEER batch: sequential vs the shared-memory worker pool.

    Sequential (``workers=1``) replays the per-pair session stream
    bit-for-bit.  The parallel run publishes the context's heavy artifacts
    to shared memory (:func:`install_shared_context`) and executes the plan
    on a pre-warmed :class:`SharedWorkerPool` — the serving stack's process
    executor — whose workers attach zero-copy by fingerprint.  Per-query
    derived streams make the results identical across worker counts and
    executors (asserted here against a thread pool with a different width)
    before any number is recorded.
    """
    from repro.net.pool import SharedWorkerPool
    from repro.net.shm import install_shared_context

    graph = barabasi_albert_graph(2000, 8, rng=23)
    pairs = list(random_query_set(graph, PARALLEL_PAIRS, rng=23))

    serial_engine = QueryEngine(graph, rng=23)
    serial_engine.context.prepare_for(resolve_method("geer"), PARALLEL_EPSILON)
    start = time.perf_counter()
    serial = serial_engine.query_many(pairs, PARALLEL_EPSILON, method="geer")
    serial_seconds = time.perf_counter() - start

    parallel_engine = QueryEngine(graph, rng=23)
    context = parallel_engine.context
    context.prepare_for(resolve_method("geer"), PARALLEL_EPSILON)
    shared = install_shared_context(context)
    try:
        with SharedWorkerPool(
            shared,
            workers=PARALLEL_WORKERS,
            delta=context.delta,
            num_batches=context.num_batches,
            budget=context.budget,
        ) as pool:
            pool.warm()  # fork + attach once, as a server does, not per batch
            start = time.perf_counter()
            parallel = pool.execute_plan(
                parallel_engine.plan(pairs, PARALLEL_EPSILON, method="geer")
            )
            parallel_seconds = time.perf_counter() - start
    finally:
        if shared is not None:
            shared.retire()

    check_engine = QueryEngine(graph, rng=23)
    check = check_engine.query_many(
        pairs,
        PARALLEL_EPSILON,
        method="geer",
        workers=PARALLEL_WORKERS + 1,
    )
    assert [r.value.hex() for r in parallel] == [r.value.hex() for r in check], (
        "parallel results must not depend on worker count or executor"
    )
    truth = QueryEngine(graph, rng=23)
    errors = [
        abs(r.value - truth.exact(r.s, r.t)) for r in list(parallel)[: 10]
    ]
    assert max(errors) <= PARALLEL_EPSILON, "parallel estimates broke the ε guarantee"

    payload = {
        "pairs": PARALLEL_PAIRS,
        "method": "geer",
        "epsilon": PARALLEL_EPSILON,
        "workers": PARALLEL_WORKERS,
        "executor": parallel.executor,
        "shared_memory": shared is not None,
        "kernel_backend": walk_kernels.active_backend_name("auto"),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "deterministic_across_worker_counts": True,
    }
    if (os.cpu_count() or 1) <= 1:
        payload["note"] = (
            "single-CPU host: pool overhead dominates and no wall-clock gain "
            "is possible; rerun on a multi-core machine for the speedup"
        )
    update_record("kernels", {"parallel_batch": payload})


# --------------------------------------------------------------------------- #
# micro-benchmarks (pytest-benchmark statistics; no JSON)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook-syn")


@pytest.fixture(scope="module")
def estimator(graph):
    est = EffectiveResistanceEstimator(graph, rng=7)
    est.lambda_max_abs  # force the preprocessing outside the measured region
    return est


def test_kernel_vectorised_walks(benchmark, graph):
    """500 walks of 20 steps advanced in lock-step (one CSR gather per step)."""
    engine = RandomWalkEngine(graph, rng=1)
    benchmark(engine.walk_matrix, 0, 500, 20)


def test_kernel_fused_walk_scores(benchmark, graph):
    """The same 500 x 20-step workload through the fused scoring kernel."""
    engine = RandomWalkEngine(graph, rng=1)
    weights = np.random.default_rng(4).random(graph.num_nodes)
    benchmark(engine.walk_scores, 0, 500, 20, weights)


def test_kernel_python_reference_walks(benchmark, graph):
    """The same 500 x 20-step workload walked one step at a time in pure Python.

    This is the ablation evidence for the vectorised kernel: identical work,
    typically 1-2 orders of magnitude slower.
    """
    engine = RandomWalkEngine(graph, rng=2)

    def run():
        for _ in range(500):
            engine.walk_single_python(0, 20)

    benchmark(run)


def test_kernel_smm_iteration(benchmark, graph):
    state = SMMState(graph, 0, 1)
    state.run(3)  # let the frontier grow to a realistic density
    benchmark(state.step)


def test_kernel_wilson_spanning_tree(benchmark, graph):
    benchmark(wilson_spanning_tree, graph, rng=3)


def test_kernel_laplacian_cg_solve(benchmark, graph):
    solver = LaplacianSolver(graph)
    benchmark(solver.effective_resistance, 0, graph.num_nodes - 1)


def test_kernel_geer_query(benchmark, estimator):
    benchmark(estimator.estimate, 0, 100, 0.1)


def test_kernel_amc_query(benchmark, estimator):
    benchmark(lambda: estimator.estimate(0, 100, 0.1, method="amc"))


def test_kernel_smm_query(benchmark, estimator):
    benchmark(lambda: estimator.estimate(0, 100, 0.1, method="smm"))
