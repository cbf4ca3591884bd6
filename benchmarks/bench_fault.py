"""Fault-injection overhead and recovery latency (Contract 7, DESIGN.md).

Two questions, answered with numbers in ``benchmarks/results/BENCH_fault.json``:

1. **What do failpoints cost when nothing is armed?**  The walk kernel
   evaluates ``walk:chunk_fault`` once per chunk; the registry's disarmed
   fast path is a single attribute read.  The 150k-walk fused-kernel
   workload is timed with the registry disarmed (the shipping default) and
   with a failpoint armed-but-never-firing (the worst legal hot-path state:
   every evaluation takes the lock and checks the spec).  The armed run
   must stay within ``MAX_OVERHEAD_PCT`` of disarmed and return
   bit-identical scores — arming a failpoint must never perturb estimates.

2. **How long does worker-crash recovery take?**  A 100-query batch is
   dispatched to a 2-worker shared-memory pool and one worker is SIGKILLed
   mid-dispatch (the ``pool:worker_crash`` failpoint).  The batch must
   return hex-identical values to an unharmed run, and the recorded
   ``recovery_seconds`` (detect → respawn → re-execute) plus the wall-clock
   slowdown quantify the price of self-healing.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from conftest import QUICK, update_record
from repro.fault import FAULTS
from repro.graph.generators import barabasi_albert_graph
from repro.sampling.walks import RandomWalkEngine


ETA = 40_000 if QUICK else 150_000
LENGTH = 160
CHUNK = 8_192 if QUICK else 16_384
REPEATS = 3 if QUICK else 5
#: acceptance threshold: a disarmed/armed-nonfiring failpoint site may cost
#: at most this much on the chunked walk kernel (ISSUE 8 acceptance: <= 2%)
MAX_OVERHEAD_PCT = 2.0

BATCH_PAIRS = 100
BATCH_EPSILON = 0.3


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(5000, 8, rng=1)


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


def test_disarmed_failpoint_overhead(graph):
    weights = np.random.default_rng(2).random(graph.num_nodes)
    seed = 5

    def run():
        return RandomWalkEngine(graph, rng=seed).walk_scores(
            0, ETA, LENGTH, weights, chunk_size=CHUNK
        )

    def disarmed():
        FAULTS.reset()
        return run()

    def armed_nonfiring():
        # worst legal hot-path state: every evaluation locks and checks,
        # but the spec never fires (skip is unreachable)
        FAULTS.reset()
        FAULTS.arm("walk:chunk_fault", "skip:1000000000")
        return run()

    for _ in range(2):  # steady-state warm-up: let frequency/cache settle
        run()

    samples = {"disarmed": [], "armed_nonfiring": []}
    scores = {}
    variants = [("disarmed", disarmed), ("armed_nonfiring", armed_nonfiring)]
    for repeat in range(2 * REPEATS):
        # Alternate pair order and compare MEDIANS: on a busy 1-CPU box the
        # first slot of each round measures systematically faster and
        # run-to-run swing dwarfs the effect under test, so min-of-N
        # amplifies slot bias instead of cancelling noise.
        ordered = variants if repeat % 2 == 0 else variants[::-1]
        for name, fn in ordered:
            start = time.perf_counter()
            scores[name] = fn()
            samples[name].append(time.perf_counter() - start)
    FAULTS.reset()

    # Contract 7 inherits Contract 6: arming never perturbs estimates.
    assert np.array_equal(scores["disarmed"], scores["armed_nonfiring"])

    best = {name: statistics.median(times) for name, times in samples.items()}
    overhead = (best["armed_nonfiring"] / best["disarmed"] - 1.0) * 100.0
    update_record(
        "fault",
        {
            "overhead_workload": {
                "graph": "ba-5000-8",
                "eta": ETA,
                "length": LENGTH,
                "chunk_size": CHUNK,
                "repeats": 2 * REPEATS,
                "statistic": "median",
            },
            "disarmed_seconds": round(best["disarmed"], 4),
            "armed_nonfiring_seconds": round(best["armed_nonfiring"], 4),
            "overhead_pct": round(overhead, 2),
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "bit_identical": True,
        }
    )
    assert overhead <= MAX_OVERHEAD_PCT, (
        f"armed-nonfiring failpoint cost {overhead:.2f}% on the chunked walk "
        f"kernel (disarmed {best['disarmed']:.4f}s, armed "
        f"{best['armed_nonfiring']:.4f}s); budget is {MAX_OVERHEAD_PCT}%"
    )


def test_worker_crash_recovery_latency():
    from repro.core.engine import QueryEngine
    from repro.net.pool import SharedWorkerPool
    from repro.net.shm import install_shared_context, shm_available

    if not shm_available():
        pytest.skip("multiprocessing shared memory unavailable")

    batch_graph = barabasi_albert_graph(400, 4, rng=7)
    rng = np.random.default_rng(11)
    pairs = []
    while len(pairs) < BATCH_PAIRS:
        s, t = rng.integers(0, batch_graph.num_nodes, size=2)
        if s != t:
            pairs.append((int(s), int(t)))

    def run_batch(arm: bool):
        engine = QueryEngine(batch_graph, rng=42)
        shared = install_shared_context(engine.context)
        assert shared is not None
        try:
            with SharedWorkerPool(
                shared,
                workers=2,
                delta=engine.context.delta,
                num_batches=engine.context.num_batches,
                budget=engine.context.budget,
            ) as pool:
                pool.warm()
                if arm:
                    FAULTS.arm("pool:worker_crash")
                started = time.perf_counter()
                batch = pool.execute_plan(engine.plan(pairs, BATCH_EPSILON))
                elapsed = time.perf_counter() - started
                return (
                    [result.value.hex() for result in batch],
                    elapsed,
                    pool.summary(),
                )
        finally:
            FAULTS.reset()
            shared.retire()

    unharmed_values, unharmed_seconds, _ = run_batch(arm=False)
    harmed_values, harmed_seconds, stats = run_batch(arm=True)

    # Contract 7: recovery never changes results.
    assert harmed_values == unharmed_values
    assert stats["injected_crashes"] == 1
    assert stats["respawns"] >= 1

    update_record(
        "fault",
        {
            "recovery_workload": {
                "graph": "ba-400-4",
                "pairs": BATCH_PAIRS,
                "epsilon": BATCH_EPSILON,
                "workers": 2,
            },
            "unharmed_batch_seconds": round(unharmed_seconds, 4),
            "crashed_batch_seconds": round(harmed_seconds, 4),
            "recovery_seconds": round(float(stats["recovery_seconds"]), 4),
            "reexecuted_shards": int(stats["reexecuted_shards"]),
            "respawns": int(stats["respawns"]),
            "bit_identical_after_recovery": True,
        }
    )
