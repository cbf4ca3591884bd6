"""Dynamic-graph updates: ``apply_update`` vs a cold service rebuild.

The dynamic-graph refactor's pitch is that a small edge delta should be
*absorbed* by a warm :class:`repro.ResistanceService` — CSR rows patched,
cache invalidated only around the delta, expensive artifacts deferred per
policy — instead of rebuilding the service from scratch (eigen-solve +
landmark sketch build + alias tables).  This benchmark measures both paths on a
2k-node weighted BA graph for 1 / 16 / 256-edge deltas and records the
results in machine-readable form at ``benchmarks/results/BENCH_updates.json``:

* ``speedup`` — cold-rebuild wall clock over ``apply_update`` wall clock
  (asserted ≥ 10x for deltas of ≤ 16 edges);
* cache locality evidence — how many warm cache entries survive the update
  and that they still *hit* afterwards (``post_update_hit_rate``).

Set ``REPRO_BENCH_QUICK=1`` (as CI does) for a smaller, faster workload; the
JSON records which mode produced the numbers.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import QUICK, write_record
from repro.graph import EdgeDelta, barabasi_albert_graph, with_random_weights
from repro.service import ResistanceService, ServiceConfig


NUM_NODES = 600 if QUICK else 2000
ATTACH = 8
DELTA_SIZES = (1, 16) if QUICK else (1, 16, 256)
NUM_CACHED_PAIRS = 150 if QUICK else 400
#: acceptance threshold: a small (≤ 16 edge) delta must absorb ≥ 10x faster
#: than a cold rebuild
SMALL_DELTA_SPEEDUP = 10.0


def _service_config() -> ServiceConfig:
    # Deferred expensive refreshes are the point of the update path: the
    # spectral solve and the landmark sketch rebuild lazily, so the
    # synchronous absorption cost is the patch work only.
    return ServiceConfig(
        spectral_refresh="on-next-read",
        sketch_refresh="on-next-read",
        invalidation_hops=1,
    )


def _build_graph():
    return with_random_weights(
        barabasi_albert_graph(NUM_NODES, ATTACH, rng=1), low=0.5, high=2.0, rng=2
    )


def _insert_delta(graph, size: int, seed: int) -> EdgeDelta:
    rng = np.random.default_rng(seed)
    inserts: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    while len(inserts) < size:
        u, v = map(int, rng.integers(0, graph.num_nodes, 2))
        key = (min(u, v), max(u, v))
        if u == v or key in seen or graph.has_edge(*key):
            continue
        seen.add(key)
        inserts.append(key + (float(rng.uniform(0.5, 2.0)),))
    return EdgeDelta(inserts=inserts)


def _populate_cache(service, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < NUM_CACHED_PAIRS:
        s, t = map(int, rng.integers(0, service.graph.num_nodes, 2))
        if s != t:
            pairs.append((s, t))
            service.cache.put(s, t, 0.25, 0.1, "bench", epoch=service.epoch)
    return pairs


def _cold_rebuild_seconds(graph) -> float:
    start = time.perf_counter()
    service = ResistanceService(graph, config=_service_config(), rng=1)
    service.warm_up()  # the eigen-solve; the sketch build ran in the constructor
    return time.perf_counter() - start


def test_apply_update_vs_cold_rebuild():
    graph = _build_graph()
    sections: dict[str, dict] = {}
    for size in DELTA_SIZES:
        service = ResistanceService(graph, config=_service_config(), rng=1)
        service.warm_up()
        pairs = _populate_cache(service, seed=size)
        entries_before = len(service.cache)
        delta = _insert_delta(graph, size, seed=100 + size)

        start = time.perf_counter()
        report = service.apply_update(delta)
        update_seconds = time.perf_counter() - start

        cold_seconds = _cold_rebuild_seconds(delta.apply_to(graph))
        speedup = cold_seconds / max(update_seconds, 1e-9)

        # hit-rate evidence: the surviving entries still answer
        hits_before = service.cache.stats.hits
        for s, t in pairs:
            service.cache.get(s, t, 0.25)
        post_hits = service.cache.stats.hits - hits_before

        sections[str(size)] = {
            "delta_edges": size,
            "apply_update_ms": round(update_seconds * 1000.0, 3),
            "cold_rebuild_ms": round(cold_seconds * 1000.0, 3),
            "speedup": round(speedup, 1),
            "cache_entries_before": entries_before,
            "cache_entries_invalidated": report.invalidated_cache_entries,
            "cache_entries_surviving": report.surviving_cache_entries,
            "cache_survival_rate": round(
                report.surviving_cache_entries / max(entries_before, 1), 4
            ),
            "post_update_hit_rate": round(post_hits / len(pairs), 4),
            "touched_nodes": report.touched_nodes,
            "sketch_action": report.sketch_action,
        }
        if size <= 16:
            assert speedup >= SMALL_DELTA_SPEEDUP, (
                f"{size}-edge delta absorbed only {speedup:.1f}x faster than a "
                f"cold rebuild (update {update_seconds * 1000:.2f} ms, "
                f"cold {cold_seconds * 1000:.2f} ms)"
            )
            assert report.surviving_cache_entries > 0
            assert sections[str(size)]["post_update_hit_rate"] > 0.0
        # survivors must be exactly the entries the report kept
        assert post_hits == report.surviving_cache_entries

    record = {
        "graph": {
            "family": "barabasi-albert",
            "num_nodes": NUM_NODES,
            "attach": ATTACH,
            "weighted": True,
        },
        "cached_pairs": NUM_CACHED_PAIRS,
        "deltas": sections,
    }
    write_record("updates", record)


def test_update_correctness_spot_check():
    """The benched path still upholds delta ≡ rebuild on a spot query."""
    graph = with_random_weights(barabasi_albert_graph(300, 4, rng=3), rng=4)
    delta = _insert_delta(graph, 4, seed=9)
    warm = ResistanceService(graph, config=_service_config(), rng=7)
    warm.warm_up()
    warm.apply_update(delta)
    cold = ResistanceService(delta.apply_to(graph), config=_service_config(), rng=7)
    a = warm.query(5, 250, 0.4)
    b = cold.query(5, 250, 0.4)
    assert float(a.value).hex() == float(b.value).hex()
