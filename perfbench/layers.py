"""Layer attribution for the benchmark's traced runs.

The program is not edited.  A :class:`LayerTracer` replaces public call sites
of the program (the functions and methods in :data:`SPANS`) with timing
wrappers, at run time, in the process that runs them: the benchmark process
for the in-process workload, the server launcher for the HTTP workloads.
The launcher installs them before the server starts its worker pool, so the
forked pool workers inherit them; a worker writes its aggregates to
``worker-<pid>.json`` when it exits cleanly.

Every wrapped call adds its duration and its *self* time (duration minus the
wrapped calls nested in it on the same thread) to its span's aggregate.
Top-level calls of the owning process are also kept as root spans with
``time.monotonic()`` stamps, a clock shared by every process on the host, so
the harness can match them to the client's requests.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
from collections import defaultdict
from multiprocessing import util as mp_util
from time import monotonic


def _tier_counts(agg, args, kwargs, result):
    for answer in result if isinstance(result, list) else (result,):
        agg["tier." + answer.details.get("source", "engine")] += 1


def _hit_counts(agg, args, kwargs, result):
    agg["hits"] += result is not None


def _invalidated_counts(agg, args, kwargs, result):
    agg["invalidated"] += int(result)


def _geer_counts(agg, args, kwargs, result):
    agg["spmv_ops"] += result.spmv_operations
    agg["switch_point"] += result.smm_iterations
    agg["walk_length"] += result.walk_length


def _amc_counts(agg, args, kwargs, result):
    agg["walks"] += result.num_walks
    agg["batches"] += result.num_batches


def _walk_counts(agg, args, kwargs, result):
    # walk_scores(self, start, num_walks, length, weights, ...) returns one
    # score per walk, so steps = len(result) * length.
    length = kwargs["length"] if "length" in kwargs else args[3]
    agg["steps"] += len(result) * int(length)


def _read_key(args, kwargs):
    return (int(args[1]), int(args[2]), float(args[3]))


#: span -> (module, attributes, modules holding an imported alias, counter, root key)
SPANS = {
    "service.server.query": ("repro.service.server", ("ResistanceService.query",), (), _tier_counts, _read_key),
    "service.server.query_many": ("repro.service.server", ("ResistanceService.query_many",), (), _tier_counts, None),
    "service.server.update": ("repro.service.server", ("ResistanceService.apply_update",), (), None, None),
    "service.cache.get": ("repro.service.cache", ("ResistanceCache.get",), (), _hit_counts, None),
    "service.cache.invalidate": ("repro.service.cache", ("ResistanceCache.invalidate_nodes",), (), _invalidated_counts, None),
    "service.sketch.query": ("repro.service.sketch", ("LandmarkSketchStore.query",), (), _hit_counts, None),
    "service.sketch.build": ("repro.service.sketch", ("LandmarkSketchStore.build",), (), None, None),
    "core.batch.plan_build": ("repro.core.batch", ("QueryPlan.__init__",), (), None, None),
    "net.pool.execute_plan": ("repro.net.pool", ("SharedWorkerPool.execute_plan",), (), None, None),
    "net.pool.flip": ("repro.net.pool", ("SharedWorkerPool.flip",), (), None, None),
    "net.shm.publish": ("repro.net.shm", ("SharedContextRegistry.publish",), (), None, None),
    "core.geer.query": ("repro.core.geer", ("geer_query",), (), _geer_counts, None),
    "core.smm.step": ("repro.core.smm", ("SMMState.step",), (), None, None),
    "core.smm.densify": ("repro.core.smm", ("SMMState.s_vector", "SMMState.t_vector"), (), None, None),
    "core.amc.estimate": ("repro.core.amc", ("amc_estimate",), ("repro.core.geer",), _amc_counts, None),
    "sampling.walks.scores": ("repro.sampling.walks", ("RandomWalkEngine.walk_scores",), (), _walk_counts, None),
    "linalg.eigen.solve": ("repro.linalg.eigen", ("transition_eigenvalues",), ("repro.core.registry",), None, None),
    "graph.delta.apply": ("repro.graph.delta", ("EdgeDelta.apply_to",), (), None, None),
}


def layer_of(span: str) -> str:
    """``core.smm.step`` -> ``core.smm``: the layer a span belongs to."""
    return ".".join(span.split(".")[:2])


class LayerTracer:
    """Install timing wrappers on :data:`SPANS` and aggregate per span."""

    def __init__(self, *, keep_roots: bool = True, worker_dump_dir=None) -> None:
        self.keep_roots = keep_roots
        self.worker_dump_dir = worker_dump_dir
        self._reset()
        self._in_child = False
        self._dump_registered = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.aggregates: dict[str, defaultdict] = {}
        self.roots: list[tuple] = []

    def _after_fork(self) -> None:
        # A forked pool worker starts empty and reports on its own; it is
        # never the process the harness matches root spans against.
        self._reset()
        self.keep_roots = False
        self._in_child = True

    def _register_worker_dump(self) -> None:
        # Registered lazily: multiprocessing clears inherited finalizers
        # after fork, before the worker runs its first task.
        self._dump_registered = True
        if self.worker_dump_dir is not None:
            mp_util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        path = os.path.join(self.worker_dump_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "aggregates": self.snapshot()}, handle)

    # ------------------------------------------------------------------ #
    def install(self) -> "LayerTracer":
        for span, (module_name, attributes, aliases, count, key) in SPANS.items():
            module = importlib.import_module(module_name)
            for attribute in attributes:
                owner = module
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span, count, key))
                else:
                    wrapped = self._wrap(raw, span, count, key)
                setattr(owner, name, wrapped)
                for alias in aliases:
                    alias_module = importlib.import_module(alias)
                    if alias_module.__dict__.get(name) is raw:
                        setattr(alias_module, name, wrapped)
        return self

    def _wrap(self, fn, span, count, key):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if tracer._in_child and not tracer._dump_registered:
                tracer._register_worker_dump()
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            ok = False
            start = monotonic()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = monotonic()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                with tracer._lock:
                    agg = tracer.aggregates.get(span)
                    if agg is None:
                        agg = tracer.aggregates[span] = defaultdict(float)
                    agg["calls"] += 1
                    agg["total_s"] += duration
                    agg["self_s"] += duration - frame[0]
                    if ok and count is not None:
                        count(agg, args, kwargs, result)
                    if not stack and tracer.keep_roots:
                        root_key = key(args, kwargs) if (ok and key is not None) else None
                        tracer.roots.append((span, start, end, root_key))

        return timed

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {span: dict(agg) for span, agg in self.aggregates.items()}


def diff(after: dict, before: dict) -> dict:
    """Per-span ``after - before`` of two snapshots."""
    out = {}
    for span, agg in after.items():
        base = before.get(span, {})
        out[span] = {field: value - base.get(field, 0.0) for field, value in agg.items()}
    return out


def merge(*snapshots: dict, scale: float = 1.0) -> dict:
    """Field-wise sum of snapshots, each multiplied by ``scale``."""
    out: dict = {}
    for snap in snapshots:
        for span, agg in snap.items():
            target = out.setdefault(span, defaultdict(float))
            for field, value in agg.items():
                target[field] += value * scale
    return out


# --------------------------------------------------------------------------- #
# reduction to the per-layer metrics
# --------------------------------------------------------------------------- #
#: Per-request self-times: these plus ``unattributed_ms`` add up to ``wall_ms``.
PARTITION = (
    "net.server.overhead_ms", "net.pool.ipc_ms", "net.shm.self_ms",
    "service.server.self_ms", "service.cache.self_ms", "service.sketch.self_ms",
    "core.batch.plan_build_ms", "core.geer.self_ms", "core.smm.step_ms",
    "core.smm.densify_ms", "core.amc.self_ms", "sampling.walks.scores_ms",
    "linalg.eigen.self_ms", "graph.delta.self_ms",
)


def _field(aggs: dict, span: str, field: str) -> float:
    return aggs.get(span, {}).get(field, 0.0)


def _per_call(aggs: dict, span: str, field: str = "total_s") -> float:
    calls = _field(aggs, span, "calls")
    return _field(aggs, span, field) / calls if calls else 0.0


def layer_metrics(
    window: dict,
    lifetime: dict,
    *,
    requests: int,
    wall_s: float,
    worker: dict | None = None,
    worker_compute_s: float = 0.0,
    shards: float = 0.0,
    overhead_s: float = 0.0,
    wait_ms: float = 0.0,
    behind_update_share: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics of one traced window.

    ``window`` holds the owning process's span aggregates for the timed
    window, ``lifetime`` every call since start (set-up and updates
    included), ``worker`` the pool workers' aggregates scaled to the window.
    Self-time metrics are ms per request; ``*_us``/``update``/``build``/
    ``solve``/``publish``/``flip``/``apply`` metrics are per call.
    """
    worker = worker or {}
    combined = merge(window, worker)
    per_request = 1000.0 / max(requests, 1)
    layer_self: dict[str, float] = defaultdict(float)
    for span, agg in combined.items():
        layer_self[layer_of(span)] += agg.get("self_s", 0.0)
    # Inside the server, worker compute is waited for in execute_plan; it is
    # attributed to the worker-side layers, leaving IPC as the pool's own.
    layer_self["net.pool"] -= worker_compute_s
    layer_self["net.server"] = overhead_s
    unattributed_s = wall_s - sum(layer_self.values())

    answers = {tier: _field(window, "service.server.query", "tier." + tier)
               + _field(window, "service.server.query_many", "tier." + tier)
               for tier in ("cache", "sketch", "engine")}
    answered = sum(answers.values())
    service_calls = (_field(window, "service.server.query", "calls")
                     + _field(window, "service.server.query_many", "calls"))
    service_time = (_field(window, "service.server.query", "total_s")
                    + _field(window, "service.server.query_many", "total_s"))
    geer_calls = _field(combined, "core.geer.query", "calls")
    walk_seconds = _field(combined, "sampling.walks.scores", "total_s")
    steps = _field(combined, "sampling.walks.scores", "steps")
    updates = _field(lifetime, "service.server.update", "calls")

    def self_ms(span: str) -> float:
        return _field(combined, span, "self_s") * per_request

    metrics = {
        "wall_ms": wall_s * per_request,
        "unattributed_ms": unattributed_s * per_request,
        "net.server.overhead_ms": overhead_s * per_request,
        "net.server.wait_ms": wait_ms,
        "net.server.behind_update_share": behind_update_share,
        "net.pool.execute_plan_ms": _field(window, "net.pool.execute_plan", "total_s") * per_request,
        "net.pool.worker_compute_ms": worker_compute_s * per_request,
        "net.pool.ipc_ms": layer_self["net.pool"] * per_request,
        "net.pool.shards": shards / max(requests, 1),
        "net.pool.flip_ms": _per_call(lifetime, "net.pool.flip") * 1000.0,
        "net.shm.self_ms": layer_self["net.shm"] * per_request,
        "net.shm.publish_ms": _per_call(lifetime, "net.shm.publish") * 1000.0,
        "service.server.self_ms": layer_self["service.server"] * per_request,
        "service.server.query_ms": service_time / service_calls * 1000.0 if service_calls else 0.0,
        "service.server.update_ms": _per_call(lifetime, "service.server.update") * 1000.0,
        "service.cache.self_ms": layer_self["service.cache"] * per_request,
        "service.cache.get_us": _per_call(window, "service.cache.get") * 1e6,
        "service.cache.hit_ratio": _per_call(window, "service.cache.get", "hits"),
        "service.cache.invalidated_per_update": (
            _field(lifetime, "service.cache.invalidate", "invalidated") / updates if updates else 0.0
        ),
        "service.sketch.self_ms": layer_self["service.sketch"] * per_request,
        "service.sketch.query_us": _per_call(window, "service.sketch.query") * 1e6,
        "service.sketch.hit_ratio": _per_call(window, "service.sketch.query", "hits"),
        "service.sketch.build_ms": _per_call(lifetime, "service.sketch.build") * 1000.0,
        "core.batch.plan_build_ms": layer_self["core.batch"] * per_request,
        "core.geer.self_ms": layer_self["core.geer"] * per_request,
        "core.geer.switch_point": _field(combined, "core.geer.query", "switch_point") / geer_calls if geer_calls else 0.0,
        "core.geer.walk_length": _field(combined, "core.geer.query", "walk_length") / geer_calls if geer_calls else 0.0,
        "core.smm.step_ms": self_ms("core.smm.step"),
        "core.smm.densify_ms": self_ms("core.smm.densify"),
        "core.smm.steps": _field(combined, "core.smm.step", "calls") / max(requests, 1),
        "core.smm.spmv_ops": _field(combined, "core.geer.query", "spmv_ops") / max(requests, 1),
        "core.amc.self_ms": layer_self["core.amc"] * per_request,
        "core.amc.walks": _field(combined, "core.amc.estimate", "walks") / max(requests, 1),
        "core.amc.batches": _field(combined, "core.amc.estimate", "batches") / max(requests, 1),
        "sampling.walks.scores_ms": layer_self["sampling.walks"] * per_request,
        "sampling.walks.steps": steps / max(requests, 1),
        "sampling.walks.steps_per_s": steps / walk_seconds if walk_seconds else 0.0,
        "linalg.eigen.self_ms": layer_self["linalg.eigen"] * per_request,
        "linalg.eigen.solve_ms": _per_call(lifetime, "linalg.eigen.solve") * 1000.0,
        "graph.delta.self_ms": layer_self["graph.delta"] * per_request,
        "graph.delta.apply_ms": _per_call(lifetime, "graph.delta.apply") * 1000.0,
    }
    for tier, count in answers.items():
        metrics[f"service.server.tier_share.{tier}"] = count / answered if answered else 0.0
    return metrics
