"""The process pool executing query plans over shared memory.

:class:`SharedWorkerPool` is the repository's only process executor; in
process, ``QueryPlan.execute(workers=N)`` runs on threads.  The pool keeps
its processes alive across batches: each worker attaches to the published
shared-memory segments (:mod:`repro.net.shm`) **once at startup** and
rebuilds its zero-copy ``QueryContext`` from them, so dispatching a batch
ships only the task tuples (a few ints each) and an epoch handle — no
graphs, no contexts, no per-task pickling.  The network server keeps one
pool for its lifetime; ``repro-er query --batch --workers N`` builds one for
a single invocation.

Determinism is inherited, not reimplemented: the pool executes the exact
task list :meth:`QueryPlan.parallel_tasks` produces (per-query streams
derived via ``derive_seed`` from one session draw) with the same per-task
kwargs the thread executor uses, and the same SMM chunks
(:meth:`QueryPlan.smm_chunks`), so results are **bit-identical** to
``plan.execute(workers=N)`` for every worker count (DESIGN.md Contracts 2
and 5).  Sharding is free to be coarse: seeds depend only on the task's
input position, never on which worker runs it, so the pool dispatches one
contiguous shard per worker and pays one IPC round-trip per shard instead of
one per query.

Epoch flips are lazy and atomic per worker: every shard carries the
publishing epoch's handle, and a worker whose attached token differs simply
drops its old mapping and attaches the new segments before touching the
shard — there is no broadcast, no barrier, and a worker can never mix two
epochs inside one shard.

**Self-healing (Contract 7).**  Workers are processes and processes die:
OOM kills, SIGKILL from an operator, a segfault in a native library.  The
pool treats a dead or hung worker as a recoverable event, not a poisoned
batch: completed shard results are harvested, the broken executor is torn
down and respawned attached to the current epoch, and only the *lost*
shards are re-executed.  Because every task seed comes from ``derive_seed``
on the task's input position — never from which worker or attempt ran it —
the re-executed shards reproduce their results hex-exactly, so a batch that
survived a worker crash is bit-identical to one that never saw it.  After
``max_respawns`` failed recovery rounds within one dispatch the pool gives
up with :class:`PoolCrashError` (an
:class:`~repro.exceptions.EngineUnavailableError`), which the service's
circuit breaker counts toward tripping the engine tier.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import multiprocessing

from repro.core.batch import BatchResult, QueryPlan, _run_smm_chunk, _task_kwargs
from repro.core.registry import QueryBudget, resolve_method
from repro.core.result import EstimateResult
from repro.exceptions import EngineUnavailableError, StaleEpochError
from repro.fault import FAULTS, FailpointTriggered
from repro.net.shm import SharedContextHandle, SharedEpoch, attach_context
from repro.obs import NULL_OBS, Observability
from repro.utils.timing import Timer


class PoolCrashError(EngineUnavailableError):
    """The pool kept crashing past its respawn budget for one dispatch."""

    def __init__(self, attempts: int, lost_shards: int, cause: str) -> None:
        super().__init__(
            f"worker pool failed {attempts} recovery attempt(s) with "
            f"{lost_shards} shard(s) still lost (last cause: {cause})"
        )
        self.attempts = attempts
        self.lost_shards = lost_shards
        self.cause = cause

# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
# Per-worker state: the budget/δ/τ overrides from the pool constructor plus
# the currently attached epoch (token-keyed, flipped lazily per shard).
# Observability counters accumulate worker-locally in ``_POOL_STATE["stats"]``
# and travel back to the parent as a cumulative snapshot piggybacked on every
# shard result — no extra IPC, and the parent merge (latest snapshot per pid)
# is idempotent.
_POOL_STATE: dict[str, Any] = {}

#: The worker-local counter names shipped back with every shard.
#: ``elapsed_seconds`` sums the estimates' own timers; ``shard_seconds`` is
#: the wall time inside the shard call, attach included, so shard minus
#: elapsed is the worker's per-query bookkeeping and the parent's
#: ``execute_plan`` time minus shard time is dispatch and transport.
_WORKER_COUNTERS = (
    "attaches",
    "attach_seconds",
    "shards",
    "queries",
    "walk_steps",
    "spmv_operations",
    "elapsed_seconds",
    "shard_seconds",
)


def _worker_stats() -> dict[str, float]:
    stats = _POOL_STATE.get("stats")
    if stats is None:
        stats = dict.fromkeys(_WORKER_COUNTERS, 0.0)
        _POOL_STATE["stats"] = stats
    return stats


def _worker_snapshot() -> dict[str, float]:
    """The worker's cumulative counters, stamped with its pid."""
    snapshot = dict(_worker_stats())
    snapshot["pid"] = float(os.getpid())
    return snapshot


def _pool_attach(handle: SharedContextHandle) -> None:
    stats = _worker_stats()
    started = time.perf_counter()
    previous = _POOL_STATE.pop("attached", None)
    if previous is not None:
        previous.close()
    attached = attach_context(
        handle,
        delta=_POOL_STATE.get("delta"),
        num_batches=_POOL_STATE.get("num_batches"),
        budget=_POOL_STATE.get("budget"),
    )
    _POOL_STATE["attached"] = attached
    _POOL_STATE["token"] = handle.token
    stats["attaches"] += 1
    stats["attach_seconds"] += time.perf_counter() - started


def _pool_initializer(
    handle: Optional[SharedContextHandle],
    delta: Optional[float],
    num_batches: Optional[int],
    budget: Optional[QueryBudget],
) -> None:
    # Workers forked after the serving loop registered its asyncio signal
    # handlers inherit both the Python-level handlers and the loop's signal
    # wakeup fd (the same pipe, shared across fork).  A SIGTERM delivered to
    # such a worker — e.g. by the executor tearing down a broken pool — would
    # write into that shared pipe and wake the PARENT's loop into a graceful
    # drain.  Reset both so workers die like plain processes.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread/closed fd
        pass
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)
    _POOL_STATE["delta"] = delta
    _POOL_STATE["num_batches"] = num_batches
    _POOL_STATE["budget"] = budget
    if handle is not None:
        _pool_attach(handle)


def _pool_context(handle: SharedContextHandle):
    if _POOL_STATE.get("token") != handle.token:
        _pool_attach(handle)
    return _POOL_STATE["attached"].context


def _pool_warm(handle: Optional[SharedContextHandle]) -> int:
    """Force a worker to exist and attach; returns its pid for diagnostics."""
    if handle is not None:
        _pool_context(handle)
    time.sleep(0.02)  # keep the worker busy so the pool spawns siblings
    return os.getpid()


def _record_shard(
    stats: dict[str, float], results: Sequence[EstimateResult], started: float
) -> None:
    """Count one finished shard; ``started`` is its ``perf_counter`` at entry."""
    stats["shard_seconds"] += time.perf_counter() - started
    stats["shards"] += 1
    stats["queries"] += len(results)
    for result in results:
        stats["walk_steps"] += result.total_steps
        stats["spmv_operations"] += result.spmv_operations
        stats["elapsed_seconds"] += result.elapsed_seconds


def _pool_run_shard(
    handle: SharedContextHandle,
    method: str,
    epsilon: float,
    tasks: Sequence[tuple],
) -> tuple[list[tuple[int, EstimateResult]], dict[str, float]]:
    """Execute one contiguous shard of plan tasks against the attached context."""
    started = time.perf_counter()
    context = _pool_context(handle)
    spec = resolve_method(method)
    context.prepare_for(spec, epsilon)
    out: list[tuple[int, EstimateResult]] = []
    for task in tasks:
        index, s, t, _length, _seed, _kwargs = task
        result = spec(context, s, t, epsilon, **_task_kwargs(spec, context, task))
        out.append((index, result))
    _record_shard(_worker_stats(), [result for _, result in out], started)
    return out, _worker_snapshot()


def _pool_run_smm_shard(
    handle: SharedContextHandle,
    epsilon: float,
    chunks: Sequence[tuple[tuple[int, ...], list[tuple[int, int]], int]],
) -> tuple[list[tuple[int, EstimateResult]], dict[str, float]]:
    """Execute vectorized SMM chunks (indices, pairs, walk_length) for one shard."""
    started = time.perf_counter()
    context = _pool_context(handle)
    spec = resolve_method("smm")
    context.prepare_for(spec, epsilon)
    out: list[tuple[int, EstimateResult]] = []
    for indices, pairs, length in chunks:
        results = _run_smm_chunk(context, pairs, length, epsilon)
        out.extend(zip(indices, results))
    _record_shard(_worker_stats(), [result for _, result in out], started)
    return out, _worker_snapshot()


# --------------------------------------------------------------------------- #
# pool
# --------------------------------------------------------------------------- #
@dataclass
class PoolStats:
    """Parent-side pool accounting, including merged worker-local counters.

    Workers accumulate their own counters (attach cost, shard/query/step
    totals) in process-local state and return a cumulative snapshot with
    every shard; :meth:`merge` keeps the latest snapshot per pid, so the
    totals are exact no matter how shards interleave — this is what restores
    the worker ``SessionStats`` that ``/stats`` used to drop.
    """

    batches: int = 0
    shards_dispatched: int = 0
    fallback_batches: int = 0
    flips: int = 0
    # self-healing accounting (Contract 7)
    worker_deaths: int = 0
    respawns: int = 0
    reexecuted_shards: int = 0
    shard_timeouts: int = 0
    injected_crashes: int = 0
    recovery_seconds: float = 0.0
    worker_snapshots: dict[int, dict[str, float]] = field(default_factory=dict)

    def merge(self, snapshot: dict[str, float]) -> None:
        pid = int(snapshot.get("pid", 0))
        self.worker_snapshots[pid] = snapshot

    def worker_totals(self) -> dict[str, float]:
        totals = dict.fromkeys(_WORKER_COUNTERS, 0.0)
        for snapshot in self.worker_snapshots.values():
            for name in _WORKER_COUNTERS:
                totals[name] += snapshot.get(name, 0.0)
        for name in ("attaches", "shards", "queries", "walk_steps", "spmv_operations"):
            totals[name] = int(totals[name])
        return totals

    def summary(self) -> dict[str, object]:
        totals = self.worker_totals()
        per_worker = {
            str(pid): {
                name: (
                    snapshot.get(name, 0.0)
                    if name.endswith("seconds")
                    else int(snapshot.get(name, 0.0))
                )
                for name in _WORKER_COUNTERS
            }
            for pid, snapshot in sorted(self.worker_snapshots.items())
        }
        return {
            "batches": self.batches,
            "shards_dispatched": self.shards_dispatched,
            "fallback_batches": self.fallback_batches,
            "flips": self.flips,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "reexecuted_shards": self.reexecuted_shards,
            "shard_timeouts": self.shard_timeouts,
            "injected_crashes": self.injected_crashes,
            "recovery_seconds": self.recovery_seconds,
            "workers_reporting": len(self.worker_snapshots),
            **{f"worker_{name}": value for name, value in totals.items()},
            "per_worker": per_worker,
        }


class SharedWorkerPool:
    """Persistent workers attached to shared-memory query state.

    Parameters
    ----------
    shared_epoch:
        The initially published :class:`~repro.net.shm.SharedEpoch` workers
        attach to at startup; :meth:`flip` installs a newer epoch (workers
        re-attach lazily on their next shard).  ``None`` starts the workers
        idle — they attach on first dispatch.
    workers:
        Pool size.
    delta, num_batches, budget:
        Overrides threaded into each worker's rebuilt context so its
        estimates match the planning context bit-for-bit.  Usually the
        serving context's own values.
    max_batch_columns:
        Column cap per vectorized SMM chunk (same default as
        :meth:`QueryPlan.execute`; see :meth:`QueryPlan.smm_chunks`).
    max_respawns:
        Recovery attempts per dispatch before giving up with
        :class:`PoolCrashError`.
    shard_deadline_seconds:
        Hung-worker detection: when a dispatched shard has produced no
        result after this long, the round's remaining workers are presumed
        wedged, killed, and their shards re-executed on a fresh pool.
        ``None`` (the default) disables the deadline.
    """

    #: Methods that must not run in worker processes: RP answers from a
    #: sketch drawn lazily from the *session* stream — per-worker rebuilds
    #: would silently change (and de-determinise) the answers.
    _PROCESS_UNSAFE = frozenset({"rp"})

    def __init__(
        self,
        shared_epoch: Optional[SharedEpoch] = None,
        *,
        workers: int = 2,
        delta: Optional[float] = None,
        num_batches: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
        max_batch_columns: int = 256,
        obs: Optional[Observability] = None,
        max_respawns: int = 2,
        shard_deadline_seconds: Optional[float] = None,
    ) -> None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        self.workers = workers
        self.max_batch_columns = int(max_batch_columns)
        self.max_respawns = int(max_respawns)
        self.shard_deadline_seconds = shard_deadline_seconds
        self.obs = obs if obs is not None else NULL_OBS
        self.stats = PoolStats()
        self._stats_lock = threading.Lock()
        self._current = shared_epoch
        self._closed = False
        # Kept for respawn: a replacement executor must rebuild its workers'
        # contexts with the same overrides or re-executed shards would not be
        # bit-identical to the lost ones.
        self._context_overrides = (delta, num_batches, budget)
        self._executor = self._spawn_executor(
            shared_epoch.handle if shared_epoch is not None else None
        )

    def _spawn_executor(
        self, handle: Optional[SharedContextHandle]
    ) -> ProcessPoolExecutor:
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            mp_context = None
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp_context,
            initializer=_pool_initializer,
            initargs=(handle, *self._context_overrides),
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def current_epoch(self) -> Optional[int]:
        return self._current.epoch if self._current is not None else None

    def flip(self, shared_epoch: SharedEpoch) -> None:
        """Install a newly published epoch; workers re-attach on next shard."""
        with self.obs.tracer.span("shm:flip", epoch=shared_epoch.epoch):
            self._current = shared_epoch
        with self._stats_lock:
            self.stats.flips += 1

    def summary(self) -> dict[str, object]:
        """Pool configuration plus merged parent/worker counters."""
        with self._stats_lock:
            stats = self.stats.summary()
        return {"workers": self.workers, "epoch": self.current_epoch, **stats}

    def warm(self) -> list[int]:
        """Spawn and attach every worker now; returns the worker pids.

        Without this the pool spawns processes lazily on first dispatch,
        which would bill the fork+attach cost to the first batch.
        """
        handle = self._current.handle if self._current is not None else None
        futures = [
            self._executor.submit(_pool_warm, handle) for _ in range(self.workers)
        ]
        return [future.result() for future in futures]

    def worker_pids(self) -> list[int]:
        """Pids of the currently spawned worker processes (may be empty)."""
        procs = getattr(self._executor, "_processes", None) or {}
        return sorted(procs)

    def heartbeat(self, *, heal: bool = True) -> dict[str, object]:
        """Liveness check: detect dead workers, optionally heal on the spot.

        Called before every dispatch (and by readiness probes), so a worker
        SIGKILLed *between* batches is reaped and replaced without costing
        the next batch one of its recovery attempts.
        """
        procs = list((getattr(self._executor, "_processes", None) or {}).values())
        dead = [proc.pid for proc in procs if not proc.is_alive()]
        broken = getattr(self._executor, "_broken", False)
        healthy = not dead and not broken
        if not healthy and heal and not self._closed:
            started = time.perf_counter()
            with self.obs.tracer.span(
                "pool:recover", cause="heartbeat", dead=len(dead)
            ):
                self._respawn()
            with self._stats_lock:
                self.stats.worker_deaths += max(1, len(dead))
                self.stats.respawns += 1
                self.stats.recovery_seconds += time.perf_counter() - started
        return {
            "healthy": bool(healthy),
            "alive_workers": len(procs) - len(dead),
            "dead_workers": len(dead),
            "broken": bool(broken),
        }

    def _respawn(self, *, kill_workers: bool = False) -> None:
        """Tear down the (broken or wedged) executor and start a fresh one.

        The replacement attaches to the pool's *current* epoch handle so a
        flip that happened before the crash survives recovery.
        """
        old = self._executor
        procs = list((getattr(old, "_processes", None) or {}).values())
        if kill_workers:
            for proc in procs:
                try:
                    if proc.is_alive():
                        proc.kill()
                except (ValueError, OSError):  # already reaped/closed
                    pass
        old.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.join(timeout=1.0)
            except (ValueError, OSError, AssertionError):
                pass
        self._executor = self._spawn_executor(
            self._current.handle if self._current is not None else None
        )

    def _maybe_inject_worker_crash(self) -> None:
        """``pool:worker_crash`` failpoint: SIGKILL one live worker.

        Evaluated parent-side right after a round of shards is submitted —
        the same external kill the chaos CI job performs, with the firing
        count kept in the parent registry (fork-inherited worker registries
        never see the evaluation, so respawned workers cannot re-fire it).
        """
        if FAULTS.fire("pool:worker_crash") is None:
            return
        for pid in self.worker_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                continue
            with self._stats_lock:
                self.stats.injected_crashes += 1
            return

    def shutdown(self, *, wait: bool = True) -> None:
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=wait)

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute_plan(
        self,
        plan: QueryPlan,
        *,
        vectorize: bool = True,
        shards_per_worker: int = 1,
        **kwargs: Any,
    ) -> BatchResult:
        """Run a :class:`QueryPlan` on the pool, bit-identical to ``execute``.

        The plan's context must carry a ``shared_handle`` for the plan's
        epoch (see :func:`repro.net.shm.install_shared_context`); methods
        that cannot leave the process (RP) and plans without a handle fall
        back transparently to the in-process thread executor, which obeys the
        same own-stream contract and therefore returns the same values.
        """
        if self._closed:
            raise RuntimeError("SharedWorkerPool is shut down")
        if plan.context.epoch != plan.epoch:
            raise StaleEpochError(
                f"plan was built at graph epoch {plan.epoch} but the context "
                f"is now at epoch {plan.context.epoch}; re-plan after apply_delta"
            )
        handle = getattr(plan.context, "shared_handle", None)
        if (
            handle is None
            or handle.epoch != plan.epoch
            or plan.spec.name in self._PROCESS_UNSAFE
        ):
            with self._stats_lock:
                self.stats.fallback_batches += 1
            return plan.execute(
                workers=self.workers, vectorize=vectorize,
                max_batch_columns=self.max_batch_columns, **kwargs,
            )

        # Pin the published epoch (when we own its bookkeeping) so an /update
        # retiring it mid-batch defers the unlink until this dispatch drains.
        pinned = self._current if (
            self._current is not None and self._current.handle.token == handle.token
        ) else None
        if pinned is not None:
            pinned.pin()
        try:
            return self._dispatch(
                plan, handle, vectorize=vectorize,
                shards_per_worker=max(1, int(shards_per_worker)), kwargs=kwargs,
            )
        finally:
            if pinned is not None:
                pinned.unpin()

    def _dispatch(
        self,
        plan: QueryPlan,
        handle: SharedContextHandle,
        *,
        vectorize: bool,
        shards_per_worker: int,
        kwargs: dict[str, Any],
    ) -> BatchResult:
        timer = Timer()
        results: list[Optional[EstimateResult]] = [None] * len(plan)
        vectorized_smm = vectorize and plan.spec.name == "smm" and not kwargs
        num_shards = self.workers * shards_per_worker
        self.heartbeat()  # reap workers that died between batches
        with timer, self.obs.tracer.span(
            "pool:dispatch",
            method=plan.spec.name,
            pairs=len(plan),
            epoch=plan.epoch,
        ):
            if vectorized_smm:
                shards = _split(plan.smm_chunks(self.max_batch_columns), num_shards)

                def submit(shard: list) -> Any:
                    return self._executor.submit(
                        _pool_run_smm_shard, handle, plan.epsilon, shard
                    )

            else:
                tasks = plan.parallel_tasks(kwargs)
                shards = _split(tasks, num_shards)

                def submit(shard: list) -> Any:
                    return self._executor.submit(
                        _pool_run_shard, handle, plan.spec.name, plan.epsilon, shard
                    )

            for shard_results in self._run_shards(shards, submit):
                for index, result in shard_results:
                    results[index] = result
            with self._stats_lock:
                self.stats.batches += 1
                self.stats.shards_dispatched += len(shards)
        return BatchResult(
            method=plan.spec.name,
            epsilon=plan.epsilon,
            results=list(results),  # type: ignore[arg-type]
            buckets=plan.buckets,
            walk_length_computations=plan.walk_length_computations,
            elapsed_seconds=timer.elapsed,
            bucketing=plan.bucketing,
            workers=self.workers,
            executor="shm-pool",
        )

    def _run_shards(
        self, shards: list[list[Any]], submit: Callable[[list[Any]], Any]
    ) -> list[list[tuple[int, EstimateResult]]]:
        """Run every shard to completion, healing the pool along the way.

        Each round submits the still-pending shards, harvests whatever
        completed, and classifies the failures: a :class:`BrokenProcessPool`
        (at submit or result time) means a worker died; a round that blows
        ``shard_deadline_seconds`` with futures still running means workers
        are wedged; a :class:`FailpointTriggered` is an injected in-shard
        fault.  Any of these triggers a respawn + re-execution of exactly
        the lost shards — deterministic by Contract 7, since shard tasks
        carry their original position-derived seeds.  Unrecognised worker
        exceptions (real bugs) propagate unchanged.
        """
        pending: dict[int, list[Any]] = dict(enumerate(shards))
        outputs: dict[int, list[tuple[int, EstimateResult]]] = {}
        respawns_used = 0
        while True:
            failure: Optional[str] = None
            hung = 0
            futures: dict[int, Any] = {}
            try:
                for shard_index, shard in sorted(pending.items()):
                    futures[shard_index] = submit(shard)
            except BrokenProcessPool:
                failure = "broken_at_submit"
                for future in futures.values():
                    future.cancel()
                futures = {}
            if futures:
                self._maybe_inject_worker_crash()
                done, not_done = futures_wait(
                    futures.values(), timeout=self.shard_deadline_seconds
                )
                for shard_index, future in futures.items():
                    if future not in done:
                        continue
                    try:
                        shard_results, snapshot = future.result()
                    except BrokenProcessPool:
                        failure = failure or "worker_death"
                        continue
                    except FailpointTriggered as exc:
                        # Mirror the worker-side fire into the parent registry:
                        # respawned workers fork from the parent, so without
                        # this a times:1 fault would be re-inherited unfired
                        # and re-fire on every recovery attempt.
                        FAULTS.fire(exc.name)
                        failure = failure or f"injected:{exc.name}"
                        continue
                    outputs[shard_index] = shard_results
                    pending.pop(shard_index, None)
                    with self._stats_lock:
                        self.stats.merge(snapshot)
                hung = len(not_done)
                if hung:
                    failure = failure or "shard_deadline"
            if not pending:
                return [outputs[i] for i in range(len(shards))]
            if failure is None:  # pragma: no cover - defensive
                failure = "unknown"
            if respawns_used >= self.max_respawns:
                raise PoolCrashError(respawns_used, len(pending), failure)
            respawns_used += 1
            started = time.perf_counter()
            with self.obs.tracer.span(
                "pool:recover", cause=failure, lost_shards=len(pending)
            ):
                self._respawn(kill_workers=hung > 0)
            with self._stats_lock:
                if failure.startswith("injected:"):
                    pass  # worker survived; the fault was in the shard
                else:
                    self.stats.worker_deaths += 1
                self.stats.respawns += 1
                self.stats.reexecuted_shards += len(pending)
                self.stats.shard_timeouts += hung
                self.stats.recovery_seconds += time.perf_counter() - started


def _split(items: Sequence[Any], num_shards: int) -> list[list[Any]]:
    """Split into at most ``num_shards`` contiguous, near-equal shards."""
    if not items:
        return []
    num_shards = min(num_shards, len(items))
    base, extra = divmod(len(items), num_shards)
    shards = []
    lo = 0
    for shard_index in range(num_shards):
        hi = lo + base + (1 if shard_index < extra else 0)
        shards.append(list(items[lo:hi]))
        lo = hi
    return shards


__all__ = ["PoolCrashError", "PoolStats", "SharedWorkerPool"]
