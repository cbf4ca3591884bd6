"""Self-healing SharedWorkerPool: Contract 7 — recovery never changes results.

Every task seed derives from the task's input position (``derive_seed``),
never from which worker or attempt ran it, so shards re-executed after a
worker death must reproduce their results hex-exactly.  These tests kill
real fork workers (via the ``pool:worker_crash`` failpoint and raw SIGKILL)
and compare against unharmed runs.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import Future

import pytest

import repro.net.pool as pool_module
from repro.core.engine import QueryEngine
from repro.exceptions import EngineUnavailableError
from repro.fault import FAULTS, FailpointTriggered
from repro.net.pool import PoolCrashError, SharedWorkerPool, _pool_run_shard
from repro.net.shm import SegmentError, attach_context, install_shared_context, shm_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing shared memory unavailable"
)

PAIRS = [(0, 40), (3, 99), (17, 71), (5, 60), (2, 88), (50, 110)]
EPSILON = 0.2


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import barabasi_albert_graph

    return barabasi_albert_graph(120, 4, rng=5)


#: Set by the ``shard_gate`` fixture before any worker forks, so workers
#: inherit it: a shared flag that opens once the injected crash has landed.
#: Not a ``multiprocessing.Event``: its ``set()`` waits for every waiting
#: process to wake, and the SIGKILLed one never does.
_SHARD_GATE = None


def _gated_run_shard(*args):
    """``_pool_run_shard`` that starts only once the parent's injected kill landed.

    The ``pool:worker_crash`` failpoint kills a worker right after the round
    is submitted; a shard that finished first would leave nothing to
    respawn.
    """
    deadline = time.monotonic() + 30
    while not _SHARD_GATE.value:
        if time.monotonic() > deadline:
            raise RuntimeError("the shard gate never opened")
        time.sleep(0.001)
    return _pool_run_shard(*args)


@pytest.fixture
def shard_gate(monkeypatch):
    """Hold every shard until ``_maybe_inject_worker_crash`` has run."""
    gate = multiprocessing.get_context("fork").RawValue("b", 0)
    monkeypatch.setattr(sys.modules[__name__], "_SHARD_GATE", gate)
    monkeypatch.setattr(pool_module, "_pool_run_shard", _gated_run_shard)
    inject = SharedWorkerPool._maybe_inject_worker_crash

    def inject_then_open(self):
        inject(self)
        gate.value = 1

    monkeypatch.setattr(SharedWorkerPool, "_maybe_inject_worker_crash", inject_then_open)
    return gate


def _run_batch(graph, *, arm=None, warm_kill=False, gate=None, **pool_kwargs):
    """One pool batch on a fresh engine/epoch; returns (hex values, summary).

    Fresh everything per run: executing a plan advances session stream
    state, so determinism comparisons must be run-vs-run, never plan-reuse.
    With a ``gate`` (the ``shard_gate`` fixture), an unharmed run opens it
    up front and a run with ``arm`` lets the injected crash open it.
    """
    if gate is not None:
        gate.value = arm is None
    engine = QueryEngine(graph, rng=42)
    shared = install_shared_context(engine.context)
    assert shared is not None
    try:
        with SharedWorkerPool(
            shared,
            workers=2,
            delta=engine.context.delta,
            num_batches=engine.context.num_batches,
            budget=engine.context.budget,
            **pool_kwargs,
        ) as pool:
            pool.warm()
            if warm_kill:
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                time.sleep(0.05)
            if arm:
                FAULTS.arm_from_string(arm)
            batch = pool.execute_plan(engine.plan(PAIRS, EPSILON))
            values = [result.value.hex() for result in batch]
            return values, pool.summary()
    finally:
        FAULTS.reset()
        shared.retire()


class TestContractSeven:
    def test_injected_crash_mid_dispatch_is_bit_identical(self, graph, shard_gate):
        baseline, base_stats = _run_batch(graph, gate=shard_gate)
        assert base_stats["respawns"] == 0
        harmed, stats = _run_batch(graph, arm="pool:worker_crash", gate=shard_gate)
        assert harmed == baseline
        assert stats["injected_crashes"] == 1
        assert stats["respawns"] >= 1
        assert stats["reexecuted_shards"] >= 1
        assert stats["recovery_seconds"] > 0

    def test_sigkill_between_batches_heals_via_heartbeat(self, graph):
        baseline, _ = _run_batch(graph)
        harmed, stats = _run_batch(graph, warm_kill=True)
        assert harmed == baseline
        assert stats["worker_deaths"] >= 1
        assert stats["respawns"] >= 1

    def test_crash_during_and_between_batches_still_identical(self, graph):
        baseline, _ = _run_batch(graph)
        harmed, stats = _run_batch(graph, warm_kill=True, arm="pool:worker_crash")
        assert harmed == baseline
        assert stats["worker_deaths"] >= 1
        assert stats["injected_crashes"] == 1


class TestRespawnBudget:
    def test_pool_crash_error_when_budget_exhausted(self, graph):
        with pytest.raises(PoolCrashError) as excinfo:
            _run_batch(graph, arm="pool:worker_crash=10", max_respawns=1)
        assert excinfo.value.attempts == 1
        assert excinfo.value.lost_shards >= 1
        # the breaker counts this toward tripping the engine tier
        assert isinstance(excinfo.value, EngineUnavailableError)

    def test_zero_respawns_fails_on_first_death(self, graph):
        with pytest.raises(PoolCrashError) as excinfo:
            _run_batch(graph, arm="pool:worker_crash=10", max_respawns=0)
        assert excinfo.value.attempts == 0


class TestHeartbeat:
    def test_heartbeat_reports_healthy_pool(self, graph):
        engine = QueryEngine(graph, rng=42)
        shared = install_shared_context(engine.context)
        try:
            with SharedWorkerPool(shared, workers=2) as pool:
                pool.warm()
                beat = pool.heartbeat()
                assert beat["healthy"] and beat["dead_workers"] == 0
        finally:
            shared.retire()

    def test_heartbeat_detects_without_healing(self, graph):
        engine = QueryEngine(graph, rng=42)
        shared = install_shared_context(engine.context)
        try:
            with SharedWorkerPool(shared, workers=2) as pool:
                pool.warm()
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                time.sleep(0.05)
                beat = pool.heartbeat(heal=False)
                assert not beat["healthy"]
                assert pool.summary()["respawns"] == 0  # observation only
        finally:
            shared.retire()


class TestRunShardsClassification:
    """The recovery loop's failure taxonomy, driven with synthetic futures."""

    def _pool(self):
        return SharedWorkerPool(workers=1, max_respawns=2)

    def test_injected_shard_fault_reexecutes_without_counting_a_death(self):
        attempts = []

        def submit(shard):
            future = Future()
            if len(attempts) == 0:
                attempts.append("fail")
                future.set_exception(FailpointTriggered("walk:chunk_fault"))
            else:
                attempts.append("ok")
                future.set_result(([(0, "result")], {"pid": 0.0}))
            return future

        with self._pool() as pool:
            outputs = pool._run_shards([["task"]], submit)
        assert outputs == [[(0, "result")]]
        summary = pool.summary()
        assert summary["reexecuted_shards"] == 1
        assert summary["respawns"] == 1
        assert summary["worker_deaths"] == 0  # the worker survived the fault

    def test_shard_deadline_flags_hung_workers(self):
        rounds = []

        def submit(shard):
            future = Future()
            if not rounds:
                rounds.append("hung")  # never completes -> deadline trips
            else:
                rounds.append("ok")
                future.set_result(([(0, "result")], {"pid": 0.0}))
            return future

        with self._pool() as pool:
            pool.shard_deadline_seconds = 0.05
            outputs = pool._run_shards([["task"]], submit)
        assert outputs == [[(0, "result")]]
        summary = pool.summary()
        assert summary["shard_timeouts"] == 1
        assert summary["worker_deaths"] == 1

    def test_unrecognised_worker_exception_propagates(self):
        def submit(shard):
            future = Future()
            future.set_exception(ValueError("a real bug"))
            return future

        with self._pool() as pool:
            with pytest.raises(ValueError, match="a real bug"):
                pool._run_shards([["task"]], submit)


def test_shm_attach_fail_failpoint(graph):
    """``shm:attach_fail`` makes attach_context raise a typed SegmentError."""
    engine = QueryEngine(graph, rng=42)
    shared = install_shared_context(engine.context)
    try:
        FAULTS.arm("shm:attach_fail")
        with pytest.raises(SegmentError, match="shm:attach_fail"):
            attach_context(shared.handle)
        # the failpoint is times:1 — the next attach succeeds (self-heal)
        attached = attach_context(shared.handle)
        attached.close()
    finally:
        FAULTS.reset()
        shared.retire()
