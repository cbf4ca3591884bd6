"""Zero-copy publication of preprocessed query state over shared memory.

A :class:`~repro.core.registry.QueryContext` owns a pile of large read-only
arrays — the CSR ``indptr``/``indices``/``weights``, the float degrees, the
transition matrix's data, the Vose alias tables and (optionally) the landmark
sketch's resistance vectors.  On a serving box the graph dwarfs the queries,
so worker processes must never receive it by value.

This module publishes those arrays **once** into POSIX shared-memory segments
(:func:`publish_context`) and hands out a :class:`SharedContextHandle` — a
tiny picklable descriptor (segment names, dtypes, shapes, a few scalars) that
any process can :func:`attach_context` to and reconstruct a fully working
``QueryContext`` over zero-copy numpy views.  Segments are keyed by the
context's fingerprint lineage (graph fingerprint chained over applied deltas,
see :mod:`repro.graph.fingerprint`) **and** epoch, so a handle can never be
confused across graph versions: attaching against a different expected
fingerprint raises :class:`StaleSegmentError`.

Lifecycle: the publishing side owns the segments through a
:class:`SharedEpoch`, which refcounts in-flight leases (:meth:`SharedEpoch.pin`)
and unlinks the segments only once the epoch has been retired *and* the last
lease is released — an update can therefore republish under the new epoch and
retire the old one while in-flight batches finish against the old mapping
(POSIX keeps unlinked segments alive until the last attachment closes).
:class:`SharedContextRegistry` tracks one ``SharedEpoch`` per epoch for the
network server.

Determinism: an attached context reproduces in-process estimates
**bit-for-bit** under the same seed (DESIGN.md Contract 5) — every array is
the same bytes, the spectral scalars are carried exactly, and the walk/SpMM
kernels only ever read them.
"""

from __future__ import annotations

import os
import secrets
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.registry import QueryBudget, QueryContext
from repro.exceptions import ReproError
from repro.fault import FAULTS
from repro.graph.graph import Graph
from repro.linalg.eigen import SpectralInfo
from repro.utils.rng import RngLike

try:  # pragma: no cover - every supported platform has it; belt and braces
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]


class SharedMemoryUnavailable(ReproError):
    """Shared-memory segments cannot be created on this platform."""


class SegmentError(ReproError):
    """A shared segment is missing or unusable (retired epoch, wrong host)."""


class StaleSegmentError(SegmentError):
    """A handle's fingerprint does not match the graph the caller expects."""


# --------------------------------------------------------------------------- #
# availability probe
# --------------------------------------------------------------------------- #
_PROBE_RESULT: Optional[bool] = None
_PROBE_LOCK = threading.Lock()


def shm_available() -> bool:
    """Whether this host can create shared-memory segments (probed once).

    False on platforms without ``multiprocessing.shared_memory`` or where
    creating a segment fails (e.g. no ``/dev/shm`` in a locked-down
    container).  Callers use this to fall back to in-process threads.
    """
    global _PROBE_RESULT
    if _PROBE_RESULT is None:
        with _PROBE_LOCK:
            if _PROBE_RESULT is None:
                if _shared_memory is None:
                    _PROBE_RESULT = False
                else:
                    try:
                        probe = _shared_memory.SharedMemory(create=True, size=1)
                        probe.close()
                        probe.unlink()
                        _PROBE_RESULT = True
                    except (OSError, ValueError):  # pragma: no cover - platform
                        _PROBE_RESULT = False
    return _PROBE_RESULT


def _attach_segment(name: str) -> "_shared_memory.SharedMemory":
    """Attach to an existing segment without resource-tracker ownership.

    Python < 3.13 registers *attached* segments with the resource tracker as
    if the attaching process owned them (bpo-38119).  Newer Pythons expose
    ``track=False``; on older ones we attach normally and rely on the fact
    that all attachers here are forked from the publisher and therefore
    share its tracker process — whose cache is a set, so the attach-side
    re-register is a no-op and unlink accounting stays with the publisher.
    Explicitly unregistering after attach would instead *remove* the
    publisher's entry and make the eventual ``unlink()`` complain.
    """
    if _shared_memory is None:
        raise SharedMemoryUnavailable("multiprocessing.shared_memory is unavailable")
    try:
        return _shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    except FileNotFoundError as exc:
        raise SegmentError(
            f"shared segment {name!r} does not exist (epoch retired, or the "
            "publisher lives on another host)"
        ) from exc
    try:
        return _shared_memory.SharedMemory(name=name)
    except FileNotFoundError as exc:
        raise SegmentError(
            f"shared segment {name!r} does not exist (epoch retired, or the "
            "publisher lives on another host)"
        ) from exc


# --------------------------------------------------------------------------- #
# handle
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedArraySpec:
    """Where one published array lives and how to view it."""

    segment: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedContextHandle:
    """A picklable descriptor of one published context epoch.

    This is everything a worker needs to rebuild a ``QueryContext`` over the
    shared segments: a few hundred bytes instead of the multi-megabyte pickle
    of the graph itself.  ``fingerprint`` is the context's lineage digest
    (graph fingerprint chained over applied deltas) and ``epoch`` the delta
    count — together they key the segments to one exact graph version.
    """

    fingerprint: str
    epoch: int
    token: str
    arrays: Dict[str, SharedArraySpec] = field(repr=False)
    scalars: Dict[str, Any] = field(repr=False)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all published segments."""
        return sum(spec.nbytes for spec in self.arrays.values())

    @property
    def weighted(self) -> bool:
        return bool(self.scalars["weighted"])

    @property
    def has_sketch(self) -> bool:
        return "sketch_resistances" in self.arrays

    def describe(self) -> dict[str, object]:
        """A JSON-safe summary for ``/stats`` and logging."""
        return {
            "fingerprint": self.fingerprint[:16],
            "epoch": self.epoch,
            "token": self.token,
            "segments": len(self.arrays),
            "nbytes": self.nbytes,
            "weighted": self.weighted,
            "sketch": self.has_sketch,
        }


# --------------------------------------------------------------------------- #
# publishing
# --------------------------------------------------------------------------- #
class SharedEpoch:
    """Publisher-side owner of one epoch's segments, with lease refcounting.

    ``pin()``/``unpin()`` bracket in-flight work that reads the segments
    (e.g. a batch dispatched to the worker pool); ``retire()`` marks the
    epoch dead.  The segments are unlinked exactly once, when both
    conditions hold — so retiring the old epoch during an update never yanks
    memory from a batch that is still executing against it.
    """

    def __init__(
        self, handle: SharedContextHandle, segments: Dict[str, Any]
    ) -> None:
        self.handle = handle
        self._segments = segments
        self._lock = threading.Lock()
        self._pins = 0
        self._retired = False
        self._unlinked = False

    @property
    def epoch(self) -> int:
        return self.handle.epoch

    @property
    def pins(self) -> int:
        return self._pins

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def unlinked(self) -> bool:
        return self._unlinked

    def pin(self) -> None:
        """Take a lease: the segments stay linked until :meth:`unpin`."""
        with self._lock:
            if self._unlinked:
                raise SegmentError(
                    f"epoch {self.epoch} segments are already unlinked"
                )
            self._pins += 1

    def unpin(self) -> None:
        """Release a lease (unlinks if the epoch was retired meanwhile)."""
        with self._lock:
            if self._pins <= 0:
                raise ValueError("unpin() without a matching pin()")
            self._pins -= 1
            should_unlink = self._retired and self._pins == 0
        if should_unlink:
            self._unlink()

    @contextmanager
    def lease(self) -> Iterator[SharedContextHandle]:
        """``with epoch.lease() as handle: ...`` — pin for the block."""
        self.pin()
        try:
            yield self.handle
        finally:
            self.unpin()

    def retire(self) -> None:
        """Mark the epoch dead; unlink now or when the last lease releases."""
        with self._lock:
            self._retired = True
            should_unlink = self._pins == 0 and not self._unlinked
        if should_unlink:
            self._unlink()

    def close(self) -> None:
        """Force close + unlink regardless of leases (shutdown path)."""
        with self._lock:
            self._retired = True
        self._unlink()

    def _unlink(self) -> None:
        with self._lock:
            if self._unlinked:
                return
            self._unlinked = True
            segments = list(self._segments.values())
            self._segments = {}
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a view is still exported
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:
        state = "unlinked" if self._unlinked else ("retired" if self._retired else "live")
        return (
            f"SharedEpoch(epoch={self.epoch}, pins={self._pins}, {state}, "
            f"nbytes={self.handle.nbytes})"
        )


def _publish_array(token: str, name: str, array: np.ndarray) -> tuple[Any, SharedArraySpec]:
    array = np.ascontiguousarray(array)
    segment_name = f"repro_{token}_{name}"
    segment = _shared_memory.SharedMemory(
        create=True, size=max(1, array.nbytes), name=segment_name
    )
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    del view  # release the buffer export so the segment can close cleanly
    return segment, SharedArraySpec(
        segment=segment_name, dtype=str(array.dtype), shape=tuple(array.shape)
    )


def publish_context(
    context: QueryContext, *, sketch: Optional[Any] = None
) -> SharedEpoch:
    """Publish ``context``'s preprocessed artifacts into shared segments.

    Forces the preprocessing the serving path needs anyway (the spectral
    solve, float degrees, the transition matrix, alias tables on weighted
    graphs) so workers attach to *finished* state and never recompute.
    ``sketch`` (a :class:`~repro.service.sketch.LandmarkSketchStore`) is
    published too unless it is stale — a stale sketch's vectors belong to an
    older graph and must not escape the process.

    Returns the owning :class:`SharedEpoch`; ``shared_epoch.handle`` is the
    picklable descriptor workers attach with.  The caller is responsible for
    installing the handle on the context (see :func:`install_shared_context`)
    and for eventually retiring the epoch.

    Raises
    ------
    SharedMemoryUnavailable
        When the platform cannot create segments (see :func:`shm_available`).
    """
    if not shm_available():
        raise SharedMemoryUnavailable(
            "cannot publish: shared memory is unavailable on this host"
        )
    graph = context.graph
    preprocessing = context.export_preprocessing()  # forces the spectral solve
    arrays: Dict[str, np.ndarray] = {
        "indptr": graph.indptr,
        "indices": graph.indices,
        "degrees_float": context.degrees_float,
        "transition_data": context.transition.data,
    }
    if graph.is_weighted:
        from repro.sampling.walks import _build_alias_tables

        prob, alias_node = _build_alias_tables(graph)
        arrays["weights"] = graph.weights
        arrays["weighted_degrees"] = graph.weighted_degrees
        arrays["alias_prob"] = prob
        arrays["alias_node"] = alias_node
    if sketch is not None and not getattr(sketch, "stale", False):
        arrays["sketch_landmarks"] = sketch.landmarks
        arrays["sketch_resistances"] = sketch.resistances
    scalars: Dict[str, Any] = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "weighted": graph.is_weighted,
        "delta": float(preprocessing["delta"]),
        "num_batches": int(preprocessing["num_batches"]),
        "lambda_2": float(preprocessing["lambda_2"]),
        "lambda_n": float(preprocessing["lambda_n"]),
        "sketch_strategy": getattr(sketch, "strategy", None),
        # Workers honor the publisher's kernel backend (Contract 9 makes it
        # a speed knob only, but the pool should run what the server runs).
        "kernel_backend": context.budget.kernel_backend,
    }

    token = f"{os.getpid():x}{secrets.token_hex(6)}"
    segments: Dict[str, Any] = {}
    specs: Dict[str, SharedArraySpec] = {}
    try:
        for name, array in arrays.items():
            segment, spec = _publish_array(token, name, array)
            segments[name] = segment
            specs[name] = spec
    except OSError as exc:
        for segment in segments.values():
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - best-effort rollback
                pass
        raise SharedMemoryUnavailable(f"publishing shared segments failed: {exc}") from exc

    handle = SharedContextHandle(
        fingerprint=context.lineage,
        epoch=context.epoch,
        token=token,
        arrays=specs,
        scalars=scalars,
    )
    return SharedEpoch(handle, segments)


def install_shared_context(
    context: QueryContext, *, sketch: Optional[Any] = None
) -> Optional[SharedEpoch]:
    """Publish ``context`` and install the handle for the worker pool.

    Once installed, :meth:`repro.net.pool.SharedWorkerPool.execute_plan`
    ships the tiny handle to its workers (attach-by-fingerprint).  Returns
    ``None`` — leaving the pool's in-process thread fallback in place — when
    shared memory is unavailable on this host.
    """
    if not shm_available():
        return None
    shared_epoch = publish_context(context, sketch=sketch)
    context.shared_handle = shared_epoch.handle
    return shared_epoch


# --------------------------------------------------------------------------- #
# attaching
# --------------------------------------------------------------------------- #
class AttachedContext:
    """A ``QueryContext`` reconstructed over zero-copy views of shared segments.

    Created by :func:`attach_context`.  Holds the segment attachments alive
    for as long as the context is in use; :meth:`close` drops them (the OS
    reclaims the mapping once the last numpy view dies).  The rebuilt context
    is read-only by convention: every heavy artifact cell is pre-populated
    with a shared view, so estimator code never mutates what it reads.
    """

    def __init__(
        self,
        handle: SharedContextHandle,
        segments: Dict[str, Any],
        views: Dict[str, np.ndarray],
        context: QueryContext,
    ) -> None:
        self.handle = handle
        self._segments = segments
        self._views = views
        self.context = context
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def view(self, name: str) -> np.ndarray:
        """The raw shared view of one published array (tests, sketch rebuild)."""
        return self._views[name]

    def make_sketch(self) -> Optional[Any]:
        """Rebuild the published landmark sketch over the shared vectors."""
        if "sketch_resistances" not in self._views:
            return None
        from repro.service.sketch import LandmarkSketchStore

        return LandmarkSketchStore.from_arrays(
            self.context.graph,
            self._views["sketch_landmarks"],
            self._views["sketch_resistances"],
            strategy=self.handle.scalars.get("sketch_strategy") or "degree",
        )

    def close(self) -> None:
        """Drop the attachment (views created from it become invalid)."""
        if self._closed:
            return
        self._closed = True
        self._views = {}
        segments = self._segments
        self._segments = {}
        for segment in segments.values():
            try:
                segment.close()
            except BufferError:
                # numpy views are still exported (e.g. the context outlives
                # us); the mapping is reclaimed when the last view dies.
                pass

    def __enter__(self) -> "AttachedContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def attach_context(
    handle: SharedContextHandle,
    *,
    expected_fingerprint: Optional[str] = None,
    rng: RngLike = None,
    budget: Optional[QueryBudget] = None,
    delta: Optional[float] = None,
    num_batches: Optional[int] = None,
) -> AttachedContext:
    """Attach to a published epoch and rebuild a zero-copy ``QueryContext``.

    ``expected_fingerprint`` guards cross-version confusion: when the caller
    knows which graph lineage it wants (a plan pinned to an epoch, a client
    pinned to a fingerprint), a mismatching handle raises
    :class:`StaleSegmentError` *before* any segment is touched.

    ``delta``/``num_batches``/``budget`` override the published scalars (the
    worker pool threads the planning context's values through so worker
    estimates match the parent bit-for-bit even if the publisher used
    different defaults).

    Raises
    ------
    StaleSegmentError
        Fingerprint mismatch.
    SegmentError
        A segment no longer exists (epoch retired) or cannot be mapped.
    """
    if expected_fingerprint is not None and expected_fingerprint != handle.fingerprint:
        raise StaleSegmentError(
            f"shared handle is for fingerprint {handle.fingerprint[:16]}… "
            f"(epoch {handle.epoch}) but the caller expects "
            f"{expected_fingerprint[:16]}…; re-publish after the update"
        )
    if FAULTS.fire("shm:attach_fail") is not None:
        raise SegmentError(
            f"injected failure: failpoint 'shm:attach_fail' fired while "
            f"attaching epoch {handle.epoch}"
        )
    scalars = handle.scalars
    segments: Dict[str, Any] = {}
    views: Dict[str, np.ndarray] = {}
    try:
        for name, spec in handle.arrays.items():
            segment = _attach_segment(spec.segment)
            segments[name] = segment
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
            view.setflags(write=False)
            views[name] = view
    except SegmentError:
        for segment in segments.values():
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass
        raise

    weighted = bool(scalars["weighted"])
    graph = Graph(
        views["indptr"],
        views["indices"],
        views["weights"] if weighted else None,
        validate=False,
    )
    if weighted:
        # Replace the bincount-derived copies with the published views: same
        # bytes, shared pages.
        graph._weighted_degrees = views["weighted_degrees"]
        graph._alias_cache = (views["alias_prob"], views["alias_node"])

    # Zero-copy CSR transition matrix: build empty, then point the index and
    # data attributes straight at the shared views (the tuple constructor
    # would copy and possibly downcast the int64 index arrays).
    n = int(scalars["num_nodes"])
    transition = sp.csr_matrix((n, n), dtype=np.float64)
    transition.data = views["transition_data"]
    transition.indices = views["indices"]
    transition.indptr = views["indptr"]

    spectral = SpectralInfo(
        lambda_2=float(scalars["lambda_2"]), lambda_n=float(scalars["lambda_n"])
    )
    if budget is None:
        # No explicit budget from the attaching process: honor the backend
        # the publishing server recorded in the handle (older handles
        # pickled before the field existed resolve to "auto").
        budget = QueryBudget(kernel_backend=scalars.get("kernel_backend", "auto"))
    context = QueryContext(
        graph,
        delta=float(scalars["delta"]) if delta is None else float(delta),
        num_batches=int(scalars["num_batches"]) if num_batches is None else int(num_batches),
        rng=rng,
        budget=budget,
        validate=False,
        transition=transition,
        spectral_info=spectral,
    )
    context._cells["degrees_float"] = views["degrees_float"]
    context.epoch = handle.epoch
    context.adopt_lineage(handle.fingerprint)
    context.shared_handle = handle
    return AttachedContext(handle, segments, views, context)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class SharedContextRegistry:
    """Refcounted bookkeeping of published epochs for a serving process.

    One :class:`SharedEpoch` per context epoch.  The server publishes the
    new epoch during ``/update`` and retires the old one; retirement defers
    the unlink until in-flight leases release (see :class:`SharedEpoch`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epochs: Dict[int, SharedEpoch] = {}

    def publish(
        self, context: QueryContext, *, sketch: Optional[Any] = None
    ) -> SharedEpoch:
        """Publish ``context`` and track the resulting epoch."""
        shared_epoch = publish_context(context, sketch=sketch)
        with self._lock:
            previous = self._epochs.get(shared_epoch.epoch)
            self._epochs[shared_epoch.epoch] = shared_epoch
        if previous is not None:  # re-publish of the same epoch (sketch refresh)
            previous.retire()
        return shared_epoch

    def get(self, epoch: int) -> Optional[SharedEpoch]:
        with self._lock:
            return self._epochs.get(epoch)

    def active_epochs(self) -> list[int]:
        with self._lock:
            return sorted(self._epochs)

    def retire(self, epoch: int) -> None:
        """Retire one epoch (unlinks when its last lease releases)."""
        with self._lock:
            shared_epoch = self._epochs.pop(epoch, None)
        if shared_epoch is not None:
            shared_epoch.retire()

    def retire_older_than(self, epoch: int) -> None:
        """Retire every epoch strictly older than ``epoch``."""
        with self._lock:
            stale = [e for e in self._epochs if e < epoch]
            epochs = [self._epochs.pop(e) for e in stale]
        for shared_epoch in epochs:
            shared_epoch.retire()

    def close(self) -> None:
        """Force-unlink everything (shutdown, after the drain completed)."""
        with self._lock:
            epochs = list(self._epochs.values())
            self._epochs.clear()
        for shared_epoch in epochs:
            shared_epoch.close()

    def summary(self) -> dict[str, object]:
        with self._lock:
            epochs = dict(self._epochs)
        return {
            "epochs": {
                str(epoch): {
                    "pins": shared.pins,
                    "retired": shared.retired,
                    "nbytes": shared.handle.nbytes,
                }
                for epoch, shared in sorted(epochs.items())
            },
            "total_nbytes": sum(s.handle.nbytes for s in epochs.values()),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._epochs)


__all__ = [
    "AttachedContext",
    "SegmentError",
    "SharedArraySpec",
    "SharedContextHandle",
    "SharedContextRegistry",
    "SharedEpoch",
    "SharedMemoryUnavailable",
    "StaleSegmentError",
    "attach_context",
    "install_shared_context",
    "publish_context",
    "shm_available",
]
