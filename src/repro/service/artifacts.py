"""Persistent preprocessing artifacts: warm process starts without ARPACK.

The paper treats preprocessing — the spectral radius λ of the transition
matrix and anything derived from it — as a one-off per graph, but a process
restart used to repeat all of it.  This module persists the preprocessing
state of a :class:`~repro.core.registry.QueryContext` (and optionally a
:class:`~repro.service.sketch.LandmarkSketchStore`) to an artifact directory:

``manifest.json``
    Format version, a SHA-256 **graph fingerprint** (over the CSR arrays, so
    any structural change to the graph invalidates the artifacts), the graph
    **epoch** and **lineage** (the fingerprint chain of
    :mod:`repro.graph.fingerprint`, covering every delta absorbed since the
    base graph), and the scalar preprocessing state from
    :meth:`QueryContext.export_preprocessing`.
``sketch.npz``
    The landmark ids and the exact ``(k, n)`` landmark resistance matrix,
    when a sketch was saved alongside the context.
``deltas.jsonl``
    The delta log (one :class:`~repro.graph.delta.EdgeDelta` JSON line per
    applied update), when a :class:`~repro.graph.delta.GraphStore` was saved
    alongside the context.

:func:`load_context` rebuilds a context whose spectral info comes from the
manifest — the eigen-decomposition is *skipped*, and because the restored
:class:`SpectralInfo` carries the exact persisted scalars, a warm engine
returns values identical to a cold one under the same seed.  A fingerprint
mismatch raises :class:`StaleArtifactError` instead of silently serving
answers for a different graph — unless the caller holds the **base** graph
and the directory carries the delta log, in which case the log is replayed
(bit-identical CSR splicing) and the artifacts load without a cold solve,
verified against the saved fingerprint and lineage.

Writes are crash-safe (Contract 7): every file goes through a same-directory
temp file, ``fsync``, ``os.replace``, and a directory ``fsync``
(:func:`repro.fault.atomic_write_bytes`), so a crash at any instant leaves
either the previous complete file or the new complete file.  The delta log is
written with per-record CRC32 + length framing
(:func:`repro.fault.frame_record`); on load a damaged **final** record is
recognised as a torn append and recovery proceeds from the last intact
record, while damage anywhere else — or a log too short for the manifest's
lineage — raises a clear :class:`StaleArtifactError` instead of ever loading
a corrupt graph.  Pre-PR-8 unframed logs remain readable.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.registry import QueryBudget, QueryContext
from repro.exceptions import GraphStructureError, ReproError
from repro.fault import (
    FAULTS,
    FailpointTriggered,
    JournalCorruptError,
    LogReadReport,
    atomic_write_bytes,
    atomic_write_text,
    frame_records,
    read_log,
)
from repro.graph.delta import EdgeDelta, GraphStore
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.graph import Graph
from repro.service.sketch import LandmarkSketchStore
from repro.utils.rng import RngLike

PathLike = Union[str, os.PathLike]

ARTIFACT_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
SKETCH_NAME = "sketch.npz"
DELTA_LOG_NAME = "deltas.jsonl"


class ArtifactError(ReproError):
    """Raised when an artifact directory is missing, corrupt, or incompatible."""


class StaleArtifactError(ArtifactError):
    """Raised when artifacts were built for a different graph than the one given."""


def _write_torn(path: Path, data: bytes, drop_bytes: int, failpoint: str) -> None:
    """Leave a torn file at ``path`` (simulated crash mid-write) and raise.

    Used by the ``artifacts:torn_write`` / ``delta:partial_append``
    failpoints: the final path receives a truncated byte prefix — exactly
    the state a power cut mid-write would leave without the atomic
    tmp+fsync+rename discipline — and the save fails loudly.
    """
    cut = max(0, len(data) - max(1, drop_bytes))
    path.write_bytes(data[:cut])
    raise FailpointTriggered(failpoint)


def save_artifacts(
    context: QueryContext,
    directory: PathLike,
    *,
    sketch: Optional[LandmarkSketchStore] = None,
    store: Optional[GraphStore] = None,
) -> Path:
    """Persist a context's preprocessing (and optionally a sketch) to disk.

    Forces the spectral solve if it has not happened yet, then writes the
    sketch arrays first and the manifest last — a directory containing a valid
    manifest is therefore always complete.  Returns the manifest path.

    With a :class:`~repro.graph.delta.GraphStore` the manifest additionally
    records the delta lineage (base fingerprint, epoch, chain digest) and the
    delta log is written to ``deltas.jsonl`` — which is what lets a later
    process holding only the *base* graph replay to the saved epoch and load
    warm (see :func:`load_bundle`).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # One O(m) digest serves the manifest fingerprint, an epoch-0 context's
    # lineage, and a fresh store's base fingerprint (they are all the same
    # value until a delta is applied).
    fingerprint = graph_fingerprint(context.graph)
    if context.known_lineage is None and context.epoch == 0:
        context.adopt_lineage(fingerprint)
    if store is not None:
        store.seed_base_fingerprint(context.graph, fingerprint)
    manifest: dict[str, object] = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "num_nodes": context.graph.num_nodes,
        "num_edges": context.graph.num_edges,
        "epoch": context.epoch,
        "lineage": context.lineage,
        "preprocessing": context.export_preprocessing(),
        "has_sketch": sketch is not None,
    }
    if store is not None:
        manifest["base_fingerprint"] = store.base_fingerprint
        manifest["base_epoch"] = store.base_epoch
        manifest["num_deltas"] = len(store.delta_log)
        log_path = directory / DELTA_LOG_NAME
        log_text = frame_records(delta.to_json() for delta in store.delta_log)
        if store.delta_log and FAULTS.fire("delta:partial_append") is not None:
            # Torn append: the final record loses its tail mid-bytes.
            _write_torn(
                log_path, log_text.encode("utf-8"), 7, "delta:partial_append"
            )
        atomic_write_text(log_path, log_text)
    if sketch is not None:
        manifest["sketch"] = {
            "num_landmarks": sketch.num_landmarks,
            "strategy": sketch.strategy,
        }
        sketch_path = directory / SKETCH_NAME
        sketch_tmp = sketch_path.with_name(sketch_path.name + ".tmp")
        with open(sketch_tmp, "wb") as handle:
            np.savez(
                handle,
                landmarks=sketch.landmarks,
                resistances=sketch.resistances,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(sketch_tmp, sketch_path)
    manifest_path = directory / MANIFEST_NAME
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True)
    if FAULTS.fire("artifacts:torn_write") is not None:
        # Crash mid-manifest-write: leave a truncated (invalid-JSON) manifest.
        data = manifest_text.encode("utf-8")
        _write_torn(manifest_path, data, len(data) // 2, "artifacts:torn_write")
    atomic_write_text(manifest_path, manifest_text)
    return manifest_path


def has_artifacts(directory: PathLike) -> bool:
    """Whether ``directory`` holds a readable manifest."""
    return (Path(directory) / MANIFEST_NAME).is_file()


def load_manifest(directory: PathLike) -> dict:
    """Read and validate the manifest of an artifact directory."""
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no artifact manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"corrupt artifact manifest at {manifest_path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"artifact format version {version!r} is not supported "
            f"(expected {ARTIFACT_FORMAT_VERSION})"
        )
    return manifest


def _check_fingerprint(graph: Graph, manifest: dict, directory: Path) -> None:
    expected = manifest.get("fingerprint")
    actual = graph_fingerprint(graph)
    if expected != actual:
        raise StaleArtifactError(
            f"artifacts in {directory} were built for a different graph "
            f"(stored fingerprint {str(expected)[:12]}…, graph has {actual[:12]}…); "
            "re-run warm-up to rebuild them"
        )


def read_delta_log(path: PathLike) -> list[EdgeDelta]:
    """Parse a ``deltas.jsonl`` file (framed since PR 8, plain lines before).

    A torn final record (crash mid-append) is dropped and the intact prefix
    returned — callers that must know whether a drop happened use
    :func:`read_delta_log_with_report`.  Damage that torn-tail recovery
    cannot explain raises :class:`ArtifactError`.
    """
    return read_delta_log_with_report(path)[0]


def read_delta_log_with_report(
    path: PathLike,
) -> tuple[list[EdgeDelta], LogReadReport]:
    """Like :func:`read_delta_log`, plus the framing/recovery report."""
    try:
        payloads, report = read_log(path)
    except JournalCorruptError as exc:
        raise ArtifactError(f"corrupt delta log: {exc}") from exc
    deltas = []
    for record_number, payload in enumerate(payloads, start=1):
        try:
            deltas.append(EdgeDelta.from_json(payload))
        except (json.JSONDecodeError, ValueError, TypeError, GraphStructureError) as exc:
            raise ArtifactError(
                f"corrupt delta log {path} at record {record_number}: {exc}"
            ) from exc
    return deltas, report


def load_delta_log(directory: PathLike) -> list[EdgeDelta]:
    """The persisted delta log of an artifact directory ([] when none was saved)."""
    log_path = Path(directory) / DELTA_LOG_NAME
    if not log_path.is_file():
        return []
    return read_delta_log(log_path)


def _resolve_graph(
    graph: Graph, manifest: dict, directory: Path, replay_deltas: bool
) -> tuple[Graph, Sequence[EdgeDelta]]:
    """Match ``graph`` to the manifest, replaying the delta log if needed.

    Returns the graph the artifacts are valid for (``graph`` itself on a
    direct fingerprint match, or the post-replay graph when ``graph`` is the
    recorded *base* and the log replays to the saved fingerprint) plus the
    deltas that were replayed.  Anything else raises
    :class:`StaleArtifactError` — stale artifacts are never served without a
    matching lineage.
    """
    actual = graph_fingerprint(graph)
    if actual == manifest.get("fingerprint"):
        return graph, ()
    log_path = directory / DELTA_LOG_NAME
    if (
        replay_deltas
        and manifest.get("base_fingerprint") == actual
        and log_path.is_file()
    ):
        deltas, report = read_delta_log_with_report(log_path)
        expected_records = manifest.get("num_deltas")
        if isinstance(expected_records, int):
            if len(deltas) < expected_records:
                # The log lost records the manifest lineage requires (e.g. a
                # torn tail ate a committed delta): replay cannot reach the
                # saved graph, so refuse with the lineage story spelled out.
                raise StaleArtifactError(
                    f"the delta log in {directory} holds {len(deltas)} intact "
                    f"record(s) but the manifest lineage requires "
                    f"{expected_records}"
                    + (
                        " (a torn final record was dropped during recovery)"
                        if report.recovered
                        else ""
                    )
                    + "; re-run warm-up to rebuild the artifacts"
                )
            # Records past the manifest count are an append the manifest never
            # committed (crash between log append and manifest write): replay
            # exactly the committed prefix.
            deltas = deltas[:expected_records]
        current = graph
        try:
            for delta in deltas:
                current = delta.apply_to(current)
        except (GraphStructureError, ValueError) as exc:
            # A log that does not even apply to the claimed base graph is as
            # stale as a fingerprint mismatch — refuse with the same contract.
            raise StaleArtifactError(
                f"the delta log in {directory} does not apply cleanly to the "
                f"given base graph ({exc}); re-run warm-up to rebuild the "
                "artifacts"
            ) from exc
        if graph_fingerprint(current) != manifest.get("fingerprint"):
            raise StaleArtifactError(
                f"replaying the {len(deltas)}-entry delta log in {directory} "
                "did not reach the graph the artifacts were built for; "
                "re-run warm-up to rebuild them"
            )
        return current, deltas
    _check_fingerprint(graph, manifest, directory)
    raise AssertionError("unreachable")  # pragma: no cover


def load_bundle(
    graph: Graph,
    directory: PathLike,
    *,
    rng: RngLike = None,
    budget: Optional[QueryBudget] = None,
    validate: bool = True,
    with_sketch: bool = True,
    replay_deltas: bool = True,
    with_store: bool = False,
):
    """Restore the context and (optionally) the sketch in one validated pass.

    The manifest is parsed and the O(m) graph fingerprint computed exactly
    once, which is what :class:`~repro.service.server.ResistanceService` uses
    for warm starts.  When ``graph`` is not the graph the artifacts were
    saved for but *is* the recorded base of a persisted delta log (and
    ``replay_deltas`` is true), the log is replayed onto it and the restored
    context lives at the saved epoch/lineage — a saved context plus a delta
    log therefore reloads without a cold solve.  The returned context's graph
    is the artifact graph, which may differ from the ``graph`` argument in
    exactly that replay case.

    With ``with_store`` a third element is returned: a
    :class:`~repro.graph.delta.GraphStore` that **adopts** the persisted
    lineage — base fingerprint and full delta log included — so that further
    updates extend (rather than restart) the replayable history when the
    directory is saved again.

    Raises
    ------
    ArtifactError
        When the directory has no (or a corrupt/incompatible) manifest.
    StaleArtifactError
        When the artifacts were built for a structurally different graph and
        no delta-log replay can bridge the difference.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    target_graph, _replayed = _resolve_graph(graph, manifest, directory, replay_deltas)
    context = QueryContext.from_preprocessing(
        target_graph,
        manifest["preprocessing"],
        rng=rng,
        budget=budget,
        validate=validate,
    )
    context.epoch = int(manifest.get("epoch", 0))
    lineage = manifest.get("lineage")
    if lineage is not None:
        context.adopt_lineage(lineage)
    sketch = None
    if with_sketch and manifest.get("has_sketch"):
        sketch = _read_sketch(target_graph, directory, manifest)
    if not with_store:
        return context, sketch
    base_fingerprint = manifest.get("base_fingerprint")
    log = list(_replayed) if _replayed else load_delta_log(directory)
    if base_fingerprint is None or not log:
        store = GraphStore(
            target_graph,
            epoch=context.epoch,
            lineage=context.known_lineage,
            base_fingerprint=manifest.get("fingerprint") if not log else None,
        )
    else:
        store = GraphStore(
            target_graph,
            epoch=context.epoch,
            lineage=context.known_lineage,
            base_fingerprint=base_fingerprint,
            delta_log=log,
        )
    return context, sketch, store


def _read_sketch(graph: Graph, directory: Path, manifest: dict) -> LandmarkSketchStore:
    """Load ``sketch.npz``, refusing any file the manifest's sketch could not be.

    A damaged, empty or foreign file — or arrays that are not ``k`` distinct
    in-range landmark ids beside a finite non-negative ``(k, n)`` resistance
    matrix — raises :class:`ArtifactError` naming the file, never a numpy or
    zipfile error and never a store that would serve invalid bounds.
    """
    sketch_path = directory / SKETCH_NAME
    if not sketch_path.is_file():
        raise ArtifactError(f"manifest promises a sketch but {sketch_path} is missing")
    # The except clause lists what np.load raises on a damaged or foreign file:
    # a truncated or flipped archive, an empty file, pickled data, a missing
    # member.
    try:
        payload = np.load(sketch_path)
        if not isinstance(payload, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with payload:
            landmarks = payload["landmarks"]
            resistances = payload["resistances"]
    except (
        OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error
    ) as exc:
        raise ArtifactError(f"corrupt landmark sketch {sketch_path}: {exc}") from exc
    meta = manifest.get("sketch")
    meta = meta if isinstance(meta, dict) else {}
    problem = _sketch_array_problem(
        landmarks, resistances, graph.num_nodes, meta.get("num_landmarks")
    )
    if problem is not None:
        raise ArtifactError(f"corrupt landmark sketch {sketch_path}: {problem}")
    strategy = str(meta.get("strategy", "degree"))
    return LandmarkSketchStore.from_arrays(
        graph, landmarks, resistances, strategy=strategy
    )


def _sketch_array_problem(
    landmarks: np.ndarray,
    resistances: np.ndarray,
    num_nodes: int,
    num_landmarks: object,
) -> Optional[str]:
    """What makes persisted sketch arrays unusable, or None when they are sound."""
    if landmarks.ndim != 1 or not np.issubdtype(landmarks.dtype, np.integer):
        return f"landmarks must be a 1-D integer array, got {landmarks.dtype}"
    k = len(landmarks)
    if k == 0:
        return "no landmarks stored"
    if k != num_landmarks:
        return f"{k} landmarks stored but the manifest records {num_landmarks!r}"
    if landmarks.min() < 0 or landmarks.max() >= num_nodes:
        return f"landmark ids must lie in [0, {num_nodes})"
    if len(np.unique(landmarks)) != k:
        return "landmark ids must be distinct"
    expected = (k, num_nodes)
    is_float = np.issubdtype(resistances.dtype, np.floating)
    if resistances.shape != expected or not is_float:
        return (
            f"resistances must be a float {expected} array, "
            f"got {resistances.dtype} {resistances.shape}"
        )
    if not np.all(np.isfinite(resistances)):
        return "resistances must be finite"
    if np.any(resistances < 0):
        return "resistances must be non-negative"
    return None


def load_context(
    graph: Graph,
    directory: PathLike,
    *,
    rng: RngLike = None,
    budget: Optional[QueryBudget] = None,
    validate: bool = True,
) -> QueryContext:
    """Rebuild a :class:`QueryContext` from saved artifacts, skipping ARPACK.

    See :func:`load_bundle` for the raised errors (and for restoring the
    context and sketch together without re-validating the manifest).
    """
    context, _ = load_bundle(
        graph, directory, rng=rng, budget=budget, validate=validate, with_sketch=False
    )
    return context


def load_sketch(graph: Graph, directory: PathLike) -> Optional[LandmarkSketchStore]:
    """Restore the persisted landmark sketch, or None when none was saved."""
    directory = Path(directory)
    manifest = load_manifest(directory)
    if not manifest.get("has_sketch"):
        return None
    _check_fingerprint(graph, manifest, directory)
    return _read_sketch(graph, directory, manifest)


__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "MANIFEST_NAME",
    "SKETCH_NAME",
    "DELTA_LOG_NAME",
    "ArtifactError",
    "StaleArtifactError",
    "graph_fingerprint",
    "save_artifacts",
    "has_artifacts",
    "load_manifest",
    "load_bundle",
    "load_context",
    "load_sketch",
    "read_delta_log",
    "read_delta_log_with_report",
    "load_delta_log",
]
