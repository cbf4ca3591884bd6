"""Unit tests for persistent preprocessing artifacts and warm starts."""

import io
import json

import numpy as np
import pytest

import repro.core.registry as registry_module
from repro.core.engine import QueryEngine
from repro.core.registry import QueryContext
from repro.graph.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.service.artifacts import (
    ArtifactError,
    MANIFEST_NAME,
    SKETCH_NAME,
    StaleArtifactError,
    graph_fingerprint,
    has_artifacts,
    load_context,
    load_sketch,
    save_artifacts,
)
from repro.service.sketch import LandmarkSketchStore


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(250, 4, rng=2)


class TestFingerprint:
    def test_identical_graphs_share_fingerprint(self, graph):
        twin = barabasi_albert_graph(250, 4, rng=2)
        assert graph_fingerprint(graph) == graph_fingerprint(twin)

    def test_structural_change_alters_fingerprint(self, graph):
        other = graph.remove_edges([next(graph.edges())])
        assert graph_fingerprint(graph) != graph_fingerprint(other)


class TestSaveLoad:
    def test_round_trip_restores_spectral_state(self, graph, tmp_path):
        context = QueryContext(graph, rng=1)
        save_artifacts(context, tmp_path)
        assert has_artifacts(tmp_path)
        restored = load_context(graph, tmp_path, rng=1)
        assert restored.lambda_max_abs == context.lambda_max_abs
        assert restored.spectral_info == context.spectral_info
        assert restored.delta == context.delta
        assert restored.num_batches == context.num_batches

    def test_warm_start_skips_eigendecomposition(self, graph, tmp_path, monkeypatch):
        save_artifacts(QueryContext(graph, rng=1), tmp_path)

        def _boom(*args, **kwargs):  # any eigen-solve on the warm path is a bug
            raise AssertionError("warm start ran the eigen-decomposition")

        monkeypatch.setattr(registry_module, "transition_eigenvalues", _boom)
        restored = load_context(graph, tmp_path, rng=1)
        assert restored.lambda_max_abs > 0
        assert restored.walk_length(0, 100, 0.1) > 0

    def test_warm_engine_matches_cold_engine_bitwise(self, graph, tmp_path):
        cold = QueryEngine(graph, rng=13)
        pairs = [(0, 100), (5, 200), (17, 42)]
        cold_values = [cold.query(s, t, 0.1).value for s, t in pairs]

        save_artifacts(QueryContext(graph, rng=13), tmp_path)
        warm = QueryEngine(context=load_context(graph, tmp_path, rng=13))
        warm_values = [warm.query(s, t, 0.1).value for s, t in pairs]
        assert warm_values == cold_values  # bit-for-bit, same seed

    def test_warm_matches_cold_on_arpack_sized_graph(self, tmp_path):
        # > 512 nodes takes the ARPACK spectral path; the eigen-solve must not
        # advance the session stream, or warm and cold values would diverge.
        big = barabasi_albert_graph(600, 4, rng=8)
        pairs = [(0, 400), (7, 311), (99, 555)]
        cold = QueryEngine(big, rng=7)
        cold_values = [cold.query(s, t, 0.2, method="amc").value for s, t in pairs]

        save_artifacts(QueryContext(big, rng=7), tmp_path)
        warm = QueryEngine(context=load_context(big, tmp_path, rng=7))
        warm_values = [warm.query(s, t, 0.2, method="amc").value for s, t in pairs]
        assert warm_values == cold_values

    def test_sketch_round_trip_is_bit_exact(self, graph, tmp_path):
        context = QueryContext(graph, rng=1)
        sketch = LandmarkSketchStore.build(graph, num_landmarks=5, strategy="degree")
        save_artifacts(context, tmp_path, sketch=sketch)
        restored = load_sketch(graph, tmp_path)
        assert restored is not None
        assert np.array_equal(restored.landmarks, sketch.landmarks)
        assert np.array_equal(restored.resistances, sketch.resistances)
        assert restored.strategy == "degree"

    def test_load_sketch_none_when_not_saved(self, graph, tmp_path):
        save_artifacts(QueryContext(graph, rng=1), tmp_path)
        assert load_sketch(graph, tmp_path) is None


class TestStalenessAndErrors:
    def test_stale_artifacts_rejected(self, graph, tmp_path):
        save_artifacts(QueryContext(graph, rng=1), tmp_path)
        other = watts_strogatz_graph(250, 6, 0.1, rng=3)
        with pytest.raises(StaleArtifactError):
            load_context(other, tmp_path)

    def test_missing_manifest(self, graph, tmp_path):
        with pytest.raises(ArtifactError):
            load_context(graph, tmp_path / "nowhere")
        assert not has_artifacts(tmp_path / "nowhere")

    def test_corrupt_manifest(self, graph, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError):
            load_context(graph, tmp_path)

    def test_unsupported_format_version(self, graph, tmp_path):
        save_artifacts(QueryContext(graph, rng=1), tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format_version"] = 999
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactError):
            load_context(graph, tmp_path)

    def test_artifact_files_written_atomically(self, graph, tmp_path):
        sketch = LandmarkSketchStore.build(graph, num_landmarks=3)
        save_artifacts(QueryContext(graph, rng=1), tmp_path, sketch=sketch)
        assert not (tmp_path / (MANIFEST_NAME + ".tmp")).exists()
        assert not (tmp_path / "sketch.npz.tmp").exists()


def _npz(**arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _npy(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _put(array, index, value):
    array = array.copy()
    array[index] = value
    return array


def _sketch_of_150_nodes(num_landmarks):
    small = LandmarkSketchStore.build(
        barabasi_albert_graph(150, 3, rng=2), num_landmarks=num_landmarks
    )
    return _npz(landmarks=small.landmarks, resistances=small.resistances)


# Each maps (file bytes, landmarks, resistances) of a sound five-landmark
# sketch of the 250-node graph to the bytes of a damaged or foreign one.
DAMAGED_SKETCHES = {
    "truncated": lambda raw, lm, r: raw[: len(raw) // 2],
    "empty": lambda raw, lm, r: b"",
    "plain-npy": lambda raw, lm, r: _npy(r),
    "missing-resistances": lambda raw, lm, r: _npz(landmarks=lm),
    "built-for-150-nodes": lambda raw, lm, r: _sketch_of_150_nodes(len(lm)),
    "float-landmarks": lambda raw, lm, r: _npz(
        landmarks=lm.astype(float), resistances=r
    ),
    "landmark-999": lambda raw, lm, r: _npz(landmarks=_put(lm, 1, 999), resistances=r),
    "duplicate-landmarks": lambda raw, lm, r: _npz(
        landmarks=_put(lm, 1, lm[0]), resistances=r
    ),
    "fewer-than-manifest": lambda raw, lm, r: _npz(
        landmarks=lm[:-1], resistances=r[:-1]
    ),
    "all-nan-resistances": lambda raw, lm, r: _npz(
        landmarks=lm, resistances=np.full_like(r, np.nan)
    ),
    "negative-resistance": lambda raw, lm, r: _npz(
        landmarks=lm, resistances=_put(r, (1, 7), -0.5)
    ),
}


class TestDamagedSketch:
    @pytest.mark.parametrize("damage", sorted(DAMAGED_SKETCHES))
    def test_damaged_sketch_raises_artifact_error(self, graph, tmp_path, damage):
        sketch = LandmarkSketchStore.build(graph, num_landmarks=5)
        save_artifacts(QueryContext(graph, rng=1), tmp_path, sketch=sketch)
        path = tmp_path / SKETCH_NAME
        damaged = DAMAGED_SKETCHES[damage](
            path.read_bytes(), sketch.landmarks, sketch.resistances
        )
        path.write_bytes(damaged)
        with pytest.raises(ArtifactError, match=SKETCH_NAME):
            load_sketch(graph, tmp_path)
