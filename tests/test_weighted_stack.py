"""End-to-end weighted-graph coverage of the upper layers.

The graph/linalg/sampling layers have dedicated weighted unit tests; this file
checks that weights survive the whole stack: the query engine and batch
planner, parallel execution, the serving layer (artifacts + sketch) and the
CLI on a weighted edge list.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactEffectiveResistance
from repro.core.engine import QueryEngine
from repro.core.registry import QueryContext
from repro.graph.builders import with_random_weights
from repro.graph.generators import barabasi_albert_graph
from repro.graph.io import write_edge_list
from repro.service.artifacts import (
    StaleArtifactError,
    graph_fingerprint,
    load_bundle,
    save_artifacts,
)
from repro.service.sketch import LandmarkSketchStore


@pytest.fixture(scope="module")
def weighted_graph():
    return with_random_weights(barabasi_albert_graph(120, 4, rng=30), rng=31)


@pytest.fixture(scope="module")
def weighted_oracle(weighted_graph):
    return ExactEffectiveResistance(weighted_graph)


class TestEngineAndBatch:
    def test_query_accuracy_on_weighted_graph(self, weighted_graph, weighted_oracle):
        engine = QueryEngine(weighted_graph, rng=5)
        for method in ("geer", "amc", "smm"):
            result = engine.query(3, 40, 0.25, method=method)
            assert abs(result.value - weighted_oracle.query(3, 40)) <= 0.25 + 1e-9

    def test_batch_matches_sequential_loop_bitwise(self, weighted_graph):
        pairs = [(0, 10), (3, 40), (7, 99), (0, 10)]
        looped = QueryEngine(weighted_graph, rng=77)
        planned = QueryEngine(weighted_graph, rng=77)
        expected = [looped.query(s, t, 0.3, method="geer").value for s, t in pairs]
        batch = planned.query_many(pairs, 0.3, method="geer")
        assert np.array_equal(np.array(expected), batch.values)

    def test_bucketing_uses_weighted_degrees(self, weighted_graph):
        engine = QueryEngine(weighted_graph, rng=1)
        plan = engine.plan([(0, 10), (3, 40)], 0.3, method="geer")
        for bucket in plan.buckets:
            d_lo, d_hi = bucket.key
            assert isinstance(d_lo, float) and isinstance(d_hi, float)
            # weighted degrees are non-integer with probability 1
            assert d_lo != int(d_lo) or d_hi != int(d_hi)

    def test_parallel_workers_deterministic_on_weighted(self, weighted_graph):
        pairs = [(0, 10), (3, 40), (7, 99), (11, 64)]
        one = QueryEngine(weighted_graph, rng=9).query_many(
            pairs, 0.3, method="amc", workers=2
        )
        two = QueryEngine(weighted_graph, rng=9).query_many(
            pairs, 0.3, method="amc", workers=4
        )
        assert np.array_equal(one.values, two.values)

    def test_vectorized_smm_matches_scalar_on_weighted(self, weighted_graph):
        pairs = [(0, 10), (3, 40), (7, 99)]
        engine = QueryEngine(weighted_graph, rng=2)
        batch = engine.query_many(pairs, 0.3, method="smm")
        scalar = [engine.query(s, t, 0.3, method="smm").value for s, t in pairs]
        assert np.allclose(batch.values, scalar, rtol=1e-12, atol=1e-12)


class TestServiceLayer:
    def test_fingerprint_distinguishes_weights(self, weighted_graph):
        unweighted = weighted_graph.unweighted()
        assert graph_fingerprint(weighted_graph) != graph_fingerprint(unweighted)
        # rescaled weights change the fingerprint too
        rescaled = unweighted.with_weights(weighted_graph.edge_weight_array() * 2.0)
        assert graph_fingerprint(rescaled) != graph_fingerprint(weighted_graph)

    def test_artifact_round_trip_on_weighted_graph(self, weighted_graph, tmp_path):
        context = QueryContext(weighted_graph, rng=3)
        sketch = LandmarkSketchStore.build(weighted_graph, num_landmarks=4)
        save_artifacts(context, tmp_path, sketch=sketch)
        restored_context, restored_sketch = load_bundle(weighted_graph, tmp_path, rng=3)
        assert restored_context.lambda_max_abs == context.lambda_max_abs
        assert np.array_equal(restored_sketch.resistances, sketch.resistances)

    def test_artifacts_for_unweighted_twin_are_stale(self, weighted_graph, tmp_path):
        context = QueryContext(weighted_graph, rng=3)
        save_artifacts(context, tmp_path)
        with pytest.raises(StaleArtifactError):
            load_bundle(weighted_graph.unweighted(), tmp_path)

    def test_sketch_bounds_valid_on_weighted_graph(
        self, weighted_graph, weighted_oracle
    ):
        store = LandmarkSketchStore.build(weighted_graph, num_landmarks=6)
        rng = np.random.default_rng(8)
        for _ in range(25):
            s, t = map(int, rng.integers(0, weighted_graph.num_nodes, size=2))
            answer = store.bounds(s, t)
            exact = weighted_oracle.query(s, t)
            assert answer.lower - 1e-8 <= exact <= answer.upper + 1e-8

    def test_sketch_landmark_queries_exact_on_weighted(
        self, weighted_graph, weighted_oracle
    ):
        store = LandmarkSketchStore.build(weighted_graph, num_landmarks=4)
        landmark = int(store.landmarks[1])
        answer = store.bounds(landmark, 17)
        assert answer.half_width <= 1e-8
        assert answer.midpoint == pytest.approx(
            weighted_oracle.query(landmark, 17), abs=1e-7
        )


class TestWeightedCli:
    def test_query_on_weighted_edge_list(self, tmp_path, capsys):
        from repro.cli import main

        graph = with_random_weights(barabasi_albert_graph(40, 3, rng=12), rng=13)
        path = tmp_path / "weighted.txt"
        write_edge_list(graph, path)
        code = main(
            ["query", "--edge-list", str(path), "--method", "smm", "--exact", "1,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "weighted (W=" in out
        assert "abs error" in out
