"""Integration tests for the ResistanceService facade (the PR's acceptance bar)."""

import numpy as np
import pytest

import repro.core.registry as registry_module
from repro.core.engine import QueryEngine
from repro.graph.generators import barabasi_albert_graph
from repro.service.server import ResistanceService, ServiceConfig


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(250, 4, rng=6)


def _engine_only_config(**overrides):
    return ServiceConfig(use_cache=True, use_sketch=False, **overrides)


class TestCachePath:
    def test_repeated_query_served_from_cache_with_zero_walk_steps(self, graph):
        service = ResistanceService(graph, config=_engine_only_config(), rng=7)
        first = service.query(3, 99, 0.1)
        assert first.details["source"] == "engine"
        assert first.total_steps > 0

        steps_before = service.engine.stats.total_steps
        queries_before = service.engine.stats.num_queries
        second = service.query(3, 99, 0.1)
        assert second.method == "cache"
        assert second.value == first.value
        assert second.total_steps == 0 and second.spmv_operations == 0
        # The engine did no work at all for the repeat: zero new walk steps.
        assert service.engine.stats.total_steps == steps_before
        assert service.engine.stats.num_queries == queries_before
        assert service.stats.cache_hits == 1

    def test_cache_serves_looser_epsilon(self, graph):
        service = ResistanceService(graph, config=_engine_only_config(), rng=7)
        service.query(3, 99, 0.1)
        looser = service.query(99, 3, 0.4)  # reversed and looser: still a hit
        assert looser.method == "cache"
        tighter = service.query(3, 99, 0.01)  # tighter: must re-run the engine
        assert tighter.details["source"] == "engine"

    def test_budget_exhausted_results_never_cached(self, graph):
        from repro.core.registry import QueryBudget

        service = ResistanceService(
            graph,
            config=_engine_only_config(method="amc"),
            rng=7,
            budget=QueryBudget(max_total_steps=50),
        )
        cut_off = service.query(3, 99, 0.05)
        assert cut_off.budget_exhausted  # sanity: the cap actually triggered
        # The unguaranteed value must not be served as an ε-answer later.
        repeat = service.query(3, 99, 0.05)
        assert repeat.method != "cache"
        assert service.stats.cache_hits == 0

    def test_batch_results_populate_cache_via_hook(self, graph):
        service = ResistanceService(
            graph, config=_engine_only_config(method="smm"), rng=7
        )
        pairs = [(0, 40), (3, 99), (7, 77)]
        service.query_many(pairs, 0.2)
        for s, t in pairs:
            assert service.query(s, t, 0.2).method == "cache"


class TestSketchPath:
    def test_sketch_hit_avoids_engine(self, graph):
        service = ResistanceService(graph, rng=7)
        landmark = int(service.sketch.landmarks[0])
        other = 17 if landmark != 17 else 18
        result = service.query(landmark, other, 0.1)
        assert result.method == "sketch"
        assert result.total_steps == 0
        assert service.engine.stats.num_queries == 0
        assert result.value == pytest.approx(service.exact(landmark, other), abs=1e-6)

    def test_sketch_answer_feeds_cache(self, graph):
        service = ResistanceService(graph, rng=7)
        landmark = int(service.sketch.landmarks[0])
        other = 17 if landmark != 17 else 18
        service.query(landmark, other, 0.1)
        repeat = service.query(landmark, other, 0.1)
        assert repeat.method == "cache"
        assert service.stats.sketch_hits == 1 and service.stats.cache_hits == 1

    def test_sketch_disabled_above_max_nodes(self, graph):
        config = ServiceConfig(sketch_max_nodes=10)
        service = ResistanceService(graph, config=config, rng=7)
        assert service.sketch is None

    def test_sketch_values_respect_epsilon(self, graph):
        service = ResistanceService(graph, rng=7)
        rng = np.random.default_rng(0)
        for _ in range(25):
            s, t = map(int, rng.choice(graph.num_nodes, size=2, replace=False))
            result = service.query(s, t, 0.25)
            if result.method == "sketch":
                assert abs(result.value - service.exact(s, t)) <= 0.25 + 1e-7


class TestQueryMany:
    def test_order_preserved_and_sources_mixed(self, graph):
        service = ResistanceService(graph, config=_engine_only_config(), rng=7)
        service.query(3, 99, 0.2)  # warm one pair
        results = service.query_many([(0, 40), (3, 99), (7, 77)], 0.2)
        assert [(r.s, r.t) for r in results] == [(0, 40), (3, 99), (7, 77)]
        assert results[1].method == "cache"
        assert results[0].details["source"] == "engine"

    def test_duplicate_pairs_execute_once(self, graph):
        service = ResistanceService(
            graph, config=_engine_only_config(method="smm"), rng=7
        )
        results = service.query_many([(0, 40), (40, 0), (0, 40), (3, 99)], 0.2)
        assert service.engine.stats.num_queries == 2  # two distinct pairs
        assert results[0].value == results[1].value == results[2].value
        assert service.stats.engine_queries == 2
        assert service.stats.requests == 4

    def test_all_hits_skip_engine_entirely(self, graph):
        service = ResistanceService(graph, config=_engine_only_config(), rng=7)
        pairs = [(0, 40), (3, 99)]
        service.query_many(pairs, 0.2)
        queries_before = service.engine.stats.num_queries
        service.query_many(pairs, 0.3)
        assert service.engine.stats.num_queries == queries_before


class TestWarmStart:
    def test_warm_service_skips_eigendecomposition_and_matches_cold(
        self, graph, tmp_path, monkeypatch
    ):
        pairs = [(0, 100), (5, 200), (17, 42)]
        cold = QueryEngine(graph, rng=21)
        cold_values = [cold.query(s, t, 0.1).value for s, t in pairs]

        builder = ResistanceService(graph, rng=21)
        builder.warm_up()
        builder.save_artifacts(tmp_path)

        def _boom(*args, **kwargs):
            raise AssertionError("warm service start ran the eigen-decomposition")

        monkeypatch.setattr(registry_module, "transition_eigenvalues", _boom)
        warm = ResistanceService(graph, rng=21, artifact_dir=tmp_path)
        assert warm.warm_started
        # Bypass cache/sketch shortcuts to compare raw engine values.
        warm_values = [warm.engine.query(s, t, 0.1).value for s, t in pairs]
        assert warm_values == cold_values

    def test_warm_start_restores_sketch(self, graph, tmp_path):
        builder = ResistanceService(graph, rng=7)
        builder.warm_up()
        builder.save_artifacts(tmp_path)
        warm = ResistanceService(graph, rng=7, artifact_dir=tmp_path)
        assert warm.sketch is not None
        assert np.array_equal(warm.sketch.resistances, builder.sketch.resistances)

    def test_warm_start_honours_caller_config_over_manifest(self, graph, tmp_path):
        builder = ResistanceService(graph, rng=7)  # manifest gets delta=0.01
        builder.warm_up()
        builder.save_artifacts(tmp_path)
        config = ServiceConfig(delta=0.001, num_batches=7)
        warm = ResistanceService(graph, config=config, rng=7, artifact_dir=tmp_path)
        assert warm.engine.delta == 0.001
        assert warm.engine.num_batches == 7

    def test_cold_start_when_directory_empty(self, graph, tmp_path):
        service = ResistanceService(graph, rng=7, artifact_dir=tmp_path / "empty")
        assert not service.warm_started

    def test_save_requires_a_directory(self, graph):
        service = ResistanceService(graph, config=_engine_only_config(), rng=7)
        with pytest.raises(ValueError):
            service.save_artifacts()


class TestStatsAndValidation:
    def test_summary_reports_every_active_layer(self, graph):
        service = ResistanceService(graph, rng=7)
        service.query(0, 100, 0.2)
        service.query(0, 100, 0.2)
        summary = service.summary()
        assert set(summary) >= {"service", "cache", "sketch", "session"}
        assert summary["service"]["requests"] == 2
        assert summary["service"]["offload_rate"] > 0

    def test_invalid_inputs_rejected(self, graph):
        service = ResistanceService(graph, config=_engine_only_config(), rng=7)
        with pytest.raises(ValueError):
            service.query(0, 10_000, 0.1)
        with pytest.raises(ValueError):
            service.query(0, 1, 0.0)
        with pytest.raises(ValueError):
            ResistanceService()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected_at_config(self, workers):
        # Checked at construction: otherwise a 0 surfaces only when an
        # in-process batch runs, failing every engine-bound /query_batch.
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=workers)

    def test_unknown_method_surfaces_as_value_error(self, graph):
        service = ResistanceService(graph, config=_engine_only_config(), rng=7)
        with pytest.raises(ValueError):
            service.query(0, 1, 0.1, method="bogus")
