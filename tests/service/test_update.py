"""ResistanceService.apply_update: end-to-end dynamic-graph serving."""

import numpy as np
import pytest

from repro.graph import EdgeDelta, barabasi_albert_graph, with_random_weights
from repro.service import ResistanceService, ServiceConfig, UpdateReport
from repro.service.artifacts import load_delta_log


@pytest.fixture()
def graph():
    return barabasi_albert_graph(200, 3, rng=21)


def _peripheral_insert(graph):
    """An insert between two low-degree, non-adjacent nodes (localized delta)."""
    order = np.argsort(graph.degrees)
    for i in range(len(order)):
        for j in range(i + 1, min(i + 20, len(order))):
            u, v = int(order[i]), int(order[j])
            if not graph.has_edge(u, v):
                return EdgeDelta(inserts=[(min(u, v), max(u, v))])
    raise AssertionError("no non-adjacent low-degree pair found")


class TestApplyUpdate:
    def test_report_shape_and_epoch(self, graph):
        service = ResistanceService(graph, rng=1)
        delta = _peripheral_insert(graph)
        report = service.apply_update(delta)
        assert isinstance(report, UpdateReport)
        assert report.epoch == service.epoch == 1
        assert report.changes == 1
        assert report.sketch_action == "marked-stale"
        assert service.stats.updates == 1
        assert "updates" in service.stats.summary()

    def test_cache_entries_far_from_delta_survive(self, graph):
        from repro.graph import expand_neighborhood

        service = ResistanceService(graph, rng=1)
        delta = _peripheral_insert(graph)
        post = delta.apply_to(graph)
        region = set(
            int(v)
            for g in (graph, post)
            for v in expand_neighborhood(g, delta.touched_nodes, 1)
        )
        outside = [v for v in range(graph.num_nodes) if v not in region]
        pairs = [(outside[0], outside[1]), (outside[2], outside[3])]
        for s, t in pairs:
            service.query(s, t, 0.5)
        report = service.apply_update(delta)
        assert report.invalidated_cache_entries == 0
        assert report.surviving_cache_entries >= len(pairs)
        for s, t in pairs:  # untouched pairs still answer from the cache
            assert service.cache.get(s, t, 0.5) is not None

    def test_cache_entries_on_touched_nodes_are_dropped(self, graph):
        config = ServiceConfig(use_sketch=False, invalidation_hops=0)
        service = ResistanceService(graph, config=config, rng=1)
        edges = [tuple(map(int, e)) for e in graph.edge_array()]
        u, v = edges[17]
        service.query(u, 100 if u != 100 else 101, 0.5)
        assert len(service.cache) == 1
        report = service.apply_update(EdgeDelta(removals=[(u, v)]))
        assert report.invalidated_cache_entries == 1
        assert len(service.cache) == 0

    def test_invalidation_hops_widen_the_region(self, graph):
        delta = _peripheral_insert(graph)
        dropped = {}
        for hops in (0, 1, 2):
            config = ServiceConfig(use_sketch=False, invalidation_hops=hops)
            service = ResistanceService(graph, config=config, rng=1)
            rng = np.random.default_rng(3)
            for _ in range(40):
                s, t = map(int, rng.integers(0, graph.num_nodes, 2))
                if s != t:
                    service.cache.put(s, t, 0.5, 1.0)
            dropped[hops] = service.apply_update(delta).invalidated_cache_entries
        assert dropped[0] <= dropped[1] <= dropped[2]

    def test_queries_after_update_match_cold_service(self, graph):
        service = ResistanceService(graph, rng=9)
        delta = _peripheral_insert(graph)
        service.apply_update(delta)
        cold = ResistanceService(delta.apply_to(graph), rng=9)
        a = service.query(4, 150, 0.4)
        b = cold.query(4, 150, 0.4)
        assert float(a.value).hex() == float(b.value).hex()

    def test_store_tracks_log_and_lineage(self, graph):
        service = ResistanceService(graph, rng=1)
        d1 = _peripheral_insert(graph)
        service.apply_update(d1)
        assert service.store.epoch == 1
        assert service.store.delta_log == (d1,)
        assert service.engine.lineage == service.store.lineage


class TestSketchRefreshPolicies:
    def test_eager_rebuilds_during_update(self, graph):
        config = ServiceConfig(sketch_refresh="eager")
        service = ResistanceService(graph, config=config, rng=1)
        old_sketch = service.sketch
        report = service.apply_update(_peripheral_insert(graph))
        assert report.sketch_action == "rebuilt"
        assert service.sketch is not old_sketch
        assert not service.sketch.stale
        assert service.stats.sketch_rebuilds == 1

    def test_on_next_read_rebuilds_lazily(self, graph):
        config = ServiceConfig(sketch_refresh="on-next-read")
        service = ResistanceService(graph, config=config, rng=1)
        old_sketch = service.sketch
        report = service.apply_update(_peripheral_insert(graph))
        assert report.sketch_action == "marked-stale"
        assert service.sketch is old_sketch and service.sketch.stale
        assert service.stats.sketch_rebuilds == 0
        service.query(0, 1, 1.0)  # loose ε: the rebuilt sketch can answer
        assert service.stats.sketch_rebuilds == 1
        assert not service.sketch.stale

    def test_budgeted_defers_until_enough_updates(self, graph):
        config = ServiceConfig(sketch_refresh="budgeted", sketch_refresh_budget=2)
        service = ResistanceService(graph, config=config, rng=1)
        delta = _peripheral_insert(graph)
        service.apply_update(delta)
        service.query(0, 1, 1.0)
        # one update < budget: the sketch layer is bypassed, not rebuilt
        assert service.stats.sketch_rebuilds == 0
        assert service.sketch.stale
        service.apply_update(EdgeDelta(removals=[delta.inserts[0][:2]]))
        service.query(0, 1, 1.0)
        assert service.stats.sketch_rebuilds == 1
        assert not service.sketch.stale

    def test_stale_sketch_never_answers(self, graph):
        config = ServiceConfig(sketch_refresh="budgeted", sketch_refresh_budget=99)
        service = ResistanceService(graph, config=config, rng=1)
        service.apply_update(_peripheral_insert(graph))
        result = service.query(0, 1, 10.0)  # ε the sketch would trivially meet
        assert result.method != "sketch"


class TestUpdateArtifacts:
    def test_save_after_update_records_log_and_replays(self, tmp_path, graph):
        service = ResistanceService(graph, rng=5)
        service.warm_up()
        delta = _peripheral_insert(graph)
        service.apply_update(delta)
        service.save_artifacts(tmp_path)
        assert load_delta_log(tmp_path) == [delta]
        # restart with only the BASE graph: the log replays to the saved epoch
        warm = ResistanceService(graph, rng=5, artifact_dir=tmp_path)
        assert warm.warm_started
        assert warm.epoch == 1
        assert warm.graph == delta.apply_to(graph)
        a = warm.query(2, 120, 0.4)
        cold = ResistanceService(delta.apply_to(graph), rng=5)
        b = cold.query(2, 120, 0.4)
        assert float(a.value).hex() == float(b.value).hex()

    def test_save_refreshes_stale_sketch(self, tmp_path, graph):
        service = ResistanceService(graph, rng=5)
        service.apply_update(_peripheral_insert(graph))
        assert service.sketch.stale
        service.save_artifacts(tmp_path)
        assert not service.sketch.stale

    def test_weighted_update_round_trip(self, tmp_path):
        graph = with_random_weights(barabasi_albert_graph(120, 3, rng=2), rng=3)
        service = ResistanceService(graph, rng=4)
        edges = [tuple(map(int, e)) for e in graph.edge_array()]
        delta = EdgeDelta(reweights=[edges[11] + (0.5,)])
        service.apply_update(delta)
        service.save_artifacts(tmp_path)
        warm = ResistanceService(graph, rng=4, artifact_dir=tmp_path)
        assert warm.warm_started and warm.epoch == 1
        assert warm.graph.edge_weight(*edges[11]) == 0.5


class TestUpdateCycleRegressions:
    """Regressions from review: repeated update→save cycles and atomicity."""

    def test_repeated_update_save_cycles_keep_base_replayable(self, tmp_path, graph):
        """Each warm reload must extend — not truncate — the persisted delta log."""
        deltas = []
        for round_number in range(3):
            service = ResistanceService(graph, rng=5, artifact_dir=tmp_path)
            if round_number:
                assert service.warm_started and service.epoch == round_number
            delta = _peripheral_insert(service.graph)
            deltas.append(delta)
            service.apply_update(delta)
            service.save_artifacts(tmp_path)
        assert load_delta_log(tmp_path) == deltas
        # the ORIGINAL base graph still replays the whole chain warm
        final = ResistanceService(graph, rng=5, artifact_dir=tmp_path)
        assert final.warm_started and final.epoch == 3
        current = graph
        for delta in deltas:
            current = delta.apply_to(current)
        assert final.graph == current

    def test_rejected_delta_leaves_no_trace(self, graph):
        """A delta the context refuses must not advance the store or the log."""
        from repro.exceptions import GraphStructureError

        service = ResistanceService(graph, rng=1)
        lineage_before = service.store.lineage
        bad = EdgeDelta(inserts=[tuple(map(int, graph.edge_array()[0]))])  # exists
        with pytest.raises(GraphStructureError):
            service.apply_update(bad)
        assert service.epoch == 0
        assert service.store.epoch == 0
        assert service.store.delta_log == ()
        assert service.store.lineage == lineage_before
        assert service.stats.updates == 0
        # a valid follow-up update does NOT smuggle in the failed delta
        good = _peripheral_insert(graph)
        service.apply_update(good)
        assert service.graph == good.apply_to(graph)

    def test_rejected_disconnecting_delta_keeps_store_in_sync(self):
        from repro.exceptions import GraphStructureError
        from repro.graph import from_edges

        # triangle + pendant: removing (2, 3) would isolate node 3
        base = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        service = ResistanceService(base, config=ServiceConfig(use_sketch=False), rng=1)
        with pytest.raises(GraphStructureError):
            service.apply_update(EdgeDelta(removals=[(2, 3)]))
        assert service.store.epoch == service.epoch == 0
        assert service.store.graph is service.graph is base
        # the served graph still answers for the pendant edge
        assert service.exact(2, 3) == pytest.approx(1.0, abs=1e-6)
