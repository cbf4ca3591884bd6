"""Observability over HTTP: /metrics, trace_id echo, slow log, pool counters."""

from __future__ import annotations

import json
import logging

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.net.client import ResistanceClient
from repro.net.server import NetServer, NetServerConfig
from repro.net.shm import shm_available
from repro.obs import CONTENT_TYPE
from repro.service import ResistanceService, ServiceConfig


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(120, 4, rng=5)


def _serve(graph, *, service_config=None, **net_kwargs):
    service = ResistanceService(
        graph, rng=42, config=service_config or ServiceConfig()
    )
    return NetServer(service, NetServerConfig(**net_kwargs))


def _series(text: str) -> dict[str, float]:
    """Parse an exposition body into ``{"name{labels}": value}``."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        out[key] = float(value)
    return out


def test_metrics_endpoint_serves_valid_exposition(graph):
    with _serve(graph) as server:
        client = ResistanceClient(server.url)
        client.wait_ready()
        client.query(3, 77, 0.2)       # engine or sketch tier
        client.query(3, 77, 0.2)       # cache tier
        client.query_batch([(0, 40), (5, 60)], 0.2)
        client.update(add=[[0, 100]])

        text = client.metrics()
        series = _series(text)

        # request-path series
        assert series['repro_http_requests_total{endpoint="/query",status="200"}'] == 2
        assert (
            series['repro_http_requests_total{endpoint="/query_batch",status="200"}']
            == 1
        )
        assert (
            series['repro_http_latency_seconds_count{endpoint="/query"}'] == 2
        )
        # tier counters: two of the three queried pairs repeat -> a cache hit
        assert series['repro_tier_answers_total{tier="cache"}'] >= 1
        assert sum(
            value
            for key, value in series.items()
            if key.startswith("repro_tier_answers_total")
        ) >= 4
        # per-method estimate series flow up from the engine funnel
        assert any(
            key.startswith("repro_queries_total{method=") for key in series
        )
        assert any(
            key.startswith("repro_query_latency_seconds_bucket") for key in series
        )
        # bridged Stats dataclasses: cache/sketch/service/session
        assert "repro_cache_insertions_total" in series
        assert "repro_sketch_lookups_total" in series
        assert series["repro_service_requests_total"] >= 4
        # epoch/update events
        assert series["repro_epoch"] == 1
        assert series["repro_updates_total"] == 1
        assert series["repro_update_latency_seconds_count"] == 1
        # histogram sanity: +Inf bucket equals the count
        assert (
            series['repro_tier_latency_seconds_bucket{tier="cache",le="+Inf"}']
            == series['repro_tier_latency_seconds_count{tier="cache"}']
        )


def test_metrics_content_type_and_http_get(graph):
    import urllib.request

    with _serve(graph) as server:
        ResistanceClient(server.url).wait_ready()
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as response:
            assert response.headers["Content-Type"] == CONTENT_TYPE
            body = response.read().decode("utf-8")
        assert body.endswith("\n")
        assert "# TYPE repro_http_requests_total counter" in body


def test_trace_id_round_trip(graph):
    with _serve(graph) as server:
        client = ResistanceClient(server.url)
        client.wait_ready()
        # server-assigned: 16 hex chars, distinct per request
        a = client.query(3, 77, 0.2)["trace_id"]
        b = client.query(0, 40, 0.2)["trace_id"]
        assert len(a) == len(b) == 16 and a != b

        # client-supplied ids are echoed verbatim on every endpoint
        answer = client._request(
            "POST",
            "/query",
            {"s": 3, "t": 77, "epsilon": 0.2, "trace_id": "cafe0123cafe0123"},
        )
        assert answer["trace_id"] == "cafe0123cafe0123"
        batch = client._request(
            "POST",
            "/query_batch",
            {"pairs": [[0, 40]], "epsilon": 0.2, "trace_id": "beef4567beef4567"},
        )
        assert batch["trace_id"] == "beef4567beef4567"
        update = client._request(
            "POST", "/update", {"add": [[0, 100]], "trace_id": "f00dba11f00dba11"}
        )
        assert update["trace_id"] == "f00dba11f00dba11"


def test_partial_answers_counted_under_their_own_metric(graph):
    with _serve(graph) as server:
        client = ResistanceClient(server.url)
        client.wait_ready()
        answer = client.query(5, 60, 0.05, deadline_ms=0)
        assert answer["partial"] is True
        series = _series(client.metrics())
        assert series["repro_partial_answers_total"] == 1
        stats = client.stats()
        assert stats["server"]["partials"] == 1
        assert stats["tiers"]["partial"] == 1


def test_slow_query_log_emits_structured_json(graph, caplog):
    with _serve(graph, slow_query_ms=0.0) as server:
        client = ResistanceClient(server.url)
        client.wait_ready()
        with caplog.at_level(logging.WARNING, logger="repro.net.slowlog"):
            answer = client.query(3, 77, 0.2)
        lines = [
            json.loads(record.message)
            for record in caplog.records
            if record.name == "repro.net.slowlog"
        ]
        assert lines, "no slow-query line was logged at a 0ms threshold"
        entry = lines[0]
        assert entry["event"] == "slow_query"
        assert entry["endpoint"] == "/query"
        assert entry["trace_id"] == answer["trace_id"]
        assert entry["elapsed_ms"] >= 0.0
        assert entry["threshold_ms"] == 0.0
        assert entry["s"] == 3 and entry["t"] == 77

        stats = client.stats()
        assert stats["server"]["slow_queries"] >= 1
        assert _series(client.metrics())["repro_slow_queries_total"] >= 1


def test_stats_exposes_tier_answer_counts(graph):
    with _serve(graph) as server:
        client = ResistanceClient(server.url)
        client.wait_ready()
        client.query(3, 77, 0.2)
        client.query(3, 77, 0.2)  # repeat -> cache
        tiers = client.stats()["tiers"]
        assert set(tiers) == {
            "cache", "sketch", "engine", "exact", "anytime", "partial", "degraded",
        }
        assert tiers["cache"] >= 1
        assert tiers["cache"] + tiers["sketch"] + tiers["engine"] == 2


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
def test_stats_includes_pool_worker_counters(graph):
    """Worker-side SessionStats merge into the parent /stats and /metrics."""
    config = ServiceConfig(use_cache=False, use_sketch=False)
    with _serve(graph, service_config=config, workers=2) as server:
        client = ResistanceClient(server.url)
        client.wait_ready()
        batch = client.query_batch(
            [(0, 40), (3, 99), (17, 71), (5, 60)], 0.05, deadline_ms=60_000
        )
        assert all(a["source"] == "engine" for a in batch["results"])

        pool = client.stats()["pool"]
        assert pool["workers"] == 2
        assert pool["batches"] >= 1
        assert pool["shards_dispatched"] >= 1
        assert pool["workers_reporting"] >= 1
        assert pool["worker_queries"] == 4
        assert pool["worker_walk_steps"] > 0
        assert pool["worker_attaches"] >= 1
        # per-worker breakdown carries the same totals
        assert sum(w["queries"] for w in pool["per_worker"].values()) == 4

        series = _series(client.metrics())
        assert series["repro_pool_workers"] == 2
        assert series["repro_pool_worker_queries_total"] == 4
        assert series["repro_pool_worker_walk_steps_total"] > 0
        assert series["repro_pool_batches_total"] >= 1
