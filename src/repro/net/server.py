"""Asyncio HTTP/JSON front-end over :class:`repro.service.ResistanceService`.

The server is the network edge of the serving stack: requests arrive as JSON
over plain HTTP/1.1 (stdlib only — ``asyncio.start_server`` plus a minimal
request parser), flow through the existing layered service (cache → sketch →
engine), and — when shared memory is available — the engine tier executes on
a persistent :class:`~repro.net.pool.SharedWorkerPool` whose workers attached
to the published segments once at startup.

Three serving policies live here rather than in the service:

* **Deadline budgets** — each request carries ``deadline_ms`` (or inherits
  the configured default).  A request whose budget expired before the engine
  got to it degrades to the landmark sketch's triangle-inequality envelope:
  the midpoint is returned with ``partial: true`` plus the ``lower``/``upper``
  bounds, so callers get a valid-if-loose answer instead of a timeout.
* **Backpressure** — at most ``max_pending`` compute-bound requests may be
  in flight; beyond that the server sheds load with ``429`` and a
  ``Retry-After`` hint instead of queueing unboundedly.
* **Epoch pinning** — a request carrying ``epoch`` is answered only if the
  service still serves that graph version; otherwise ``409`` (the HTTP face
  of :class:`~repro.exceptions.StaleEpochError`).  ``/update`` applies an
  edge delta, republishes the shared segments under the new epoch, flips the
  pool, and retires the old epoch — whose segments are unlinked only once
  in-flight batches pinned on them drain (graceful epoch retirement).

All engine-touching work funnels through a single-thread executor, so an
update can never interleave with a query: a query either completes against
the old epoch before the update starts or runs entirely against the new one.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Optional

from repro.exceptions import EngineUnavailableError, ReproError, StaleEpochError
from repro.fault import FAULTS, OPEN as _BREAKER_OPEN, CircuitOpenError
from repro.graph.delta import EdgeDelta
from repro.net.pool import SharedWorkerPool
from repro.net.shm import SharedContextRegistry, shm_available
from repro.obs import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from repro.obs import NULL_OBS, Sample, new_trace_id
from repro.utils.logging import get_logger

#: Structured slow-query log: one JSON object per line on WARNING, under the
#: library namespace so applications opt in with their own handlers (or
#: ``enable_verbose_logging``).
_SLOW_LOG = get_logger("net.slowlog")

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINES = 64

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class NetServerConfig:
    """Tunables for :class:`NetServer`.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`NetServer.url`).
    workers:
        Shared-memory pool size.  ``0`` serves without a pool (in-process
        engine execution) — also the automatic fallback when shared memory
        is unavailable on the platform.
    max_pending:
        Compute-bound requests admitted concurrently; excess gets 429.
        ``0`` rejects every compute request (used to test shedding).
    default_deadline_ms:
        Deadline applied to requests that don't send their own;
        ``None`` means no deadline.
    drain_timeout:
        Seconds :meth:`NetServer.stop` waits for in-flight requests.
    use_shared_memory:
        Master switch for the pool/segment machinery (tests use ``False``
        to exercise the serial path deterministically).
    slow_query_ms:
        Threshold for the structured slow-query log: any ``/query`` or
        ``/query_batch`` whose work-thread time exceeds it emits one JSON
        line (trace id included) on the ``repro.net.slowlog`` logger and
        bumps ``repro_slow_queries_total``.  ``None`` disables the log.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 0
    max_pending: int = 64
    default_deadline_ms: Optional[float] = None
    drain_timeout: float = 30.0
    use_shared_memory: bool = True
    slow_query_ms: Optional[float] = None
    #: Self-healing pool knobs (see SharedWorkerPool): recovery attempts per
    #: dispatch, and the hung-shard deadline (None = no deadline).
    pool_max_respawns: int = 2
    pool_shard_deadline_seconds: Optional[float] = None


@dataclass
class ServerStats:
    """Request counters, reported under ``/stats`` as ``server``."""

    requests: int = 0
    answered: int = 0
    partials: int = 0
    degraded: int = 0
    rejected_backpressure: int = 0
    stale_epoch_rejections: int = 0
    updates: int = 0
    errors: int = 0
    slow_queries: int = 0

    def summary(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "answered": self.answered,
            "partials": self.partials,
            "degraded": self.degraded,
            "rejected_backpressure": self.rejected_backpressure,
            "stale_epoch_rejections": self.stale_epoch_rejections,
            "updates": self.updates,
            "errors": self.errors,
            "slow_queries": self.slow_queries,
        }


class _Reject(Exception):
    """Internal: abort request handling with a specific HTTP status."""

    def __init__(self, status: int, payload: dict[str, Any], headers=None) -> None:
        super().__init__(payload.get("message", payload.get("error", "")))
        self.status = status
        self.payload = payload
        self.headers = dict(headers or {})


@dataclass
class _RawBody:
    """A non-JSON response body (the Prometheus exposition for /metrics)."""

    content_type: str
    body: bytes


def _result_payload(result: Any) -> dict[str, Any]:
    details = result.details
    payload = {
        "value": float(result.value),
        "s": int(result.s),
        "t": int(result.t),
        "epsilon": float(result.epsilon),
        "method": result.method,
        "source": details.get("source", "engine"),
        "partial": bool(details.get("partial", False)),
        "walk_length": int(result.walk_length),
        "num_walks": int(result.num_walks),
        "total_steps": int(result.total_steps),
        "spmv_operations": int(result.spmv_operations),
        "elapsed_seconds": float(result.elapsed_seconds),
    }
    if "plan" in details:
        payload["plan"] = details["plan"]
    if payload["partial"]:
        # Anytime answers surface their envelope (and whether a background
        # refinement is running) exactly like the deadline-degrade path.
        for key in ("lower", "upper", "half_width"):
            if key in details:
                payload[key] = float(details[key])
        payload["refining"] = bool(details.get("refining", False))
    return payload


class NetServer:
    """Serve a :class:`~repro.service.ResistanceService` over HTTP/JSON.

    Endpoints::

        POST /query        {"s", "t", "epsilon", ["method", "deadline_ms", "epoch", "trace_id"]}
        POST /query_batch  {"pairs": [[s, t], ...], "epsilon", [...]}
        POST /update       {"add": [...], "remove": [...], "reweight": [...]}
        GET  /stats
        GET  /metrics      (Prometheus text exposition of the service registry)
        GET  /healthz      (liveness: the process is up)
        GET  /readyz       (readiness: 200 only when this replica should
                            receive traffic — workers attached and alive,
                            circuit breaker closed)

    Every ``/query``, ``/query_batch`` and ``/update`` response echoes a
    ``trace_id`` (the client's, if it sent one, else freshly generated), which
    is also the id of the request's span tree when the service's tracer is
    enabled and the key of any slow-query log line.

    Use either inside a running event loop (``await server.start()`` /
    ``await server.stop()``) or from synchronous code via
    :meth:`start_in_thread` / :meth:`stop_in_thread`, which run the loop in a
    daemon thread (the CLI and the tests use the latter).
    """

    def __init__(self, service: Any, config: Optional[NetServerConfig] = None) -> None:
        self.service = service
        self.config = config or NetServerConfig()
        self.stats = ServerStats()
        # The service's bundle (metrics on by default); duck-typed so bare
        # stand-ins without an .obs still serve (their /metrics is empty).
        self.obs = getattr(service, "obs", NULL_OBS)
        metrics = self.obs.metrics
        self._m_http_requests = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by endpoint and status code.",
            labels=("endpoint", "status"),
        )
        self._m_http_latency = metrics.histogram(
            "repro_http_latency_seconds",
            "End-to-end HTTP request latency, by endpoint.",
            labels=("endpoint",),
        )
        self._m_partials = metrics.counter(
            "repro_partial_answers_total",
            "Deadline-degraded answers served from sketch bounds (partial:true).",
        )
        self._m_slow = metrics.counter(
            "repro_slow_queries_total",
            "Requests that exceeded the configured slow_query_ms threshold.",
        )
        self._m_degraded = metrics.counter(
            "repro_degraded_answers_total",
            "Sketch-envelope answers served because the engine tier was down "
            "(circuit breaker open or pool crashed past its respawn budget).",
        )
        metrics.register_collector(self._metrics_collector)
        self.registry = SharedContextRegistry()
        self.pool: Optional[SharedWorkerPool] = None
        self.shared_memory_active = False
        self._server: Optional[asyncio.base_events.Server] = None
        # One thread: serializes every engine-touching request against updates.
        self._work_executor: Optional[ThreadPoolExecutor] = None
        self._pending = 0
        self._accepting = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        if getattr(service, "planner", None) is not None:
            # Admission control sees the server's live queue: pending work
            # ahead of a query inflates its predicted engine cost.
            service.load_probe = lambda: self._pending

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"http://{host}:{port}"

    @property
    def pending(self) -> int:
        return self._pending

    async def start(self) -> "NetServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._work_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-net-work"
        )
        # Pay the spectral solve before accepting traffic, so /readyz is a
        # cheap state inspection rather than a multi-second first-touch.
        warm_up = getattr(self.service, "warm_up", None)
        if callable(warm_up):
            warm_up()
        self._publish_and_attach_pool()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self._accepting = True
        return self

    def _publish_and_attach_pool(self) -> None:
        """Publish the serving context and attach a worker pool, if possible."""
        if self.config.workers <= 0 or not self.config.use_shared_memory:
            return
        if not shm_available():
            return
        context = self.service.engine.context
        shared = self.registry.publish(context, sketch=self.service._ready_sketch())
        context.shared_handle = shared.handle
        self.pool = SharedWorkerPool(
            shared,
            workers=self.config.workers,
            delta=context.delta,
            num_batches=context.num_batches,
            budget=context.budget,
            obs=self.obs,
            max_respawns=self.config.pool_max_respawns,
            shard_deadline_seconds=self.config.pool_shard_deadline_seconds,
        )
        self.pool.warm()
        self.service.attach_worker_pool(self.pool)
        self.shared_memory_active = True

    def _republish(self) -> None:
        """After an update: publish the new epoch, flip workers, retire the old.

        Runs on the single work thread, so no query can observe the flip
        half-done.  The retired epoch's segments are unlinked only once any
        batch still pinned on them finishes (``SharedEpoch`` refcounts).
        """
        if self.pool is None:
            return
        context = self.service.engine.context
        with self.obs.tracer.span("shm:publish", epoch=context.epoch):
            shared = self.registry.publish(
                context, sketch=self.service._ready_sketch()
            )
        context.shared_handle = shared.handle
        self.pool.flip(shared)
        self.registry.retire_older_than(shared.epoch)

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, then unlink."""
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + self.config.drain_timeout
        while self._pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self.pool is not None:
            self.service.detach_worker_pool()
            self.pool.shutdown()
            self.pool = None
        context = self.service.engine.context
        if getattr(context, "shared_handle", None) is not None:
            context.shared_handle = None
        self.registry.close()
        self.shared_memory_active = False
        if self._work_executor is not None:
            self._work_executor.shutdown(wait=True)
            self._work_executor = None

    # -- synchronous wrappers (CLI, tests, benchmarks) ------------------- #
    def start_in_thread(self) -> "NetServer":
        loop = asyncio.new_event_loop()
        ready = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surfaced to the caller below
                failure.append(exc)
                ready.set()
                return
            ready.set()
            loop.run_forever()

        self._loop = loop
        self._thread = threading.Thread(target=run, daemon=True, name="repro-net-loop")
        self._thread.start()
        ready.wait(timeout=30.0)
        if failure:
            raise failure[0]
        return self

    def stop_in_thread(self) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.stop(), self._loop)
        future.result(timeout=self.config.drain_timeout + 30.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "NetServer":
        return self.start_in_thread()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop_in_thread()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, path, _version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(writer, 400, {"error": "bad-request-line"})
                    break
                headers: dict[str, str] = {}
                for _ in range(_MAX_HEADER_LINES):
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    content_length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    await self._respond(writer, 400, {"error": "bad-content-length"})
                    break
                if content_length > _MAX_BODY_BYTES:
                    await self._respond(writer, 413, {"error": "payload-too-large"})
                    break
                body = await reader.readexactly(content_length) if content_length else b""
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                status, payload, extra = await self._dispatch(method, path, body)
                await self._respond(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        extra_headers: Optional[dict[str, str]] = None,
        keep_alive: bool = True,
    ) -> None:
        if isinstance(payload, _RawBody):
            body = payload.body
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    #: Endpoints given their own label on repro_http_* series (anything else
    #: is folded into "other" to bound label cardinality).
    _KNOWN_ENDPOINTS = frozenset(
        {"/query", "/query_batch", "/update", "/stats", "/metrics",
         "/healthz", "/readyz"}
    )

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any, dict[str, str]]:
        endpoint = path.split("?", 1)[0]
        started = time.perf_counter()
        status, payload, headers = await self._dispatch_inner(method, endpoint, body)
        if self.obs.metrics.enabled:
            label = endpoint if endpoint in self._KNOWN_ENDPOINTS else "other"
            self._m_http_requests.labels(endpoint=label, status=status).inc()
            self._m_http_latency.labels(endpoint=label).observe(
                time.perf_counter() - started
            )
        return status, payload, headers

    async def _dispatch_inner(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any, dict[str, str]]:
        self.stats.requests += 1
        try:
            if method == "GET" and path == "/healthz":
                return 200, self._healthz_payload(), {}
            if method == "GET" and path == "/readyz":
                payload = self._readyz_payload()
                return (200 if payload["ready"] else 503), payload, {}
            if method == "GET" and path == "/stats":
                return 200, self._stats_payload(), {}
            if method == "GET" and path == "/metrics":
                return (
                    200,
                    _RawBody(
                        _METRICS_CONTENT_TYPE,
                        self.obs.metrics.exposition().encode("utf-8"),
                    ),
                    {},
                )
            if method == "POST" and path in ("/query", "/query_batch", "/update"):
                request = self._decode_json(body)
                arrival = time.monotonic()
                self._admit()
                try:
                    if path == "/query":
                        payload = await self._run(self._work_query, request, arrival)
                    elif path == "/query_batch":
                        payload = await self._run(self._work_batch, request, arrival)
                    else:
                        payload = await self._run(self._work_update, request, arrival)
                finally:
                    self._pending -= 1
                self.stats.answered += 1
                return 200, payload, {}
            if path in self._KNOWN_ENDPOINTS:
                return 405, {"error": "method-not-allowed"}, {}
            return 404, {"error": "not-found", "path": path}, {}
        except _Reject as reject:
            return reject.status, reject.payload, reject.headers
        except StaleEpochError as exc:
            self.stats.stale_epoch_rejections += 1
            return 409, {"error": "stale-epoch", "message": str(exc),
                         "epoch": self.service.epoch}, {}
        except (ValueError, TypeError, ReproError) as exc:
            self.stats.errors += 1
            return 400, {"error": "bad-request", "message": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - the edge must not crash
            self.stats.errors += 1
            return 500, {"error": "internal", "message": str(exc)}, {}

    async def _run(self, work, request: dict[str, Any], arrival: float):
        loop = asyncio.get_running_loop()
        if self._work_executor is None:
            raise _Reject(503, {"error": "shutting-down"})
        return await loop.run_in_executor(
            self._work_executor, work, request, arrival
        )

    def _admit(self) -> None:
        if not self._accepting:
            raise _Reject(503, {"error": "shutting-down"})
        if self._pending >= self.config.max_pending:
            self.stats.rejected_backpressure += 1
            raise _Reject(
                429,
                {"error": "backpressure",
                 "message": f"{self._pending} requests already pending"},
                {"Retry-After": "1"},
            )
        self._pending += 1

    def _decode_json(self, body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _Reject(400, {"error": "bad-json", "message": str(exc)}) from exc
        if not isinstance(decoded, dict):
            raise _Reject(400, {"error": "bad-json", "message": "body must be an object"})
        return decoded

    # ------------------------------------------------------------------ #
    # work functions (run on the single work thread)
    # ------------------------------------------------------------------ #
    def _check_epoch_pin(self, request: dict[str, Any]) -> None:
        pinned = request.get("epoch")
        if pinned is not None and int(pinned) != self.service.epoch:
            raise StaleEpochError(
                f"request pinned to epoch {int(pinned)} but the service now "
                f"serves epoch {self.service.epoch}"
            )

    def _deadline_expired(self, request: dict[str, Any], arrival: float) -> bool:
        deadline_ms = request.get("deadline_ms", self.config.default_deadline_ms)
        if deadline_ms is None:
            return False
        return (time.monotonic() - arrival) * 1000.0 >= float(deadline_ms)

    def _deadline_remaining(
        self, request: dict[str, Any], arrival: float
    ) -> Optional[float]:
        """Seconds left in the request's budget, or None when unbounded."""
        deadline_ms = request.get("deadline_ms", self.config.default_deadline_ms)
        if deadline_ms is None:
            return None
        return max(0.0, float(deadline_ms) / 1000.0 - (time.monotonic() - arrival))

    def _partial_answer(self, s: int, t: int, epsilon: float) -> dict[str, Any]:
        answer = self.service.sketch_bounds(s, t)
        if answer is None:
            raise _Reject(
                504,
                {"error": "deadline-exceeded",
                 "message": "deadline expired and no sketch is available"},
            )
        self.stats.partials += 1
        self._m_partials.inc()
        return {
            "value": float(answer.midpoint),
            "s": int(s),
            "t": int(t),
            "epsilon": float(epsilon),
            "method": "sketch-bound",
            "source": "sketch",
            "partial": True,
            "lower": float(answer.lower),
            "upper": float(answer.upper),
            "half_width": float(answer.half_width),
        }

    def _degraded_answer(
        self, s: int, t: int, epsilon: float, cause: Optional[BaseException]
    ) -> dict[str, Any]:
        """Engine tier is down: serve the sketch envelope, else 503.

        Same ``partial: true`` shape as the deadline-degrade path, with
        ``degraded`` naming the cause so clients can tell load shedding from
        an unhealthy engine.  When no sketch exists the request fails fast
        with 503 + Retry-After (the breaker's half-open hint, if available)
        instead of the deadline path's 504.
        """
        try:
            payload = self._partial_answer(s, t, epsilon)
        except _Reject:
            headers = {}
            retry_after = getattr(cause, "retry_after", None)
            if retry_after is not None:
                headers["Retry-After"] = str(max(1, round(float(retry_after))))
            raise _Reject(
                503,
                {"error": "engine-unavailable",
                 "message": str(cause) if cause else "engine tier is down "
                 "and no sketch is available"},
                headers,
            ) from cause
        payload["degraded"] = "engine-unavailable"
        self.stats.degraded += 1
        self._m_degraded.inc()
        return payload

    def _breaker_open(self) -> Optional[BaseException]:
        """The open-breaker error to degrade on, or None when traffic flows.

        Only fully *open* counts: half-open must let requests through so the
        batch path can run its probe.  Without an attached pool the in-process
        engine serves fine regardless of breaker state.
        """
        breaker = getattr(self.service, "breaker", None)
        if breaker is None or self.pool is None:
            return None
        if breaker.state != _BREAKER_OPEN:
            return None
        return CircuitOpenError(float(breaker.reset_seconds))

    def _request_trace_id(self, request: dict[str, Any]) -> str:
        """The client's trace id, if it sent one, else a fresh one (os.urandom)."""
        supplied = request.get("trace_id")
        return str(supplied) if supplied else new_trace_id()

    def _log_if_slow(
        self, endpoint: str, trace_id: str, elapsed: float, extra: dict[str, Any]
    ) -> None:
        """Emit one structured JSON log line when a request beat the threshold."""
        threshold = self.config.slow_query_ms
        if threshold is None or elapsed * 1000.0 < float(threshold):
            return
        self.stats.slow_queries += 1
        self._m_slow.inc()
        record = {
            "event": "slow_query",
            "endpoint": endpoint,
            "trace_id": trace_id,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "threshold_ms": float(threshold),
            "epoch": self.service.epoch,
            **extra,
        }
        _SLOW_LOG.warning(json.dumps(record, sort_keys=True))

    def _work_query(self, request: dict[str, Any], arrival: float) -> dict[str, Any]:
        s, t = int(request["s"]), int(request["t"])
        epsilon = float(request["epsilon"])
        trace_id = self._request_trace_id(request)
        self._check_epoch_pin(request)
        started = time.perf_counter()
        stall = FAULTS.sleep_seconds("net:slow_response")
        if stall > 0:
            time.sleep(stall)
        with self.obs.tracer.trace("http:query", trace_id=trace_id):
            if self._deadline_expired(request, arrival):
                payload = self._partial_answer(s, t, epsilon)
            else:
                tier_down = self._breaker_open()
                if tier_down is not None:
                    payload = self._degraded_answer(s, t, epsilon, tier_down)
                else:
                    try:
                        kwargs: dict[str, Any] = {}
                        if getattr(self.service, "planner", None) is not None:
                            # Adaptive services plan against the *remaining*
                            # budget — they may answer with an anytime
                            # partial instead of blowing the deadline.
                            kwargs["deadline_seconds"] = self._deadline_remaining(
                                request, arrival
                            )
                        result = self.service.query(
                            s, t, epsilon, method=request.get("method"), **kwargs
                        )
                        payload = _result_payload(result)
                        if payload["partial"]:
                            self.stats.partials += 1
                            self._m_partials.inc()
                    except EngineUnavailableError as exc:
                        payload = self._degraded_answer(s, t, epsilon, exc)
        payload["epoch"] = self.service.epoch
        payload["trace_id"] = trace_id
        self._log_if_slow(
            "/query",
            trace_id,
            time.perf_counter() - started,
            {"s": s, "t": t, "epsilon": epsilon,
             "source": payload.get("source", "engine")},
        )
        return payload

    def _work_batch(self, request: dict[str, Any], arrival: float) -> dict[str, Any]:
        pairs = [(int(s), int(t)) for s, t in request["pairs"]]
        epsilon = float(request["epsilon"])
        trace_id = self._request_trace_id(request)
        self._check_epoch_pin(request)
        started = time.perf_counter()
        stall = FAULTS.sleep_seconds("net:slow_response")
        if stall > 0:
            time.sleep(stall)
        with self.obs.tracer.trace("http:query_batch", trace_id=trace_id):
            if self._deadline_expired(request, arrival):
                answers = [self._partial_answer(s, t, epsilon) for s, t in pairs]
            else:
                tier_down = self._breaker_open()
                if tier_down is None:
                    try:
                        results = self.service.query_many(
                            pairs, epsilon, method=request.get("method")
                        )
                        answers = [_result_payload(result) for result in results]
                    except EngineUnavailableError as exc:
                        tier_down = exc
                if tier_down is not None:
                    answers = [
                        self._degraded_answer(s, t, epsilon, tier_down)
                        for s, t in pairs
                    ]
        self._log_if_slow(
            "/query_batch",
            trace_id,
            time.perf_counter() - started,
            {"pairs": len(pairs), "epsilon": epsilon},
        )
        return {"epoch": self.service.epoch, "results": answers, "trace_id": trace_id}

    def _work_update(self, request: dict[str, Any], arrival: float) -> dict[str, Any]:
        delta = EdgeDelta(
            inserts=tuple(tuple(edge) for edge in request.get("add", ())),
            removals=tuple(tuple(edge) for edge in request.get("remove", ())),
            reweights=tuple(tuple(edge) for edge in request.get("reweight", ())),
        )
        trace_id = self._request_trace_id(request)
        with self.obs.tracer.trace("http:update", trace_id=trace_id):
            report = self.service.apply_update(delta)
            self._republish()
        self.stats.updates += 1
        return {
            "epoch": self.service.epoch,
            "update": report.summary(),
            "trace_id": trace_id,
        }

    # ------------------------------------------------------------------ #
    # read-only payloads
    # ------------------------------------------------------------------ #
    def _healthz_payload(self) -> dict[str, Any]:
        """Liveness only: the process is up and the loop answers.  Readiness
        (should this replica receive traffic?) lives on ``/readyz``."""
        return {
            "status": "ok",
            "epoch": self.service.epoch,
            "pending": self._pending,
            "shared_memory": self.shared_memory_active,
            "pool_workers": self.pool.workers if self.pool is not None else 0,
        }

    def _readyz_payload(self) -> dict[str, Any]:
        """Readiness: accepting, workers alive, breaker closed.

        Not-ready reasons are listed so orchestration logs say *why* a
        replica was pulled.  A pool heartbeat that finds dead workers heals
        them on the spot — the probe reports ``pool-healed`` that round and
        turns ready again on the next.
        """
        reasons: list[str] = []
        if not self._accepting:
            reasons.append("not-accepting")
        if self._work_executor is None:
            reasons.append("no-work-executor")
        if self.config.workers > 0 and self.config.use_shared_memory and shm_available():
            if self.pool is None:
                reasons.append("pool-not-attached")
            else:
                beat = self.pool.heartbeat()
                if not beat["healthy"]:
                    reasons.append("pool-healed")
        breaker = getattr(self.service, "breaker", None)
        breaker_state = breaker.state if breaker is not None else "closed"
        if breaker_state != "closed":
            reasons.append(f"breaker-{breaker_state}")
        return {
            "ready": not reasons,
            "reasons": reasons,
            "epoch": self.service.epoch,
            "breaker": breaker_state,
            "pool_workers": self.pool.workers if self.pool is not None else 0,
        }

    def _stats_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "server": self.stats.summary(),
            "service": self.service.summary(),
            "epoch": self.service.epoch,
            "shared_memory": self.shared_memory_active,
        }
        service_stats = getattr(self.service, "stats", None)
        if service_stats is not None:
            # Per-tier answer counts (not just totals): which layer actually
            # served, including the deadline-degraded partials.
            payload["tiers"] = {
                "cache": service_stats.cache_hits,
                "sketch": service_stats.sketch_hits,
                "engine": service_stats.engine_queries,
                "exact": getattr(service_stats, "exact_answers", 0),
                "anytime": getattr(service_stats, "anytime_answers", 0),
                "partial": self.stats.partials,
                "degraded": self.stats.degraded,
            }
        planner = getattr(self.service, "planner", None)
        if planner is not None:
            # Decision counts by tier, fallbacks, refinement outcomes and the
            # calibrated cost model — the routing brain, fully inspectable.
            payload["planner"] = planner.summary()
        if self.pool is not None:
            # Includes the merged worker-side counters (attaches, queries,
            # walk steps, per-pid breakdown) that used to be dropped.
            payload["pool"] = self.pool.summary()
        payload["segments"] = self.registry.summary()
        return payload

    def _metrics_collector(self):
        """Scrape-time samples for server- and pool-level counters."""
        samples = [
            Sample(
                "repro_pending_requests",
                "gauge",
                "Compute-bound requests currently in flight.",
                {},
                float(self._pending),
            )
        ]
        for field in (
            "requests",
            "answered",
            "degraded",
            "rejected_backpressure",
            "stale_epoch_rejections",
            "errors",
        ):
            samples.append(
                Sample(
                    f"repro_server_{field}_total",
                    "counter",
                    f"ServerStats.{field} of the HTTP front-end.",
                    {},
                    float(getattr(self.stats, field)),
                )
            )
        pool = self.pool
        if pool is not None:
            summary = pool.summary()
            samples.append(
                Sample("repro_pool_workers", "gauge", "Configured worker-pool size.", {}, float(summary["workers"]))
            )
            for field in (
                "batches",
                "shards_dispatched",
                "fallback_batches",
                "flips",
                "worker_deaths",
                "respawns",
                "reexecuted_shards",
                "shard_timeouts",
            ):
                samples.append(
                    Sample(
                        f"repro_pool_{field}_total",
                        "counter",
                        f"PoolStats.{field} of the shared-memory pool.",
                        {},
                        float(summary[field]),
                    )
                )
            for field in (
                "attaches", "shards", "queries", "walk_steps", "spmv_operations",
                "elapsed_seconds", "shard_seconds",
            ):
                samples.append(
                    Sample(
                        f"repro_pool_worker_{field}_total",
                        "counter",
                        f"Worker-side {field}, merged from per-pid snapshots.",
                        {},
                        float(summary[f"worker_{field}"]),
                    )
                )
        return samples


__all__ = ["NetServer", "NetServerConfig", "ServerStats"]
