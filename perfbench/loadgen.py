"""The load generator: persistent HTTP connections, closed and open loops.

Every request goes over one of at most two keep-alive connections and is
sent exactly once: there are no client retries, so a failure is counted
instead of being retried away.  Each request is recorded with the times it
was due, sent and answered (``time.monotonic()``, the clock the server-side
span stamps use).
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import dataclass, field
from time import monotonic, sleep
from typing import Optional
from urllib.parse import urlparse


class RequestFailed(Exception):
    """A request that got no 200 JSON answer."""


class Connection:
    """One persistent HTTP/1.1 connection to the server under test."""

    def __init__(self, url: str, timeout: float = 120.0) -> None:
        parsed = urlparse(url)
        self._host, self._port = parsed.hostname, parsed.port
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        """Send once; return the decoded 200 body or raise :class:`RequestFailed`."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json", "Connection": "keep-alive"}
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self._host, self._port, timeout=self._timeout)
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise RequestFailed(f"{method} {path}: {exc!r}") from exc
        if response.status != 200:
            raise RequestFailed(f"{method} {path}: HTTP {response.status} {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Request:
    """One scheduled request and what became of it."""

    kind: str  # "read", "batch" or "update"
    payload: dict
    due: float = 0.0  # offset from the window start; absolute once sent
    sent: float = 0.0
    recv: float = 0.0
    own_lag: float = 0.0  # lateness of the generator itself (connection was free)
    response: Optional[dict] = None
    error: Optional[str] = None

    @property
    def path(self) -> str:
        return {"read": "/query", "batch": "/query_batch", "update": "/update"}[self.kind]


def send(conn: Connection, req: Request) -> None:
    req.sent = monotonic()
    try:
        req.response = conn.request("POST", req.path, req.payload)
    except RequestFailed as exc:
        req.error = str(exc)
    req.recv = monotonic()


def closed_loop(conn: Connection, requests, seconds: float) -> tuple[list[Request], float, float]:
    """Send ``requests`` back to back until ``seconds`` have passed.

    Returns the requests sent and the window's start and end times.
    """
    done: list[Request] = []
    start = monotonic()
    for req in requests:
        if monotonic() - start >= seconds:
            break
        req.due = monotonic()
        send(conn, req)
        done.append(req)
    return done, start, monotonic()


@dataclass
class OpenLoop:
    """Send a fixed schedule over two connections, on time or late.

    Request ``i`` is due at ``start + schedule[i].due``.  A connection sends
    the next request at its due time, or as soon as it is free when both
    connections were busy; latency is then counted from the due time, so a
    stall also charges the requests it delayed.  ``own_lag`` is how late the
    generator itself was while a connection stood free.
    """

    url: str
    schedule: list[Request]
    _next: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _take(self) -> Optional[Request]:
        with self._lock:
            if self._next >= len(self.schedule):
                return None
            req = self.schedule[self._next]
            self._next += 1
            return req

    def _drive(self, start: float) -> None:
        conn = Connection(self.url)
        try:
            while True:
                req = self._take()
                if req is None:
                    return
                free_at = monotonic()
                due = start + req.due
                if due > free_at:
                    sleep(due - free_at)
                send(conn, req)
                req.own_lag = max(0.0, req.sent - max(due, free_at))
                req.due = due
        finally:
            conn.close()

    def run(self) -> tuple[list[Request], float, float]:
        start = monotonic() + 0.05
        threads = [threading.Thread(target=self._drive, args=(start,), daemon=True)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
            if thread.is_alive():
                raise RuntimeError("open-loop connection did not finish")
        return self.schedule, start, monotonic()
