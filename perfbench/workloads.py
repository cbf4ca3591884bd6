"""The benchmark's workloads: inputs from the seed, set-up, timed window, checks.

``engine-geer``
    In-process ``QueryEngine.query(s, t, 0.05, method="geer")`` over uniform
    random pairs on ``dblp-syn``; one caller, closed loop.  The paper's own
    measurement; the AMC walk kernel does most of the work.
``http-batch``
    ``POST /query_batch`` with 8 never-repeated random pairs at ε = 0.05 over
    one connection, closed loop, to a ``NetServer`` with one pool worker over
    ``ba-2000-8``.  SMM stepping, plan building and pool IPC show here.
``http-skewed-rw``
    Open loop at :data:`SKEWED_RATE` reads/s over two connections: single
    ``POST /query`` reads drawn Zipf-skewed from a pair pool (hot ranks at
    ε = 0.4, the cold tail at ε = 0.02) and, late in the window, one
    ``/update`` inserting an edge.  Cache, sketch and the whole update path
    (delta, invalidation, λ re-solve, sketch rebuild, shm publish, pool
    flip) show here, and so do the reads stalled behind it.  Not in
    ``BENCHMARK.json``: across ten seeds its p90 spread (IQR over median)
    reached 0.26, above the 0.25 a bound may be; ``http-batch`` covers the
    same layers, its update included.  Run it by name.

A shared host can change speed by ±20% within seconds and by more over
minutes, so a run spreads its samples over its whole length rather than
taking them in one burst: it runs :data:`ROUNDS` rounds, each on a fresh
engine or server that is set up (``setup_s``), checked, serves its share of
the window and is dropped.  Latencies and set-ups are pooled over the rounds.
A traced run has two rounds instead: an untraced twin, which its tracing
overhead is measured against, then a traced one.

An ``/update`` rebuilds the landmark sketch, seconds of work whose time
drifts with the host as much as a whole run does, so no end-to-end metric
times updates: a median of three spread 0.25 over ten seeds.  The traced
``http-batch`` round takes one after its window, for the update path's
per-layer metrics, and ``http-skewed-rw`` takes one inside each window.

Every answer is checked against an exact Laplacian solve of the graph at the
answer's epoch, after the timed window.  The first :data:`CHECK_REQUESTS`
requests of each round are sent serially before timing starts; their
answers are digested (``answers_digest``), so a change in numerics shows in
the record, and every round of a run must give the same digest.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from time import monotonic, sleep

import numpy as np

from common import BENCH_DIR, ROOT, answers_digest, build_graph
from layers import LayerTracer, diff, layer_metrics, merge
from loadgen import Connection, OpenLoop, Request, RequestFailed, closed_loop, send

#: Rounds of an untraced run.  An HTTP round's set-up is its server's, seconds
#: long; an engine-geer round times three ~0.2 s set-ups and serves the last.
ROUNDS, GEER_SETUPS_PER_ROUND = 3, 3
CHECK_REQUESTS = 8
#: A run whose load generator was itself this late (p99, with a connection
#: free) is invalid: the lateness would be the client's, not the server's.
LAG_BOUND_S = 0.05

GEER_DATASET, GEER_EPS = "dblp-syn", 0.05
#: Inputs are drawn for far more requests than a run sends today, so a much
#: faster program still finds fresh pairs; a run that used them up would end
#: its window early rather than fail.
GEER_PAIRS, BATCH_BATCHES = 20000, 8000
BATCH_DATASET, BATCH_EPS, BATCH_PAIRS = "ba-2000-8", 0.05, 8
SKEWED_DATASET = "facebook-syn"
SKEWED_HOT_EPS, SKEWED_COLD_EPS = 0.4, 0.02
#: Reads per second, and where in a round's window its one update is due.
#: A sketch rebuild stalls the single work thread for ~3 s, and the stalled
#: reads' latencies spread evenly up to its length: once they pass a tenth
#: of the reads, p90 tracks rebuild-time noise several times over.  Due at
#: 94% of the window, it stalls ~6% of the reads, which shows in the waits,
#: while p90 stays on the engine-tier reads.
SKEWED_RATE, SKEWED_UPDATE_AT = 30.0, 0.94
#: Pairs ranked by a Zipf(1.1) law: the top 500 of 4000 ranks are hot, and
#: one read in six comes from the cold tail.
SKEWED_POOL, SKEWED_HOT_RANKS, SKEWED_ZIPF, SKEWED_COLD_EVERY = 4000, 500, 1.1, 6

#: Exact checks use a dense ``L⁺`` when this many distinct pairs share a
#: graph this small; otherwise one CG solve per pair.
DENSE_MAX_NODES, DENSE_MIN_PAIRS = 2500, 150


@dataclass
class Answer:
    s: int
    t: int
    eps: float
    value: float
    epoch: int = 0


@dataclass
class Phase:
    """What one measured phase of a run gave: its set-ups, its windows (one
    per engine or server) and the updates taken in or after them."""

    setups: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    updates: list = field(default_factory=list)
    #: One ``(epoch -> update payload, answers)`` per engine or server, each
    #: starting on the workload graph at epoch 0; check answers included.
    timelines: list = field(default_factory=list)
    check_digests: list = field(default_factory=list)
    served: int = 0  # pairs answered inside the windows
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # length of the windows
    rss_mb: float = 0.0
    own_lag: list = field(default_factory=list)  # generator lateness, connection free
    behind: list = field(default_factory=list)  # sent minus due, however caused

    def end_to_end(self) -> dict:
        # The mean, not the median: a shared host flips between a fast and a
        # ~1.6x slower state every few seconds, so a workload whose requests
        # cost alike (http-batch) has one latency mode per state, and its
        # median jumps between them as the share of slow time nears a half.
        # The mean moves in proportion to that share; p90 sits in the slow
        # mode.  The median is kept in the record.
        ms = 1000.0 * np.asarray(self.latencies)
        return {
            "setup_s": float(np.median(self.setups)),
            "latency_mean_ms": float(np.mean(ms)),
            "latency_p90_ms": float(np.percentile(ms, 90)),
            "pairs_per_s": self.served / self.wall_s,
            "peak_rss_mb": self.rss_mb,
        }


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def unique_pairs(rng: np.random.Generator, n: int, count: int) -> list[tuple[int, int]]:
    """``count`` distinct unordered node pairs ``s != t``, uniformly drawn."""
    seen: set = set()
    out = []
    while len(out) < count:
        for s, t in rng.integers(0, n, size=(2 * count, 2)):
            key = (min(s, t), max(s, t))
            if s != t and key not in seen:
                seen.add(key)
                out.append((int(s), int(t)))
                if len(out) == count:
                    break
    return out


def non_edges(rng: np.random.Generator, graph, count: int) -> list[tuple[int, int]]:
    """``count`` distinct node pairs that are not edges of ``graph``."""
    out: list = []
    seen: set = set()
    while len(out) < count:
        s, t = (int(x) for x in rng.integers(0, graph.num_nodes, size=2))
        key = (min(s, t), max(s, t))
        if s != t and not graph.has_edge(s, t) and key not in seen:
            seen.add(key)
            out.append(key)
    return out


def insert_payloads(rng: np.random.Generator, graph, count: int) -> list[dict]:
    """``count`` single-edge inserts, each valid on ``graph`` itself: one for
    each fresh server of an HTTP run."""
    return [{"add": [[u, v]]} for u, v in non_edges(rng, graph, count)]


def skewed_reads(rng: np.random.Generator, pool: list, count: int) -> list[dict]:
    """``/query`` payloads whose pairs follow a Zipf law over the pool's ranks.

    Stratified: every :data:`SKEWED_COLD_EVERY`-th read draws from the cold
    tail, the others from the hot ranks, each by the Zipf weights within its
    stratum.  Drawing the stratum i.i.d. instead lets the cold share, and with
    it the number of engine reads p90 falls among, swing ±12% between seeds.
    """
    weights = 1.0 / np.arange(1, len(pool) + 1) ** SKEWED_ZIPF

    def draw(lo: int, hi: int, size: int) -> np.ndarray:
        cdf = np.cumsum(weights[lo:hi])
        return lo + np.minimum(np.searchsorted(cdf / cdf[-1], rng.random(size)), hi - lo - 1)

    hot = draw(0, SKEWED_HOT_RANKS, count)
    cold = draw(SKEWED_HOT_RANKS, len(pool), count)
    out = []
    for j in range(count):
        is_cold = j % SKEWED_COLD_EVERY == SKEWED_COLD_EVERY - 1
        s, t = pool[cold[j] if is_cold else hot[j]]
        out.append({"s": s, "t": t, "epsilon": SKEWED_COLD_EPS if is_cold else SKEWED_HOT_EPS})
    return out


def workload_inputs(name: str, seed: int, graph) -> dict:
    """Everything a workload sends, derived from ``seed`` alone."""
    if name == "engine-geer":
        rng = np.random.default_rng([seed, 1])
        return {"pairs": unique_pairs(rng, graph.num_nodes, GEER_PAIRS)}
    if name == "http-batch":
        rng = np.random.default_rng([seed, 2])
        pairs = unique_pairs(rng, graph.num_nodes, BATCH_PAIRS * (CHECK_REQUESTS + BATCH_BATCHES))
        batches = [pairs[i:i + BATCH_PAIRS] for i in range(0, len(pairs), BATCH_PAIRS)]
        return {"check": batches[:CHECK_REQUESTS], "batches": batches[CHECK_REQUESTS:],
                "updates": insert_payloads(rng, graph, ROUNDS)}
    rng = np.random.default_rng([seed, 3])
    pool = unique_pairs(rng, graph.num_nodes, SKEWED_POOL)
    return {"check": skewed_reads(rng, pool, CHECK_REQUESTS),
            "reads": skewed_reads(rng, pool, 4000),
            "updates": insert_payloads(rng, graph, ROUNDS)}


def skewed_schedule(reads, update: dict, seconds: float) -> list[Request]:
    """The next reads of the iterator ``reads``, due every 1/rate s for
    ``seconds``, and ``update`` due at :data:`SKEWED_UPDATE_AT` of the window."""
    schedule = []
    for j in range(math.ceil(seconds * SKEWED_RATE)):
        due = j / SKEWED_RATE
        schedule.append(Request("read", next(reads), due=due))
        if due <= SKEWED_UPDATE_AT * seconds < due + 1 / SKEWED_RATE:
            schedule.append(Request("update", update, due=due))
    return schedule


# --------------------------------------------------------------------------- #
# answer checks
# --------------------------------------------------------------------------- #
def exact_resistances(graph, pairs: set) -> dict:
    from repro.baselines.exact import ExactEffectiveResistance
    from repro.baselines.ground_truth import GroundTruthOracle

    if graph.num_nodes <= DENSE_MAX_NODES and len(pairs) > DENSE_MIN_PAIRS:
        oracle = ExactEffectiveResistance(graph)
    else:
        oracle = GroundTruthOracle(graph, dense_threshold=0)
    return {pair: oracle.query(*pair) for pair in pairs}


def as_delta(payload: dict):
    """The ``EdgeDelta`` an ``/update`` payload describes."""
    from repro.graph.delta import EdgeDelta

    return EdgeDelta(inserts=tuple(map(tuple, payload.get("add", ()))),
                     removals=tuple(map(tuple, payload.get("remove", ()))))


def count_violations(graph, timelines: list) -> int:
    """Answers with |r̂ − r| > ε, r solved exactly on the answer's epoch graph.

    ``timelines`` holds ``(epoch -> update payload, answers)`` pairs, each
    starting on ``graph`` at epoch 0.  Answers on the same graph (reached by
    the same updates, whatever the timeline) share one solve.
    """
    graphs: dict = {}
    groups: dict = defaultdict(list)
    for epoch_deltas, answers in timelines:
        by_epoch = defaultdict(list)
        for answer in answers:
            by_epoch[answer.epoch].append(answer)
        current, path = graph, ()
        for target in sorted(by_epoch):
            while len(path) < target:
                payload = epoch_deltas[len(path) + 1]
                current = as_delta(payload).apply_to(current)
                path += (json.dumps(payload, sort_keys=True),)
            graphs.setdefault(path, current)
            groups[path].extend(by_epoch[target])
    violations = 0
    for key, answers in groups.items():
        exact = exact_resistances(graphs[key], {(a.s, a.t) for a in answers})
        violations += sum(abs(a.value - exact[(a.s, a.t)]) > a.eps for a in answers)
    return violations


def _answer_failed(payload: dict) -> bool:
    return bool(payload.get("partial") or payload.get("degraded") or payload.get("budget_exhausted"))


def _plan(trace: bool) -> list[tuple[bool, int]]:
    """``(traced, phase index)`` per round: :data:`ROUNDS` rounds of one
    phase, or an untraced twin and a traced round."""
    return [(False, 0), (True, 1)] if trace else [(False, 0)] * ROUNDS


# --------------------------------------------------------------------------- #
# engine-geer: in process
# --------------------------------------------------------------------------- #
def _geer_window(engine, pairs, seconds: float, phase: Phase) -> None:
    """Query ``pairs`` for ``seconds``, one after another."""
    answers = []
    start = monotonic()
    while monotonic() - start < seconds:
        pair = next(pairs, None)
        if pair is None:
            break
        s, t = pair
        phase.attempted += 1
        began = monotonic()
        try:
            result = engine.query(s, t, GEER_EPS, method="geer")
        except Exception as exc:  # noqa: BLE001 - counted, reported, never retried
            print(f"perfbench: query ({s}, {t}) failed: {exc!r}", file=sys.stderr)
            phase.failed += 1
            continue
        finally:
            phase.latencies.append(monotonic() - began)
        if result.budget_exhausted:
            phase.failed += 1
        else:
            answers.append(Answer(s, t, GEER_EPS, result.value))
    phase.wall_s += monotonic() - start
    phase.served += len(answers)
    phase.timelines.append(({}, answers))


def run_engine_geer(seed: int, seconds: float, trace: bool, workdir) -> dict:
    import resource

    from repro import QueryEngine

    plan = _plan(trace)
    phases = [Phase() for _ in range(plan[-1][1] + 1)]
    pairs = check_pairs = None
    for traced, p in plan:
        for _ in range(1 if trace else GEER_SETUPS_PER_ROUND):
            began = monotonic()
            graph = build_graph(GEER_DATASET)
            engine = QueryEngine(graph, rng=seed)
            engine.lambda_max_abs  # the λ solve belongs to set-up
            phases[p].setups.append(monotonic() - began)
        if pairs is None:
            inputs = workload_inputs("engine-geer", seed, graph)
            check_pairs, pairs = inputs["pairs"][:CHECK_REQUESTS], iter(inputs["pairs"][CHECK_REQUESTS:])
        check = [Answer(s, t, GEER_EPS, engine.query(s, t, GEER_EPS, method="geer").value)
                 for s, t in check_pairs]
        phases[p].attempted += len(check)
        phases[p].check_digests.append(_digest(check))
        phases[p].timelines.append(({}, check))
        if traced:
            tracer = LayerTracer(keep_roots=False).install()
            before = tracer.snapshot()
        _geer_window(engine, pairs, seconds / len(plan), phases[p])
    spans = diff(tracer.snapshot(), before) if trace else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for phase in phases:
        phase.rss_mb = rss_mb
    result = _finish(phases, graph)
    if trace:
        result["per_layer"] = layer_metrics(spans, tracer.snapshot(), requests=len(phases[-1].latencies),
                                            wall_s=phases[-1].wall_s)
    return result


# --------------------------------------------------------------------------- #
# HTTP workloads: a server process per set-up
# --------------------------------------------------------------------------- #
class ServerProcess:
    """One ``server_main.py`` process; ``setup_s`` runs from spawn to /readyz 200."""

    def __init__(self, dataset: str, seed: int, workdir, *, trace: bool = False, tag: str = "") -> None:
        self.dump = os.path.join(workdir, f"server{tag}.json")
        began = monotonic()
        command = [sys.executable, str(BENCH_DIR / "server_main.py"), "--dataset", dataset,
                   "--seed", str(seed), "--dump", self.dump] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        try:
            self.url = self._readline(120.0)
            probe = Connection(self.url, timeout=10.0)
            try:
                while True:
                    try:
                        if probe.request("GET", "/readyz").get("ready"):
                            break
                    except RequestFailed:
                        pass
                    if monotonic() - began > 120.0:
                        raise RuntimeError("server never became ready")
                    sleep(0.01)
            finally:
                probe.close()
            self.setup_s = monotonic() - began
        except BaseException:
            self.kill()
            raise

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"server process gave no answer (exit code {self.proc.poll()})")
        return line.strip()

    def command(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._readline(60.0)

    def stop(self) -> dict:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=90.0)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with code {self.proc.returncode}")
        with open(self.dump, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        """Kill whatever is left of the server's process group (it and its
        pool worker) and reap it; a no-op after a clean stop."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30.0)
        self.proc.stdout.close()


def _record(phase: Phase, req: Request, epoch_deltas: dict, answers: list) -> None:
    """Fold one finished request into ``phase``; its answers go to ``answers``."""
    phase.attempted += 1
    if req.error is not None:
        print(f"perfbench: {req.error}", file=sys.stderr)
        phase.failed += 1
        return
    response = req.response
    if req.kind == "update":
        epoch_deltas[response["epoch"]] = req.payload
        return
    results = response["results"] if req.kind == "batch" else [response]
    for answer in results:
        if _answer_failed(answer):
            phase.failed += 1
        else:
            answers.append(Answer(answer["s"], answer["t"], answer["epsilon"], answer["value"],
                                  answer.get("epoch", response.get("epoch", 0))))


def _account(requests: list[Request], roots: list) -> dict:
    """Match server root spans to requests: HTTP overhead, waits, update stalls."""
    roots = sorted(roots, key=lambda root: root[1])
    used = [False] * len(roots)
    overhead, waits, stalls = 0.0, [], []
    for req in sorted(requests, key=lambda r: r.sent):
        if req.kind == "update":
            match = [i for i, (span, a, b, _k) in enumerate(roots)
                     if not used[i] and span not in ("service.server.query", "service.server.query_many")
                     and req.sent <= a and b <= req.recv]
        else:
            span_name = "service.server.query" if req.kind == "read" else "service.server.query_many"
            key = (req.payload["s"], req.payload["t"], req.payload["epsilon"]) if req.kind == "read" else None
            first = next((i for i, (span, a, b, k) in enumerate(roots)
                          if not used[i] and span == span_name and req.sent <= a and b <= req.recv
                          and (key is None or tuple(k) == key)), None)
            match = [] if first is None else [first]
        for i in match:
            used[i] = True
        service = sum(roots[i][2] - roots[i][1] for i in match)
        overhead += (req.recv - req.due) - service - req.own_lag
        if match and req.kind != "update":
            waits.append(roots[match[0]][1] - req.due)
        if match and req.kind == "update":
            stalls.append((min(roots[i][1] for i in match), max(roots[i][2] for i in match)))
    reads = [r for r in requests if r.kind != "update"]
    behind = sum(any(a <= r.due < b for a, b in stalls) for r in reads)
    return {"overhead_s": overhead,
            "wait_ms": 1000.0 * float(np.mean(waits)) if waits else 0.0,
            "behind_update_share": behind / len(reads) if reads else 0.0}


def _batch(pairs: list) -> Request:
    return Request("batch", {"pairs": pairs, "epsilon": BATCH_EPS})


def _serve(workload: str, server: ServerProcess, inputs: dict, feed, update, seconds: float,
           traced: bool, phase: Phase) -> tuple:
    """One round on ``server``: check requests, a window of ``seconds`` fed
    from ``feed``, and ``update`` if any (inside the open loop's window,
    after the closed loop's).  Folds the round into ``phase``; returns its
    trace data."""
    epoch_deltas: dict = {}
    check_answers: list = []
    answers: list = []
    batch = workload == "http-batch"
    conn = Connection(server.url)
    try:
        for req in [_batch(p) if batch else Request("read", p) for p in inputs["check"]]:
            send(conn, req)
            _record(phase, req, epoch_deltas, check_answers)
        phase.check_digests.append(_digest(check_answers))
        stats_before = conn.request("GET", "/stats")
        if traced:
            server.command("snap start")
        if batch:
            requests, start, end = closed_loop(conn, map(_batch, feed), seconds)
        else:
            conn.close()  # the open loop brings its own two connections
            requests, start, end = OpenLoop(server.url, skewed_schedule(feed, update, seconds)).run()
        if traced:
            server.command("snap end")
        stats_after = conn.request("GET", "/stats")
        for req in requests:
            _record(phase, req, epoch_deltas, answers)
            phase.behind.append(req.sent - req.due)
            phase.own_lag.append(req.own_lag)
            if req.kind == "update":
                phase.updates.append(req.recv - req.sent)
            else:
                phase.latencies.append(req.recv - req.due)
        phase.wall_s += end - start
        phase.served += len(answers)
        if batch and update is not None:
            req = Request("update", update)
            send(conn, req)
            _record(phase, req, epoch_deltas, [])
            phase.updates.append(req.recv - req.sent)
    finally:
        conn.close()
    dump = server.stop()
    phase.rss_mb = max(phase.rss_mb, (dump["rss_kb_self"] + dump["rss_kb_children"]) / 1024.0)
    phase.timelines.append((epoch_deltas, check_answers + answers))
    return requests, start, end, stats_before, stats_after, dump


def _http_layers(workload: str, trace_data: tuple, workdir) -> dict:
    requests, start, end, stats_before, stats_after, dump = trace_data
    window = diff(dump["snaps"]["end"], dump["snaps"]["start"])
    account = _account(requests, [r for r in dump["roots"] if start <= r[1] <= end])
    closed = workload == "http-batch"
    wall_s = (end - start) if closed else sum(r.recv - r.due for r in requests)
    pool_before, pool_after = stats_before.get("pool", {}), stats_after.get("pool", {})

    def pool_delta(key: str) -> float:
        return float(pool_after.get(key, 0.0)) - float(pool_before.get(key, 0.0))

    workers = []
    for name in sorted(os.listdir(workdir)):
        if name.startswith("worker-"):
            with open(os.path.join(workdir, name), encoding="utf-8") as handle:
                workers.append(json.load(handle)["aggregates"])
    worker_total = merge(*workers)
    worker_queries = worker_total.get("core.geer.query", {}).get("calls", 0.0)
    # Workers report over their lifetime (check phase included): scale their
    # aggregates to the share of queries the timed window sent them.
    scale = pool_delta("worker_queries") / worker_queries if worker_queries else 0.0
    return layer_metrics(
        window, dump["aggregates"], requests=len(requests), wall_s=wall_s,
        worker=merge(worker_total, scale=scale),
        worker_compute_s=pool_delta("worker_elapsed_seconds"),
        shards=pool_delta("shards_dispatched"), **account,
    )


def run_http(workload: str, seed: int, seconds: float, trace: bool, workdir) -> dict:
    dataset = BATCH_DATASET if workload == "http-batch" else SKEWED_DATASET
    graph = build_graph(dataset)
    inputs = workload_inputs(workload, seed, graph)
    feed = iter(inputs["batches" if workload == "http-batch" else "reads"])
    plan = _plan(trace)
    phases = [Phase() for _ in range(plan[-1][1] + 1)]
    for i, (traced, p) in enumerate(plan):
        update = inputs["updates"][i] if traced or workload == "http-skewed-rw" else None
        server = ServerProcess(dataset, seed, workdir, trace=traced, tag=str(i))
        try:
            phases[p].setups.append(server.setup_s)
            trace_data = _serve(workload, server, inputs, feed, update, seconds / len(plan), traced, phases[p])
        finally:
            server.kill()
    result = _finish(phases, graph)
    if trace:
        result["per_layer"] = _http_layers(workload, trace_data, workdir)
    lags = [lag for phase in phases for lag in phase.own_lag]
    result["record"]["rounds"] = len(plan)
    result["record"]["generator_own_lag_p99_ms"] = 1000.0 * float(np.percentile(lags, 99))
    result["record"]["generator_max_behind_ms"] = 1000.0 * max(max(p.behind) for p in phases)
    if np.percentile(lags, 99) > LAG_BOUND_S:
        print("perfbench: the load generator ran behind its bound; run invalid", file=sys.stderr)
        result["valid"] = False
    if workload == "http-skewed-rw":
        result["record"].update(arrival_rate_per_s=SKEWED_RATE, update_due_at_window_share=SKEWED_UPDATE_AT)
    return result


# --------------------------------------------------------------------------- #
def _digest(answers: list[Answer]) -> str:
    return answers_digest((a.s, a.t, a.eps, a.value) for a in answers)


def _finish(phases: list[Phase], graph) -> dict:
    """Check every answer, then build the result of the run from its phases.

    The last phase is the one reported; in a traced run the first is the
    untraced twin it is compared with for the tracing overhead.
    """
    attempted = failed = checked = violations = 0
    metrics = []
    for phase in phases:
        answers = sum(len(timeline[1]) for timeline in phase.timelines)
        missed = count_violations(graph, phase.timelines)
        values = phase.end_to_end()
        values["answered_share"] = (phase.attempted - phase.failed) / phase.attempted
        values["within_eps_share"] = (answers - missed) / answers
        metrics.append(values)
        attempted, failed = attempted + phase.attempted, failed + phase.failed
        checked, violations = checked + answers, violations + missed
    # Every server of a run starts alike and gets the same check requests;
    # tracing must not change a single answer bit either.
    digests = {digest for phase in phases for digest in phase.check_digests}
    final = phases[-1]
    record = {
        "check_digest": sorted(digests)[0],
        "check_digest_stable": len(digests) == 1,
        "latency_samples": len(final.latencies),
        "latency_p50_ms": 1000.0 * float(np.median(final.latencies)),
        "setups_s": final.setups,
        "updates_ms": [1000.0 * u for u in final.updates],
        "requests_sent": attempted,
        "requests_succeeded": attempted - failed,
        "requests_failed": failed,
        "failed_share": failed / attempted,
        "answers_checked": checked,
        "eps_violation_share": violations / checked,
    }
    if len(phases) > 1:
        record["tracing_overhead"] = {name: metrics[-1][name] - metrics[0][name] for name in metrics[-1]}
    # Randomised answers may miss ε with probability δ = 0.01 each.
    correct = failed == 0 and len(digests) == 1 and violations <= 0.01 * checked
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics[-1], "record": record, "valid": True}


WORKLOADS = {
    "engine-geer": run_engine_geer,
    "http-batch": partial(run_http, "http-batch"),
    "http-skewed-rw": partial(run_http, "http-skewed-rw"),
}
