"""Run one ``NetServer`` for the benchmark's HTTP workloads.

    python3 perfbench/server_main.py --dataset ba-2000-8 --seed 1 --dump out.json [--trace]

Builds the graph, a ``ResistanceService`` with the default ``ServiceConfig``
and a ``NetServer`` with one pool worker, prints the server URL on stdout
once it listens, then reads commands from stdin:

``snap NAME``  keep a copy of the span aggregates under NAME, answer ``ok``
``stop``       stop the server (its pool shuts down cleanly) and exit

On exit it writes ``--dump``: the peak resident memory of this process and
of its reaped children (the pool worker) and, with ``--trace``, the span
aggregates, the snapshots and the root spans.  With ``--trace`` the layer
wrappers are installed before anything is built, so the set-up is traced
too and the forked pool worker inherits them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import build_graph, use_checkout_sources  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    use_checkout_sources()

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer(worker_dump_dir=os.path.dirname(os.path.abspath(args.dump)))
        tracer.install()

    from repro.net.server import NetServer, NetServerConfig
    from repro.service import ResistanceService

    service = ResistanceService(build_graph(args.dataset), rng=args.seed)
    server = NetServer(service, NetServerConfig(workers=1)).start_in_thread()
    print(server.url, flush=True)

    snaps = {}
    for line in sys.stdin:
        command = line.split()
        if command[:1] == ["snap"] and len(command) == 2:
            snaps[command[1]] = tracer.snapshot() if tracer is not None else {}
            print("ok", flush=True)
        elif command == ["stop"]:
            break
    server.stop_in_thread()
    service.close()

    record = {
        "rss_kb_self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_kb_children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        record.update(aggregates=tracer.snapshot(), snaps=snaps, roots=tracer.roots)
    with open(args.dump, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
