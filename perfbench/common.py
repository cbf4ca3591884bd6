"""Shared helpers of the benchmark: paths, graphs, the run environment.

The benchmark runs from the root of a checkout and imports the program from
``src/`` of that checkout; nothing is installed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Make ``import repro`` load the checkout's program, failing loudly if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    A request of the HTTP workloads hops between the load generator, the
    server's threads and its pool worker, one at a time.  Spread over CPUs,
    each hop waits for another CPU to wake; on a shared virtual host that
    wait was a third of a ``/query_batch`` round trip and the part that
    moved most with the neighbours' load.  On one CPU the hops are plain
    context switches.  The highest-numbered CPU is taken, as the first
    tends to take the host's interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def build_graph(name: str):
    """The workload graphs: registered datasets plus ``ba-<n>-<m>``.

    ``ba-2000-8`` is the Barabási–Albert graph the repository's server
    benchmark has always used (``barabasi_albert_graph(2000, 8, rng=1)``).
    Graphs are fixed across seeds; the seed only varies the queries.
    """
    if name.startswith("ba-"):
        from repro.graph.generators import barabasi_albert_graph

        _, n, m = name.split("-")
        return barabasi_albert_graph(int(n), int(m), rng=1)
    from repro.experiments.datasets import dataset_spec

    return dataset_spec(name).build()


def answers_digest(answers) -> str:
    """SHA-256 over ``s t ε value.hex()`` lines: changes iff any answer bit changes."""
    h = hashlib.sha256()
    for s, t, eps, value in answers:
        h.update(f"{int(s)} {int(t)} {float(eps).hex()} {float(value).hex()}\n".encode())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What a record needs to be compared with another: host, versions, revision."""
    import numpy
    import scipy

    from repro.sampling.kernels import active_backend_name, backend_status

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "walk_kernel_backend": active_backend_name(),
        "backend_status": backend_status(),
        "git_sha": _git_sha(),
    }
