"""The repository benchmark: one workload of ``BENCHMARK.json`` per call.

    python3 perfbench/run.py --workload engine-geer --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
The workload's inputs come from ``--seed`` alone.  Every answer is checked
against an exact solve.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (a
separate run that serves half its window untraced, then half traced, and
also reports the difference as ``tracing_overhead.*``).

Each run is also written to ``perfbench/records/<workload>/seed-<n>-trace<t>.json``
with the environment it ran in.  A run shorter than ``run_seconds`` is a
short run and never replaces a full-length record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, ROOT, environment, pin_to_one_cpu, use_checkout_sources  # noqa: E402


def write_record(path: str, record: dict) -> bool:
    """Write ``record`` unless it is short and ``path`` holds a full-length one."""
    if record["mode"] == "short" and os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            if json.load(handle).get("mode") == "full":
                print(f"perfbench: kept the full-length record {path}", file=sys.stderr)
                return False
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    pin_to_one_cpu()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(BENCH_DIR / ".work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work")
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = dict(result["per_layer"])
        for name, delta in result["record"]["tracing_overhead"].items():
            values[f"tracing_overhead.{name}"] = delta
    else:
        values = result["metrics"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = bool(result["correct"] and result["valid"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": "full" if args.seconds >= spec["run_seconds"] else "short",
        "environment": environment(),
        "correct": correct,
        "valid": result["valid"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": result["metrics"],
        "per_layer": values if args.trace else None,
        "details": result["record"],
    }
    write_record(str(BENCH_DIR / "records" / args.workload / f"seed-{args.seed}-trace{args.trace}.json"), record)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
