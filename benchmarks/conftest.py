"""Shared configuration for the benchmark suite.

Every ``bench_*`` module regenerates the data behind one table or figure of the
paper at laptop scale (see DESIGN.md section 4 for the experiment index and
EXPERIMENTS.md for the measured results).  The figure drivers live in
:mod:`repro.experiments.figures`; the benchmarks run them once through
``benchmark.pedantic`` (a sweep is a macro-benchmark — repeating it dozens of
times would add nothing) and persist the resulting tables under
``benchmarks/results/`` so they can be inspected after the run.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: ``REPRO_BENCH_QUICK=1`` (as CI sets it) shrinks every perf benchmark's
#: workload; records carry the mode that produced them.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
MODE = "quick" if QUICK else "full"

# Laptop-scale sweep parameters shared by the figure benchmarks.  The paper uses
# 100 queries, ε down to 0.01 and a one-day timeout; these defaults keep the
# whole benchmark suite in the tens of minutes while preserving every
# qualitative comparison (see EXPERIMENTS.md).
BENCH_EPSILONS = (0.5, 0.2, 0.1, 0.05)
BENCH_NUM_QUERIES = 8
BENCH_TIME_BUDGET_SECONDS = 10.0
BENCH_CONTEXT_OVERRIDES = dict(
    max_total_steps=20_000_000,  # per-query walk-step safety cap for AMC / MC
    baseline_max_seconds=3.0,    # per-query wall-clock cap for TP / TPC (their faithful
                                 # budgets are hours per query — the paper's point)
    exact_max_nodes=2500,        # EXACT only fits the smallest dataset, as in the paper
    mc2_max_walks=2000,
    hay_max_samples=60,
    rp_jl_constant=4.0,          # keep RP's k * n sketch within laptop memory
)
# Datasets used by the headline sweeps: one per structural regime.
BENCH_RANDOM_DATASETS = ("facebook-syn", "dblp-syn", "orkut-syn")
BENCH_EDGE_DATASETS = ("facebook-syn", "dblp-syn", "orkut-syn")


def save_table(name: str, text: str) -> Path:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")
    return path


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


# --------------------------------------------------------------------------- #
# machine-readable perf records (benchmarks/results/BENCH_<name>.json)
# --------------------------------------------------------------------------- #
def _record_path(name: str) -> Path:
    """Where this run's ``BENCH_<name>`` record goes.

    Committed records come from full-mode runs, so a quick-mode run never
    overwrites a full-mode record: its output goes to
    ``BENCH_<name>.quick.json`` beside it instead.
    """
    path = RESULTS_DIR / f"BENCH_{name}.json"
    if QUICK and _read_record(path).get("mode") == "full":
        return path.with_suffix(".quick.json")
    return path


def _read_record(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def _write(path: Path, name: str, record: dict, shown: dict) -> Path:
    record = {
        **record,
        "benchmark": name,
        "mode": MODE,
        "available_cpus": os.cpu_count() or 1,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n[{path.name}] {json.dumps(shown, sort_keys=True)}")
    return path


def write_record(name: str, record: dict) -> Path:
    """Write a whole ``BENCH_<name>`` record (see :func:`_record_path`)."""
    return _write(_record_path(name), name, record, record)


def update_record(name: str, fields: dict) -> Path:
    """Merge ``fields`` into a ``BENCH_<name>`` record, keeping its other keys.

    For scripts whose tests each write their own sections of one record.
    Keys measured in the other mode are dropped rather than merged, so a
    record never mixes quick and full numbers under one ``mode``.
    """
    path = _record_path(name)
    record = _read_record(path)
    if record.get("mode") != MODE:
        record = {}
    return _write(path, name, {**record, **fields}, fields)
