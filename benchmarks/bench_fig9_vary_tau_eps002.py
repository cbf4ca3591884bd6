"""Fig. 9 — effect of the batch count τ on AMC and GEER at ε = 0.02.

At this small ε, plain AMC's walk budget explodes; its per-query work is capped
by ``max_total_steps`` (see EXPERIMENTS.md), so the AMC series here is a lower
bound on its faithful cost while GEER completes its queries legitimately.

AMC skips the futile batches of its schedule — those whose range term alone
misses ε/2, more of them as τ grows — instead of walking and discarding them
(DESIGN.md Contract 11), so at large τ the running times here leave out work
the paper's curves include: its implementation walks every batch.  The cap
still charges skipped batches, so capped queries stop where they did before.
"""

from __future__ import annotations

import pytest

from conftest import save_table
from repro.experiments.figures import fig8_fig9_vary_tau
from repro.experiments.reporting import format_table

DATASETS = ("dblp-syn", "orkut-syn")


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig9_vary_tau_eps002(benchmark, dataset):
    rows = benchmark.pedantic(
        lambda: fig8_fig9_vary_tau(
            dataset,
            epsilon=0.02,
            taus=(1, 2, 4, 6, 8),
            num_queries=4,
            rng=7,
            max_total_steps=20_000_000,
        ),
        rounds=1,
        iterations=1,
    )
    save_table(
        f"fig9_vary_tau_eps002_{dataset}",
        format_table(rows, title=f"Fig. 9 — running time vs tau (eps=0.02, {dataset})"),
    )
    geer = {row["tau"]: row["avg_time_ms"] for row in rows if row["method"] == "geer"}
    amc = {row["tau"]: row["avg_time_ms"] for row in rows if row["method"] == "amc"}
    assert set(geer) == set(amc)
