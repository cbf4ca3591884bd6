"""Fig. 8 — effect of the batch count τ on AMC and GEER at ε = 0.2.

AMC skips the futile batches of its schedule — those whose range term alone
misses ε/2, more of them as τ grows — instead of walking and discarding them
(DESIGN.md Contract 11), so at large τ the running times here leave out work
the paper's curves include: its implementation walks every batch.
"""

from __future__ import annotations

import pytest

from conftest import save_table
from repro.experiments.figures import fig8_fig9_vary_tau
from repro.experiments.reporting import format_table

DATASETS = ("dblp-syn", "youtube-syn", "orkut-syn")


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig8_vary_tau_eps02(benchmark, dataset):
    rows = benchmark.pedantic(
        lambda: fig8_fig9_vary_tau(
            dataset,
            epsilon=0.2,
            taus=(1, 2, 3, 4, 5, 6, 7, 8),
            num_queries=6,
            rng=7,
            max_total_steps=20_000_000,
        ),
        rounds=1,
        iterations=1,
    )
    save_table(
        f"fig8_vary_tau_eps02_{dataset}",
        format_table(rows, title=f"Fig. 8 — running time vs tau (eps=0.2, {dataset})"),
    )
    assert {row["tau"] for row in rows} == set(range(1, 9))
