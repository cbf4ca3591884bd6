"""repro — a full reproduction of "Efficient Estimation of Pairwise Effective Resistance".

The package implements the paper's contributions (the refined truncation length,
the adaptive Monte Carlo estimator AMC and the greedy hybrid GEER), every
baseline it compares against (EXACT, MC, MC2, TP, TPC, RP, HAY, SMM), the
substrates they rely on (CSR graphs, spectral preprocessing, Laplacian solvers,
vectorised random walks, spanning-tree samplers, concentration bounds), several
downstream applications (sparsification, clustering, recommendation,
centrality, robustness) and an experiment harness that regenerates every table
and figure of the paper's evaluation at laptop scale.

Every method — core and baseline alike — is reachable through one registry
(:func:`repro.available_methods`) and one session API (:class:`repro.QueryEngine`).

Quickstart
----------
Open a query session; the spectral radius λ, the transition matrix and the
walk engine are computed once and shared by every query in the session:

>>> import repro
>>> graph = repro.barabasi_albert_graph(1000, 8, rng=1)
>>> engine = repro.QueryEngine(graph, rng=1)
>>> engine.query(3, 77, epsilon=0.1).value           # doctest: +SKIP
0.2471...
>>> engine.query(3, 77, epsilon=0.1, method="rp").value  # any registered method
... # doctest: +SKIP

Batches execute through a degree-bucketed :class:`repro.QueryPlan`: the walk
length is derived once per degree signature (not once per pair) and SMM runs
vectorized across pairs:

>>> pairs = [(0, 500), (13, 77), (250, 999)]
>>> batch = engine.query_many(pairs, epsilon=0.1)     # doctest: +SKIP
>>> batch.values, batch.num_buckets                   # doctest: +SKIP
(array([...]), 3)

For serving workloads, :class:`repro.ResistanceService` layers an ε-aware
answer cache, landmark resistance sketches, planned batch execution and
persistent preprocessing artifacts (warm restarts skip the eigen-solve) on top
of the engine:

>>> service = repro.ResistanceService(graph, rng=1)       # doctest: +SKIP
>>> service.query(3, 77, epsilon=0.1).value               # doctest: +SKIP
>>> service.query(3, 77, epsilon=0.1).method              # doctest: +SKIP
'cache'

``repro.EffectiveResistanceEstimator`` remains as a backward-compatible façade
over the same machinery (``estimate`` / ``estimate_many``).
"""

from repro.exceptions import (
    BudgetExceededError,
    ConvergenceError,
    GraphStructureError,
    ReproError,
    StaleEpochError,
)
from repro.graph import (
    EdgeDelta,
    Graph,
    GraphStore,
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    erdos_renyi_graph,
    from_edges,
    from_networkx,
    from_scipy_sparse,
    grid_graph,
    lollipop_graph,
    path_graph,
    power_law_cluster_graph,
    read_edge_list,
    star_graph,
    stochastic_block_model_graph,
    toy_running_example,
    watts_strogatz_graph,
    with_random_weights,
    write_edge_list,
)
from repro.core import (
    BatchResult,
    EffectiveResistanceEstimator,
    EstimateResult,
    MethodSpec,
    QueryBudget,
    QueryContext,
    QueryEngine,
    QueryPlan,
    amc_query,
    available_methods,
    geer_query,
    method_table,
    peng_walk_length,
    refined_walk_length,
    register_method,
    resolve_method,
    smm_estimate,
)
from repro.linalg import spectral_radius_second
from repro.baselines import exact_effective_resistance, ground_truth_resistance
from repro.obs import MetricsRegistry, Observability, Tracer, render_span_tree
from repro.service import (
    LandmarkSketchStore,
    ResistanceCache,
    ResistanceService,
    ServiceConfig,
    UpdateReport,
    graph_fingerprint,
    load_context,
    save_artifacts,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphStructureError",
    "ConvergenceError",
    "BudgetExceededError",
    "StaleEpochError",
    # graph
    "Graph",
    "EdgeDelta",
    "GraphStore",
    "from_edges",
    "from_networkx",
    "from_scipy_sparse",
    "read_edge_list",
    "write_edge_list",
    "with_random_weights",
    "barabasi_albert_graph",
    "erdos_renyi_graph",
    "watts_strogatz_graph",
    "power_law_cluster_graph",
    "stochastic_block_model_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "grid_graph",
    "dumbbell_graph",
    "lollipop_graph",
    "toy_running_example",
    # core
    "EffectiveResistanceEstimator",
    "EstimateResult",
    "amc_query",
    "geer_query",
    "smm_estimate",
    "refined_walk_length",
    "peng_walk_length",
    "spectral_radius_second",
    # unified query layer
    "QueryEngine",
    "QueryContext",
    "QueryBudget",
    "QueryPlan",
    "BatchResult",
    "MethodSpec",
    "register_method",
    "resolve_method",
    "available_methods",
    "method_table",
    # baselines
    "exact_effective_resistance",
    "ground_truth_resistance",
    # observability
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "render_span_tree",
    # serving layer
    "ResistanceService",
    "ServiceConfig",
    "UpdateReport",
    "ResistanceCache",
    "LandmarkSketchStore",
    "save_artifacts",
    "load_context",
    "graph_fingerprint",
]
