"""The paper's contribution plus the unified query layer.

Refined walk lengths, AMC, SMM and GEER, the method registry that exposes
them (and every baseline) under one normalised signature, and the
session/batch API built on top.
"""

from repro.core.result import EstimateResult
from repro.core.walk_length import peng_walk_length, refined_walk_length
from repro.core.registry import (
    DuplicateMethodError,
    MethodSpec,
    QueryBudget,
    QueryContext,
    UnknownMethodError,
    available_methods,
    method_table,
    register_method,
    resolve_method,
)
from repro.core.smm import SMMState, smm_estimate
from repro.core.amc import AMCResult, amc_estimate, amc_query
from repro.core.geer import geer_query
from repro.core.batch import BatchResult, QueryPlan, WalkBucket
from repro.core.engine import QueryEngine, SessionStats
from repro.core.estimator import EffectiveResistanceEstimator

__all__ = [
    "EstimateResult",
    "refined_walk_length",
    "peng_walk_length",
    "SMMState",
    "smm_estimate",
    "AMCResult",
    "amc_estimate",
    "amc_query",
    "geer_query",
    "EffectiveResistanceEstimator",
    # unified query layer
    "DuplicateMethodError",
    "UnknownMethodError",
    "MethodSpec",
    "QueryBudget",
    "QueryContext",
    "register_method",
    "resolve_method",
    "available_methods",
    "method_table",
    "QueryEngine",
    "SessionStats",
    "QueryPlan",
    "BatchResult",
    "WalkBucket",
]
