"""Differentially private top-k analytics with budget accounting.

Layers, bottom to top: keyed deterministic noise (``noise``), an in-process
columnar group-by store (``store``), the four release mechanisms
(``mechanisms``), bounded-range composition (``composition``), the
per-analyst budget ledger (``budget``), the orchestration service and
socket front end (``service``), and the parameter-rationale calculators
(``calibration``).
"""

from .budget import BudgetLedger, Cost, actual_cost, expected_cost
from .composition import (
    PerQueryParams,
    SystemPrivacyBudget,
    br_compose,
    overall_guarantee,
    solve_eps_per,
)
from .mechanisms import (
    BOT,
    DPResult,
    PrivacyParams,
    exp_known,
    gumbel_unknown,
    lap_known,
    lap_unknown,
    solve_delta_hat,
    translate_query,
)
from .noise import KeyedNoise, NoiseKey, SimNoise, canonical_query, derive_seed
from .service import QueryService, QuerySpec, ServiceServer, service_from_config
from .store import ColumnMeta, EventRecord, HistogramSlice, Schema, Table, ingest

__version__ = "0.1.0"

__all__ = [
    "BOT",
    "BudgetLedger",
    "ColumnMeta",
    "Cost",
    "DPResult",
    "EventRecord",
    "HistogramSlice",
    "KeyedNoise",
    "NoiseKey",
    "PerQueryParams",
    "PrivacyParams",
    "QueryService",
    "QuerySpec",
    "Schema",
    "ServiceServer",
    "SimNoise",
    "SystemPrivacyBudget",
    "Table",
    "actual_cost",
    "br_compose",
    "canonical_query",
    "derive_seed",
    "exp_known",
    "expected_cost",
    "gumbel_unknown",
    "ingest",
    "lap_known",
    "lap_unknown",
    "overall_guarantee",
    "service_from_config",
    "solve_delta_hat",
    "solve_eps_per",
    "translate_query",
]
