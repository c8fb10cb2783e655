"""Interpretation Engine: per-AAU interpretation functions + the recursive
interpretation algorithm that predicts application performance from SAU
parameters (Phase 2 of the framework)."""

from .engine import (
    InterpretationResult,
    PerformanceInterpreter,
    PricePlan,
    build_plan,
    interpret,
)
from .expression_cost import (
    OpCount,
    count_assignment,
    count_expr,
    count_statement_body,
    iteration_time,
)
from .functions import InterpretationContext, InterpreterOptions
from .memory_model import (
    MemoryModelOptions,
    estimate_hit_ratio,
    streaming_miss_ratio,
    working_set_bytes,
)
from .metrics import AAUMetrics, Metrics, MetricsTable
from .overlap import OverlapOptions, apply_overlap

__all__ = [
    "InterpretationResult",
    "PerformanceInterpreter",
    "PricePlan",
    "build_plan",
    "interpret",
    "OpCount",
    "count_assignment",
    "count_expr",
    "count_statement_body",
    "iteration_time",
    "InterpretationContext",
    "InterpreterOptions",
    "MemoryModelOptions",
    "estimate_hit_ratio",
    "streaming_miss_ratio",
    "working_set_bytes",
    "AAUMetrics",
    "Metrics",
    "MetricsTable",
    "OverlapOptions",
    "apply_overlap",
]
