"""Interpretation Engine: the abstraction parse that builds the SAAG, the
per-AAU interpretation functions, and the recursive interpretation
algorithm that predicts application performance from SAU parameters
(Phase 2 of the framework)."""

from .abstraction import build_saag
from .engine import InterpretationResult, PerformanceInterpreter, interpret
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

__all__ = [
    "build_saag",
    "InterpretationResult",
    "PerformanceInterpreter",
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
]
