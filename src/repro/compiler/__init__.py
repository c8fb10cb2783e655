"""Phase-1 compiler: HPF/Fortran 90D → loosely-synchronous SPMD node program.

Pass pipeline (mirroring §4.1 of the paper): parse → normalise (array
assignment / WHERE → forall) → partition (directive processing, owner
computes) → sequentialise (node loops) → communication detection/insertion →
SPMD program emission, with optional user-selectable optimisations.
"""

from .comm_detect import (
    ForallCommInfo,
    analyze_forall,
    analyze_reduction_source,
    analyze_scalar_rhs,
    axes_conformant,
    comm_elements_per_proc,
    subscript_offset,
)
from .normalize import NormalizeResult, normalize_program
from .optimizations import OptimizationOptions, apply_optimizations
from .partition import MappingContext, build_mapping
from .pipeline import (
    CompiledProgram,
    CompileFront,
    CompileOptions,
    compile_front,
    compile_program,
    compile_source,
)
from .sequentialize import Sequentializer, sequentialize
from .spmd import (
    CommPhase,
    CommSpec,
    LocalLoopNest,
    LoopDim,
    NodeDo,
    NodeDoWhile,
    NodeIf,
    OwnerStmt,
    ReductionNode,
    SeqOverhead,
    SerialStmt,
    ShiftNode,
    SPMDNode,
    SPMDProgram,
)

__all__ = [
    "ForallCommInfo",
    "analyze_forall",
    "analyze_reduction_source",
    "analyze_scalar_rhs",
    "axes_conformant",
    "comm_elements_per_proc",
    "subscript_offset",
    "NormalizeResult",
    "normalize_program",
    "OptimizationOptions",
    "apply_optimizations",
    "MappingContext",
    "build_mapping",
    "CompiledProgram",
    "CompileFront",
    "CompileOptions",
    "compile_front",
    "compile_program",
    "compile_source",
    "Sequentializer",
    "sequentialize",
    "CommPhase",
    "CommSpec",
    "LocalLoopNest",
    "LoopDim",
    "NodeDo",
    "NodeDoWhile",
    "NodeIf",
    "OwnerStmt",
    "ReductionNode",
    "SeqOverhead",
    "SerialStmt",
    "ShiftNode",
    "SPMDNode",
    "SPMDProgram",
]
