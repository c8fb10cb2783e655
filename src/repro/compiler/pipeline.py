"""The Phase-1 compilation driver.

``compile_source`` / ``compile_program`` run the full pass pipeline of §4.1:

1. parse (done by the caller or here from source text),
2. normalise array assignments / WHERE into foralls,
3. process directives and partition data (``build_mapping``),
4. sequentialise parallel constructs into node loops,
5. detect and insert communication, producing the loosely-synchronous SPMD
   node program.

The result, a :class:`CompiledProgram`, is the object Phase 2 (abstraction +
interpretation) and the simulator both consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..frontend import ast_nodes as ast
from ..frontend.parser import parse_source
from ..frontend.source import SourceFile
from ..frontend.symbols import SymbolTable
from .normalize import NormalizeResult, normalize_program
from .optimizations import OptimizationOptions, apply_optimizations
from .partition import MappingContext, build_mapping
from .sequentialize import sequentialize, statement_labels
from .spmd import SPMDProgram


@dataclass
class CompiledProgram:
    """Everything Phase 1 produces for one HPF/Fortran 90D program."""

    name: str
    source: SourceFile
    program: ast.Program             # original AST
    normalized: ast.Program          # after normalisation
    symtable: SymbolTable
    mapping: MappingContext
    spmd: SPMDProgram
    options: "CompileOptions"
    temp_array_aliases: dict[str, str] = field(default_factory=dict)

    @property
    def nprocs(self) -> int:
        return self.mapping.nprocs

    def describe(self) -> str:
        """A short multi-line summary used by reports and examples."""
        lines = [f"program {self.name}: {self.nprocs} processors, grid {self.mapping.grid.shape}"]
        for dist in self.mapping.distributions.values():
            lines.append(f"  {dist.describe()}")
        counts = self.spmd.count_nodes()
        summary = ", ".join(f"{count} {kind}" for kind, count in sorted(counts.items()))
        lines.append(f"  SPMD nodes: {summary}")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class CompileFront:
    """The passes that read the parsed program alone: its symbol table, the
    normalised program and the normalised statements' labels.

    Neither the process count, the grid nor the parameters enter, so one
    front serves every compile of a program; :mod:`repro.stages` keeps it
    with the parsed program.  Compiles only read it.
    """

    program: ast.Program
    symtable: SymbolTable
    normalized: NormalizeResult
    labels: dict[int, str]


def compile_front(program: ast.Program) -> CompileFront:
    """Build the symbol table, normalise and label *program*."""
    symtable = SymbolTable.from_program(program)
    normalized = normalize_program(program, symtable)
    return CompileFront(program=program, symtable=symtable, normalized=normalized,
                        labels=statement_labels(normalized.program))


@dataclass
class CompileOptions:
    """All user-controllable Phase-1 parameters."""

    nprocs: int = 1
    grid_shape: Optional[tuple[int, ...]] = None
    params: dict[str, float] = field(default_factory=dict)
    optimizations: OptimizationOptions = field(default_factory=OptimizationOptions)


def compile_program(
    program: ast.Program,
    source: SourceFile | None = None,
    options: CompileOptions | None = None,
    front: CompileFront | None = None,
) -> CompiledProgram:
    """Compile an already-parsed program unit.

    *front* is the :func:`compile_front` of *program*, when the caller
    shares one between compiles; without it the front end runs here.
    """
    options = options or CompileOptions()
    source = source or SourceFile(text="", name=program.name)
    if front is None:
        front = compile_front(program)
    elif front.program is not program:
        raise ValueError("compile front was built for another program")

    symtable = front.symtable
    normalized = front.normalized
    mapping = build_mapping(
        program,
        symtable,
        nprocs=options.nprocs,
        grid_shape=options.grid_shape,
        params=options.params,
        temp_array_aliases=normalized.temp_array_aliases,
    )
    nodes = sequentialize(normalized.program, symtable, mapping, front.labels)
    nodes = apply_optimizations(nodes, mapping, options.optimizations)

    scalars = {
        sym.name.lower(): sym.type_name
        for sym in symtable.scalars()
    }
    spmd = SPMDProgram(
        name=program.name,
        nodes=nodes,
        grid=mapping.grid,
        distributions=mapping.distributions,
        scalars=scalars,
        source_name=source.name,
    )
    return CompiledProgram(
        name=program.name,
        source=source,
        program=program,
        normalized=normalized.program,
        symtable=symtable,
        mapping=mapping,
        spmd=spmd,
        options=options,
        temp_array_aliases=normalized.temp_array_aliases,
    )


def compile_source(
    text: str,
    *,
    name: str = "<string>",
    nprocs: int = 1,
    grid_shape: tuple[int, ...] | None = None,
    params: dict[str, float] | None = None,
    optimizations: OptimizationOptions | None = None,
) -> CompiledProgram:
    """Parse and compile HPF/Fortran 90D source text."""
    source = SourceFile(text=text, name=name)
    program = parse_source(source, name=name)
    options = CompileOptions(
        nprocs=nprocs,
        grid_shape=grid_shape,
        params=dict(params or {}),
        optimizations=optimizations or OptimizationOptions(),
    )
    return compile_program(program, source, options)
