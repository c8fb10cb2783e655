"""Directive processing and data partitioning (Phase 1, step 2).

This pass consumes the HPF mapping directives (PROCESSORS, TEMPLATE, ALIGN,
DISTRIBUTE) and produces a :class:`MappingContext`: the processor grid(s),
templates, alignments and — most importantly — one
:class:`~repro.distribution.ArrayDistribution` per declared array.  Arrays
with no explicit mapping receive the implementation-dependent default mapping
(replication), exactly as §2 of the paper describes.

The number of physical processors may be overridden at compile time (the
performance-prediction framework lets the user sweep system sizes without
editing the source); the declared grid *rank* is preserved and the override is
factored into a near-square shape unless an explicit ``grid_shape`` is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..distribution import (
    Alignment,
    ArrayDistribution,
    AxisMapping,
    DimDistribution,
    ProcessorGrid,
    ProcessorSet,
    Template,
    TemplateSet,
)
from ..distribution.layout import default_grid_shape
from ..frontend import ast_nodes as ast
from ..frontend.errors import DirectiveError
from ..frontend.symbols import SymbolTable, eval_const_expr, try_eval_const


@dataclass
class MappingContext:
    """Everything the later passes need to know about data mapping."""

    grid: ProcessorGrid
    grids: ProcessorSet
    templates: TemplateSet
    alignments: dict[str, Alignment]
    distributions: dict[str, ArrayDistribution]
    env: dict[str, float]
    nprocs: int

    def distribution_of(self, array: str) -> Optional[ArrayDistribution]:
        return self.distributions.get(array.lower())

    def is_distributed(self, array: str) -> bool:
        dist = self.distribution_of(array)
        return dist is not None and not dist.is_replicated

    def distributed_arrays(self) -> list[str]:
        return [name for name, dist in self.distributions.items() if not dist.is_replicated]


def _eval_shape(exprs: list[ast.Expr], env: Mapping[str, float], line: int) -> tuple[int, ...]:
    shape = []
    for expr in exprs:
        value = try_eval_const(expr, dict(env))
        if value is None:
            raise DirectiveError("directive shape must be a constant expression", line)
        shape.append(int(round(value)))
    return tuple(shape)


def build_mapping(
    program: ast.Program,
    symtable: SymbolTable,
    *,
    nprocs: Optional[int] = None,
    grid_shape: Optional[tuple[int, ...]] = None,
    params: Mapping[str, float] | None = None,
    temp_array_aliases: Mapping[str, str] | None = None,
) -> MappingContext:
    """Process the program's directives into a :class:`MappingContext`;
    ``nprocs=None`` keeps the declared processor shapes."""
    env = symtable.parameter_env(overrides=params)
    env.setdefault("number_of_processors", float(nprocs or 1))

    grids = ProcessorSet()
    templates = TemplateSet()
    alignments: dict[str, Alignment] = {}
    distribute_directives: list[ast.DistributeDirective] = []

    # -- pass 1: collect PROCESSORS / TEMPLATE / ALIGN --------------------------
    for directive in program.directives:
        if isinstance(directive, ast.ProcessorsDirective):
            shape = _eval_shape(directive.shape, env, directive.line) if directive.shape else (1,)
            grid = _apply_processor_override(directive.name, shape, nprocs, grid_shape)
            grids.add(grid)
        elif isinstance(directive, ast.TemplateDirective):
            shape = _eval_shape(directive.shape, env, directive.line)
            templates.add(Template(name=directive.name.lower(), shape=shape))
        elif isinstance(directive, ast.AlignDirective):
            alignment = Alignment.from_directive(directive, dict(env))
            alignments[alignment.alignee] = alignment
        elif isinstance(directive, ast.DistributeDirective):
            distribute_directives.append(directive)

    # Default grid if the program declared none but does distribute something.
    if len(grids) == 0:
        rank = 1
        if distribute_directives:
            rank = max(
                1,
                max(
                    sum(1 for fmt, _ in d.dist_formats if fmt != "*")
                    for d in distribute_directives
                ),
            )
        shape = grid_shape or default_grid_shape(nprocs or 1, rank)
        grids.add(ProcessorGrid(name="p", shape=tuple(shape)))

    primary_grid = grids.default()
    assert primary_grid is not None

    # -- pass 2: DISTRIBUTE ------------------------------------------------------
    for directive in distribute_directives:
        target_name = directive.target.lower()
        template = templates.get(target_name)
        if template is None:
            # Distributing an array directly: synthesise an implicit template of
            # the array's shape with an identity alignment.
            sym = symtable.get(target_name)
            if sym is None or not sym.is_array:
                raise DirectiveError(
                    f"DISTRIBUTE target '{directive.target}' is neither a template nor an array",
                    directive.line,
                )
            shape = symtable.array_shape(target_name, env)
            template = Template(name=f"__tmpl_{target_name}", shape=shape)
            templates.add(template)
            alignments[target_name] = Alignment.identity(
                alignee=target_name, target=template.name, rank=len(shape)
            )

        grid = grids.get(directive.onto) if directive.onto else primary_grid
        if grid is None:
            raise DirectiveError(
                f"DISTRIBUTE ... ONTO '{directive.onto}': unknown processor arrangement",
                directive.line,
            )
        dists = []
        for fmt, arg in directive.dist_formats:
            block = None
            if arg is not None:
                block = int(round(eval_const_expr(arg, env)))
            dists.append(DimDistribution.from_format(fmt, block))
        template.assign_distribution(dists, grid)

    # -- pass 3: per-array distributions ------------------------------------------
    distributions: dict[str, ArrayDistribution] = {}
    for sym in symtable.arrays():
        name = sym.name.lower()
        if temp_array_aliases and name in temp_array_aliases:
            continue  # handled below by aliasing
        shape = symtable.array_shape(name, env)
        lower_bounds = symtable.array_lower_bounds(name, env)
        alignment = alignments.get(name)
        template = templates.get(alignment.target) if alignment else None
        if alignment is None or template is None or not template.is_distributed:
            distributions[name] = ArrayDistribution.replicated(
                name, shape, element_size=sym.element_size, lower_bounds=lower_bounds
            )
            continue
        distributions[name] = _distribute_array(
            name, shape, lower_bounds, sym.element_size, alignment, template
        )

    # Temp arrays introduced by normalisation inherit the source array's mapping.
    if temp_array_aliases:
        for temp, source in temp_array_aliases.items():
            src_dist = distributions.get(source.lower())
            temp_sym = symtable.get(temp)
            if src_dist is None or temp_sym is None:
                continue
            distributions[temp.lower()] = ArrayDistribution(
                name=temp.lower(),
                shape=src_dist.shape,
                axes=list(src_dist.axes),
                grid=src_dist.grid,
                element_size=temp_sym.element_size,
                lower_bounds=src_dist.lower_bounds,
                template_name=src_dist.template_name,
            )

    return MappingContext(
        grid=primary_grid,
        grids=grids,
        templates=templates,
        alignments=alignments,
        distributions=distributions,
        env=env,
        nprocs=primary_grid.size,
    )


def _apply_processor_override(
    name: str, declared_shape: tuple[int, ...], nprocs: Optional[int],
    grid_shape: Optional[tuple[int, ...]],
) -> ProcessorGrid:
    """Apply the compile-time processor-count / grid-shape override."""
    shape = declared_shape
    if grid_shape is not None:
        shape = tuple(grid_shape)
    elif nprocs is not None:
        declared_total = 1
        for extent in declared_shape:
            declared_total *= extent
        if declared_total != nprocs:
            shape = default_grid_shape(nprocs, len(declared_shape))
    return ProcessorGrid(name=name.lower(), shape=shape)


def _distribute_array(
    name: str,
    shape: tuple[int, ...],
    lower_bounds: tuple[int, ...],
    element_size: int,
    alignment: Alignment,
    template: Template,
) -> ArrayDistribution:
    """Fold an array's alignment and its template's distribution into an ArrayDistribution."""
    grid = template.grid
    assert grid is not None
    axes: list[AxisMapping] = []
    for axis in range(len(shape)):
        template_axis = alignment.template_axis_for(axis)
        if template_axis is None or template_axis >= template.rank:
            axes.append(AxisMapping(extent=shape[axis]))
            continue
        dist = (
            template.distributions[template_axis]
            if template_axis < len(template.distributions)
            else DimDistribution()
        )
        grid_axis = (
            template.grid_axis[template_axis]
            if template_axis < len(template.grid_axis)
            else None
        )
        nprocs = grid.shape[grid_axis] if grid_axis is not None else 1
        axes.append(
            AxisMapping(
                extent=shape[axis],
                dist=dist,
                nprocs=nprocs,
                grid_axis=grid_axis,
                template_extent=template.shape[template_axis],
                offset=alignment.offset_for(axis),
            )
        )
    return ArrayDistribution(
        name=name,
        shape=shape,
        axes=axes,
        grid=grid,
        element_size=element_size,
        lower_bounds=lower_bounds,
        template_name=template.name,
    )
