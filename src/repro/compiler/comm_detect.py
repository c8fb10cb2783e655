"""Communication detection (Phase 1, step 4).

Given a normalised ``forall`` and the mapping context, this pass applies the
owner-computes rule and classifies every off-processor reference into one of
the communication patterns the HPF/Fortran 90D runtime provides:

* aligned access                      -> no communication,
* constant-offset stencil access      -> ``shift`` (boundary-slab exchange),
* access not indexed by a forall var  -> ``broadcast`` of the referenced slice,
* indirect / non-conformant access    -> general ``gather``,
* reductions                          -> collective ``reduce``.

The classification mirrors §4.3 of the paper: the first communication level
fetches off-processor data required by the computation level, computation is
then purely local, and a final communication level writes non-local results
back (needed only when the left-hand side is itself accessed irregularly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..distribution import ArrayDistribution
from ..frontend import ast_nodes as ast
from ..frontend.symbols import SymbolTable, try_eval_const
from .partition import MappingContext
from .spmd import CommSpec


@dataclass
class LhsIndexInfo:
    """How one forall index variable drives the home array."""

    var: str
    home_axis: int
    lhs_offset: int = 0


@dataclass
class ForallCommInfo:
    """Result of communication analysis for one normalised forall."""

    home_array: Optional[str]
    lhs_index_map: dict[str, LhsIndexInfo] = field(default_factory=dict)
    gather_in: list[CommSpec] = field(default_factory=list)
    write_back: list[CommSpec] = field(default_factory=list)
    replicated_compute: bool = False


# ---------------------------------------------------------------------------
# Subscript shape analysis
# ---------------------------------------------------------------------------


def subscript_offset(expr: ast.Expr, var: str, env: dict | None = None) -> Optional[int]:
    """If *expr* is ``var``, ``var + c`` or ``var - c`` (c a constant), return c.

    Returns None when the subscript has any other shape.
    """
    if isinstance(expr, ast.Var):
        return 0 if expr.name.lower() == var.lower() else None
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-"):
        left_is_var = isinstance(expr.left, ast.Var) and expr.left.name.lower() == var.lower()
        right_is_var = isinstance(expr.right, ast.Var) and expr.right.name.lower() == var.lower()
        if left_is_var and not _mentions_any_var(expr.right):
            const = try_eval_const(expr.right, env or {})
            if const is not None:
                return int(const) if expr.op == "+" else -int(const)
        if right_is_var and expr.op == "+" and not _mentions_any_var(expr.left):
            const = try_eval_const(expr.left, env or {})
            if const is not None:
                return int(const)
    return None


def _mentions_any_var(expr: ast.Expr) -> bool:
    return any(isinstance(node, (ast.Var, ast.ArrayRef)) for node in ast.walk_expr(expr))


def subscript_forall_vars(expr: ast.Expr, forall_vars: set[str]) -> set[str]:
    """Which forall index variables appear anywhere in this subscript expression."""
    found = set()
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.Var) and node.name.lower() in forall_vars:
            found.add(node.name.lower())
    return found


def has_indirection(expr: ast.Expr) -> bool:
    """True if the subscript contains an array reference (indirect addressing)."""
    return any(isinstance(node, ast.ArrayRef) for node in ast.walk_expr(expr))


# ---------------------------------------------------------------------------
# Distribution compatibility
# ---------------------------------------------------------------------------


def axes_conformant(
    a: ArrayDistribution, a_axis: int, b: ArrayDistribution, b_axis: int
) -> bool:
    """True when the two array axes are divided identically across the same grid axis."""
    am, bm = a.axes[a_axis], b.axes[b_axis]
    if not am.is_distributed and not bm.is_distributed:
        return True
    if am.is_distributed != bm.is_distributed:
        return False
    return (
        am.dist.kind == bm.dist.kind
        and am.dist.block == bm.dist.block
        and am.nprocs == bm.nprocs
        and am.grid_axis == bm.grid_axis
        and am.map_extent == bm.map_extent
        and am.offset == bm.offset
    )


# ---------------------------------------------------------------------------
# Forall analysis
# ---------------------------------------------------------------------------


def build_lhs_index_map(
    target: ast.ArrayRef,
    dist: ArrayDistribution,
    forall_vars: set[str],
    env: dict | None = None,
) -> tuple[dict[str, LhsIndexInfo], bool]:
    """Map forall index variables to home-array axes (owner-computes rule).

    Returns (map, needs_writeback): writeback is needed when a *distributed*
    LHS axis is indexed by something other than ``var ± const``.
    """
    index_map: dict[str, LhsIndexInfo] = {}
    needs_writeback = False
    for axis, sub in enumerate(target.indices):
        vars_here = subscript_forall_vars(sub, forall_vars)
        if len(vars_here) == 1:
            var = next(iter(vars_here))
            offset = subscript_offset(sub, var, env)
            if offset is not None:
                if var not in index_map:
                    index_map[var] = LhsIndexInfo(var=var, home_axis=axis, lhs_offset=offset)
                continue
        if dist.axes[axis].is_distributed and vars_here:
            needs_writeback = True
    return index_map, needs_writeback


def classify_rhs_reference(
    ref: ast.ArrayRef,
    ref_dist: ArrayDistribution,
    home_dist: Optional[ArrayDistribution],
    lhs_map: dict[str, LhsIndexInfo],
    forall_vars: set[str],
    env: dict | None = None,
) -> list[CommSpec]:
    """Classify one RHS reference to a distributed array into CommSpecs."""
    if ref_dist.is_replicated:
        return []

    comms: list[CommSpec] = []
    gather_needed = False

    for axis, sub in enumerate(ref.indices):
        axis_map = ref_dist.axes[axis]
        if not axis_map.is_distributed:
            continue
        if isinstance(sub, ast.Section) or has_indirection(sub):
            gather_needed = True
            break
        vars_here = subscript_forall_vars(sub, forall_vars)
        if not vars_here:
            # Distributed axis indexed by a loop-invariant value: the owning
            # processor column must broadcast the referenced slice.
            comms.append(CommSpec(
                kind="broadcast",
                array=ref.name.lower(),
                axis=axis,
                element_size=ref_dist.element_size,
                line=ref.line,
                description=f"broadcast {ref.name}(axis {axis + 1}) slice",
            ))
            continue
        if len(vars_here) > 1:
            gather_needed = True
            break
        var = next(iter(vars_here))
        offset = subscript_offset(sub, var, env)
        info = lhs_map.get(var)
        if offset is None or info is None or home_dist is None:
            gather_needed = True
            break
        if not axes_conformant(ref_dist, axis, home_dist, info.home_axis):
            gather_needed = True
            break
        relative = offset - info.lhs_offset
        if relative != 0:
            comms.append(CommSpec(
                kind="shift",
                array=ref.name.lower(),
                axis=axis,
                offset=relative,
                element_size=ref_dist.element_size,
                line=ref.line,
            ))

    if gather_needed:
        return [CommSpec(
            kind="gather",
            array=ref.name.lower(),
            element_size=ref_dist.element_size,
            line=ref.line,
            description=f"gather off-processor elements of {ref.name}",
        )]
    return comms


def _dedupe(comms: list[CommSpec]) -> list[CommSpec]:
    seen: set[tuple] = set()
    out: list[CommSpec] = []
    for spec in comms:
        key = (spec.kind, spec.array, spec.axis, spec.offset, spec.reduce_op)
        if key in seen:
            continue
        seen.add(key)
        out.append(spec)
    return out


def analyze_forall(
    forall: ast.ForallStmt,
    mapping: MappingContext,
    symtable: SymbolTable,
) -> ForallCommInfo:
    """Full communication analysis for one normalised forall statement."""
    env = dict(mapping.env)
    forall_vars = {t.var.lower() for t in forall.triplets}

    # The home array is the left-hand side of the (first) body assignment.
    assignment = forall.body[0] if forall.body else None
    target = assignment.target if assignment is not None else None
    home_array: Optional[str] = None
    home_dist: Optional[ArrayDistribution] = None
    lhs_map: dict[str, LhsIndexInfo] = {}
    needs_writeback = False
    replicated_compute = True

    if isinstance(target, ast.ArrayRef):
        home_array = target.name.lower()
        home_dist = mapping.distribution_of(home_array)
        if home_dist is not None and not home_dist.is_replicated:
            replicated_compute = False
            lhs_map, needs_writeback = build_lhs_index_map(target, home_dist, forall_vars, env)
        else:
            home_dist = mapping.distribution_of(home_array)

    gather_in: list[CommSpec] = []
    write_back: list[CommSpec] = []

    rhs_exprs: list[ast.Expr] = []
    for body_stmt in forall.body:
        rhs_exprs.append(body_stmt.value)
        # subscripts of the LHS may themselves reference distributed arrays
        if isinstance(body_stmt.target, ast.ArrayRef):
            for sub in body_stmt.target.indices:
                if has_indirection(sub):
                    rhs_exprs.append(sub)
    if forall.mask is not None:
        rhs_exprs.append(forall.mask)

    for expr in rhs_exprs:
        for ref in ast.expr_array_refs(expr):
            ref_dist = mapping.distribution_of(ref.name)
            if ref_dist is None or ref_dist.is_replicated:
                continue
            if replicated_compute:
                # Result is replicated/serial: all processors need the data.
                gather_in.append(CommSpec(
                    kind="gather",
                    array=ref.name.lower(),
                    element_size=ref_dist.element_size,
                    line=ref.line,
                    description=f"allgather {ref.name} for replicated computation",
                ))
                continue
            gather_in.extend(classify_rhs_reference(
                ref, ref_dist, home_dist, lhs_map, forall_vars, env
            ))

    if needs_writeback and home_dist is not None:
        write_back.append(CommSpec(
            kind="writeback",
            array=home_array or "",
            element_size=home_dist.element_size,
            line=forall.line,
            description=f"scatter computed values of {home_array} to owners",
        ))

    return ForallCommInfo(
        home_array=home_array,
        lhs_index_map=lhs_map,
        gather_in=_dedupe(gather_in),
        write_back=_dedupe(write_back),
        replicated_compute=replicated_compute,
    )


# ---------------------------------------------------------------------------
# Reductions and scalar statements
# ---------------------------------------------------------------------------


def analyze_reduction_source(
    expr: ast.Expr,
    mapping: MappingContext,
) -> tuple[Optional[str], list[CommSpec]]:
    """Pick the home array of a reduction and classify any extra communication.

    Conformant distributed operands reduce locally with no data motion; any
    non-conformant distributed operand must be gathered first.
    """
    refs: list[tuple[str, ArrayDistribution]] = []
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.Var, ast.ArrayRef)):
            dist = mapping.distribution_of(node.name)
            if dist is not None and not dist.is_replicated:
                refs.append((node.name.lower(), dist))
    if not refs:
        return None, []

    home_name, home_dist = refs[0]
    comms: list[CommSpec] = []
    for name, dist in refs[1:]:
        if name == home_name:
            continue
        conformant = (
            dist.rank == home_dist.rank
            and all(axes_conformant(dist, k, home_dist, k) for k in range(dist.rank))
        )
        if not conformant:
            comms.append(CommSpec(
                kind="gather",
                array=name,
                element_size=dist.element_size,
                description=f"gather {name} for reduction",
            ))
    return home_name, _dedupe(comms)


def analyze_scalar_rhs(
    expr: ast.Expr,
    mapping: MappingContext,
) -> list[CommSpec]:
    """Communication needed so every node can evaluate a replicated scalar RHS."""
    comms: list[CommSpec] = []
    for ref in ast.expr_array_refs(expr):
        dist = mapping.distribution_of(ref.name)
        if dist is None or dist.is_replicated:
            continue
        if ref.has_section:
            comms.append(CommSpec(
                kind="gather", array=ref.name.lower(), element_size=dist.element_size,
                line=ref.line, description=f"allgather {ref.name} section",
            ))
        else:
            comms.append(CommSpec(
                kind="broadcast", array=ref.name.lower(), element_size=dist.element_size,
                line=ref.line, description=f"broadcast element of {ref.name} from owner",
            ))
    return _dedupe(comms)


# ---------------------------------------------------------------------------
# Message sizing (shared by the interpreter and the simulator)
# ---------------------------------------------------------------------------


def comm_elements_per_proc(spec: CommSpec, mapping: MappingContext) -> float:
    """Estimate the number of array elements each processor sends/receives."""
    dist = mapping.distribution_of(spec.array) if spec.array else None

    if spec.kind == "reduce":
        return 1.0
    if dist is None:
        return 1.0

    if spec.kind == "shift":
        total = 1.0
        for axis_no, axis in enumerate(dist.axes):
            if axis_no == spec.axis:
                total *= min(abs(spec.offset), axis.avg_local_count()) or 1.0
            else:
                total *= max(axis.avg_local_count(), 1.0)
        return total

    if spec.kind == "broadcast":
        if spec.axis is None:
            return 1.0
        total = 1.0
        for axis_no, axis in enumerate(dist.axes):
            if axis_no == spec.axis:
                continue
            total *= max(axis.avg_local_count(), 1.0)
        return total

    if spec.kind in ("gather", "writeback"):
        return max(dist.avg_local_size(), 1.0)

    return 1.0
