"""Sequential functional interpreter for HPF/Fortran 90D programs.

This is the "functional interpreter" component of the application development
environment (§1): it executes a program's semantics — ignoring all mapping
directives — so the developer can check correctness, and it serves as the
oracle the simulator's results are validated against in the test suite.

Execution is vectorised with NumPy: foralls, array assignments and WHERE
statements evaluate their whole iteration space at once (right-hand sides are
fully evaluated before any assignment, as Fortran requires).

Inside a forall, references whose subscripts are affine in the forall
indices are read as strided views, and a target of that form that uses
every forall index is stored through its view; every other reference is
gathered and scattered through full index grids (the rule is in
:mod:`repro.functional.exprs`).  A right-hand side that shares memory with
its target is copied before the store, and the mask is a copy taken before
the body runs, so views never see the forall's own stores.

Scalar subscripts of assignment and WHERE targets must lie inside the
declared bounds (an :class:`~repro.frontend.errors.EvaluationError`
otherwise); gathered forall stores keep NumPy's wrap-around for negative
indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..frontend import ast_nodes as ast
from ..frontend.errors import EvaluationError
from ..frontend.symbols import SymbolTable
from .exprs import ExpressionEvaluator, ForallSpace
from .state import ProgramState


class ExitLoop(Exception):
    """EXIT: leave the innermost DO loop (the simulator raises it too)."""


class CycleLoop(Exception):
    """CYCLE: start the innermost DO loop's next trip."""


class StopProgram(Exception):
    """STOP: end the program."""


@dataclass
class ForallExecution:
    """Record of one executed forall: index spaces, mask, and update counts.

    The simulator's executor reuses this to derive *actual* per-processor
    iteration counts and mask-true fractions — the dynamic information the
    static interpreter does not have.
    """

    triplet_ranges: dict[str, np.ndarray] = field(default_factory=dict)  # Fortran index values
    grids: dict[str, np.ndarray] = field(default_factory=dict)
    mask: Optional[np.ndarray] = None
    iterations: int = 0
    assigned: int = 0

    @property
    def mask_true_fraction(self) -> float:
        if self.mask is None or self.iterations == 0:
            return 1.0
        return float(self.assigned) / float(self.iterations)


@dataclass
class EvaluationResult:
    """Final state plus output of one functional execution."""

    state: ProgramState
    printed: list[str]
    statements_executed: int
    forall_log: list[ForallExecution] = field(default_factory=list)

    def scalar(self, name: str) -> float:
        return self.state.get_scalar(name)

    def array(self, name: str) -> np.ndarray:
        return self.state.array(name).data


class FunctionalEvaluator:
    """Executes a parsed program sequentially on NumPy arrays."""

    def __init__(
        self,
        program: ast.Program,
        symtable: SymbolTable | None = None,
        params: Mapping[str, float] | None = None,
        max_while_iterations: int = 1_000_000,
    ):
        self.program = program
        self.symtable = symtable or SymbolTable.from_program(program)
        self.env = self.symtable.parameter_env(overrides=params)
        self.state = ProgramState.from_symtable(self.symtable, self.env)
        self.exprs = ExpressionEvaluator(self.state)
        self.max_while_iterations = max_while_iterations
        self.statements_executed = 0
        self.forall_log: list[ForallExecution] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> EvaluationResult:
        try:
            self._exec_body(self.program.body)
        except StopProgram:
            self.state.stopped = True
        return EvaluationResult(
            state=self.state,
            printed=list(self.state.printed),
            statements_executed=self.statements_executed,
            forall_log=self.forall_log,
        )

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------

    def _exec_body(self, stmts: list[ast.Stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.Stmt) -> None:
        self.statements_executed += 1
        if isinstance(stmt, ast.Assignment):
            self.exec_assignment(stmt)
        elif isinstance(stmt, ast.ForallStmt):
            self.exec_forall(stmt)
        elif isinstance(stmt, ast.WhereStmt):
            self.exec_where(stmt)
        elif isinstance(stmt, ast.DoLoop):
            self.exec_do(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self.exec_do_while(stmt)
        elif isinstance(stmt, ast.IfBlock):
            self.exec_if(stmt)
        elif isinstance(stmt, ast.PrintStmt):
            self.exec_print(stmt)
        elif isinstance(stmt, ast.CallStmt):
            raise EvaluationError(
                f"CALL to external subroutine '{stmt.name}' is not supported by the "
                f"functional interpreter", )
        elif isinstance(stmt, ast.ExitStmt):
            raise ExitLoop()
        elif isinstance(stmt, ast.CycleStmt):
            raise CycleLoop()
        elif isinstance(stmt, ast.StopStmt):
            raise StopProgram()
        elif isinstance(stmt, (ast.ContinueStmt, ast.Declaration, ast.ParameterStmt,
                               ast.Directive)):
            pass
        else:
            raise EvaluationError(f"cannot execute statement {type(stmt).__name__}")

    # -- assignments -------------------------------------------------------------

    def exec_assignment(self, stmt: ast.Assignment) -> None:
        target = stmt.target
        value = self.exprs.eval(stmt.value)

        if isinstance(target, ast.Var):
            name = target.name.lower()
            if self.state.is_array(name):
                array = self.state.array(name)
                array.data[...] = np.broadcast_to(np.asarray(value, dtype=array.data.dtype),
                                                  array.data.shape)
            else:
                self.state.set_scalar(name, self._scalarise(value))
            return

        if isinstance(target, ast.ArrayRef):
            array = self.state.array(target.name)
            array.data[self._target_index(target, array)] = value
            return

        raise EvaluationError("invalid assignment target")

    def _target_index(self, target: ast.ArrayRef, array) -> tuple:
        """Basic index of an assignment target: sections and in-bounds
        scalar subscripts."""
        indices = []
        for axis, index in enumerate(target.indices):
            if isinstance(index, ast.Section):
                indices.append(self.exprs._section_slice(array, axis, index, {}))
            else:
                indices.append(self.exprs.element_index(
                    array, axis, self._scalarise(self.exprs.eval(index))))
        return tuple(indices)

    @staticmethod
    def _scalarise(value):
        if isinstance(value, np.ndarray):
            if value.size != 1:
                raise EvaluationError("array value assigned to a scalar")
            return value.reshape(()).item()
        if isinstance(value, (np.generic,)):
            return value.item()
        return value

    # -- forall --------------------------------------------------------------------

    def exec_forall(self, stmt: ast.ForallStmt) -> ForallExecution:
        record = execute_forall(stmt, self.state, self.exprs)
        self.forall_log.append(record)
        return record

    # -- where ----------------------------------------------------------------------

    def exec_where(self, stmt: ast.WhereStmt) -> None:
        mask = np.asarray(self.exprs.eval(stmt.mask), dtype=bool)
        for assign, use_mask in [(a, mask) for a in stmt.body] + \
                                [(a, ~mask) for a in stmt.elsewhere]:
            target = assign.target
            if isinstance(target, ast.ArrayRef):
                array = self.state.array(target.name)
                indices = self._target_index(target, array)
            elif isinstance(target, ast.Var) and self.state.is_array(target.name):
                array = self.state.array(target.name)
                indices = ...                   # the whole array
            else:
                raise EvaluationError(
                    "WHERE assignment target must be an array or an array section")
            view = array.data[indices]
            value = np.broadcast_to(np.asarray(self.exprs.eval(assign.value)), view.shape)
            array.data[indices] = np.where(use_mask, value, view)

    # -- loops ------------------------------------------------------------------------

    def exec_do(self, stmt: ast.DoLoop) -> None:
        start = int(self._scalarise(self.exprs.eval(stmt.start)))
        end = int(self._scalarise(self.exprs.eval(stmt.end)))
        step = int(self._scalarise(self.exprs.eval(stmt.step))) if stmt.step is not None else 1
        if step == 0:
            raise EvaluationError("DO loop step must be non-zero")
        var = stmt.var.lower()
        value = start
        try:
            while (step > 0 and value <= end) or (step < 0 and value >= end):
                self.state.set_scalar(var, value)
                try:
                    self._exec_body(stmt.body)
                except CycleLoop:
                    pass
                value += step
        except ExitLoop:
            pass
        self.state.set_scalar(var, value)

    def exec_do_while(self, stmt: ast.DoWhile) -> None:
        iterations = 0
        try:
            while bool(np.all(self.exprs.eval(stmt.cond))):
                iterations += 1
                if iterations > self.max_while_iterations:
                    raise EvaluationError("DO WHILE exceeded the iteration safety limit")
                try:
                    self._exec_body(stmt.body)
                except CycleLoop:
                    continue
        except ExitLoop:
            pass

    # -- conditionals ----------------------------------------------------------------

    def exec_if(self, stmt: ast.IfBlock) -> None:
        for cond, body in stmt.branches:
            if bool(np.all(self.exprs.eval(cond))):
                self._exec_body(body)
                return
        self._exec_body(stmt.else_body)

    # -- output -----------------------------------------------------------------------

    def exec_print(self, stmt: ast.PrintStmt) -> None:
        parts = []
        for item in stmt.items:
            value = self.exprs.eval(item)
            if isinstance(value, np.ndarray):
                parts.append(np.array2string(value, precision=6, threshold=8))
            elif isinstance(value, float):
                parts.append(f"{value:.6g}")
            else:
                parts.append(str(value))
        self.state.printed.append(" ".join(parts))


# ---------------------------------------------------------------------------
# standalone forall execution (shared with the simulator executor)
# ---------------------------------------------------------------------------


def execute_forall(
    stmt: ast.ForallStmt,
    state: ProgramState,
    exprs: ExpressionEvaluator | None = None,
) -> ForallExecution:
    """Execute one forall statement/construct, vectorised, and log its shape."""
    exprs = exprs or ExpressionEvaluator(state)
    record = ForallExecution()

    triplets: list[tuple[str, np.ndarray, int]] = []
    for triplet in stmt.triplets:
        lo = int(np.asarray(exprs.eval(triplet.lo)))
        hi = int(np.asarray(exprs.eval(triplet.hi)))
        step = int(np.asarray(exprs.eval(triplet.step))) if triplet.step is not None else 1
        if step == 0:
            raise EvaluationError("forall stride must be non-zero")
        values = np.arange(lo, hi + (1 if step > 0 else -1), step, dtype=np.int64)
        triplets.append((triplet.var.lower(), values, step))
        record.triplet_ranges[triplet.var.lower()] = values

    if any(len(values) == 0 for _name, values, _step in triplets):
        record.iterations = 0
        return record

    index_env = ForallSpace(triplets)
    record.grids = dict(index_env)
    record.iterations = int(np.prod(index_env.shape))

    mask = None
    if stmt.mask is not None:
        # a copy: a mask read through a view must not see the body's stores
        mask = np.broadcast_to(
            np.array(exprs.eval(stmt.mask, index_env), dtype=bool),
            index_env.shape,
        )
        record.mask = mask
        record.assigned = int(np.count_nonzero(mask))
    else:
        record.assigned = record.iterations

    for assign in stmt.body:
        _forall_assign(assign, state, exprs, index_env, mask)
    return record


def _forall_assign(
    assign: ast.Assignment,
    state: ProgramState,
    exprs: ExpressionEvaluator,
    index_env: ForallSpace,
    mask: Optional[np.ndarray],
) -> None:
    target = assign.target
    if not isinstance(target, ast.ArrayRef):
        raise EvaluationError("forall body assignment target must be an array element")
    array = state.array(target.name)

    # evaluate every RHS value before any store (Fortran forall semantics)
    rhs = exprs.eval(assign.value, index_env)
    if isinstance(rhs, np.ndarray) and np.may_share_memory(rhs, array.data):
        rhs = rhs.copy()

    view = exprs.strided_view(target, array, index_env)
    if view is not None and view.shape == index_env.shape:
        np.copyto(view, rhs, casting="unsafe",
                  where=True if mask is None else mask)
        return
    _forall_scatter(target, array, rhs, exprs, index_env, mask)


def _forall_scatter(
    target: ast.ArrayRef,
    array,
    rhs,
    exprs: ExpressionEvaluator,
    index_env: Mapping[str, np.ndarray],
    mask: Optional[np.ndarray],
) -> None:
    """The general forall store: every target subscript evaluated over the
    index grids, then one fancy-indexed scatter (negative indices wrap)."""
    index_arrays = []
    for axis, index in enumerate(target.indices):
        value = exprs.eval(index, index_env)
        zero_based = np.asarray(value) - array.lower_bounds[axis]
        index_arrays.append(zero_based.astype(np.int64))

    shape = None
    for arr in index_arrays:
        if arr.ndim > 0:
            shape = np.broadcast_shapes(shape, arr.shape) if shape else arr.shape
    if shape is None:
        shape = ()

    broadcast_indices = [np.broadcast_to(arr, shape) for arr in index_arrays]
    rhs_grid = np.broadcast_to(np.asarray(rhs), shape) if shape else np.asarray(rhs)

    if mask is not None and shape:
        mask_grid = np.broadcast_to(mask, shape)
        selected = tuple(arr[mask_grid] for arr in broadcast_indices)
        array.data[selected] = rhs_grid[mask_grid]
    else:
        array.data[tuple(broadcast_indices)] = rhs_grid


def evaluate_program(
    program: ast.Program,
    symtable: SymbolTable | None = None,
    params: Mapping[str, float] | None = None,
) -> EvaluationResult:
    """Convenience wrapper: functionally execute *program* and return the result."""
    return FunctionalEvaluator(program, symtable, params).run()
