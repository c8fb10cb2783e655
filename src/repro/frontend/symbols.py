"""Symbol table and constant-expression evaluation for the HPF/Fortran 90D subset.

The symbol table is populated from the declaration section of a program unit
and records, for every name:

* its base type (integer / real / double / logical),
* whether it is a scalar, an array (with declared dimension bounds), or a
  named constant (``PARAMETER``),
* the declared dimension expressions, which later get resolved to concrete
  extents once the *critical variables* (problem sizes) are known.

Constant expression evaluation (`eval_const_expr`) is shared by the parser,
the Phase-1 compiler (to size templates and distributions) and the Phase-2
interpretation engine (to resolve critical variables such as loop limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import ast_nodes as ast
from .errors import SemanticError
from .intrinsics import is_intrinsic, intrinsic_class, IntrinsicClass


# Bytes per element for each base type (iPSC/860 conventions: default REAL is
# 4 bytes single precision, DOUBLE PRECISION 8 bytes, INTEGER 4 bytes).
TYPE_SIZES = {
    "integer": 4,
    "real": 4,
    "double": 8,
    "logical": 4,
}


@dataclass
class ArraySpec:
    """Declared dimension bounds (expressions, 1-based lower bound by default)."""

    dims: list[ast.DimSpec] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class Symbol:
    """A single declared name."""

    name: str
    type_name: str = "real"          # 'integer' | 'real' | 'double' | 'logical'
    is_parameter: bool = False
    is_array: bool = False
    array_spec: Optional[ArraySpec] = None
    init: Optional[ast.Expr] = None  # PARAMETER value or initialiser
    line: int = 0

    @property
    def rank(self) -> int:
        return self.array_spec.rank if (self.is_array and self.array_spec) else 0

    @property
    def element_size(self) -> int:
        return TYPE_SIZES.get(self.type_name, 4)


class SymbolTable:
    """Case-insensitive symbol table for one program unit."""

    def __init__(self) -> None:
        self._symbols: dict[str, Symbol] = {}

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._symbols

    def __iter__(self):
        return iter(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)

    def add(self, symbol: Symbol, *, allow_update: bool = True) -> Symbol:
        key = symbol.name.lower()
        if key in self._symbols and not allow_update:
            raise SemanticError(f"duplicate declaration of '{symbol.name}'", symbol.line)
        existing = self._symbols.get(key)
        if existing is not None and allow_update:
            # Merge: a later PARAMETER statement may add a value to an earlier
            # type declaration, or DIMENSION may add an array spec.
            if symbol.init is not None:
                existing.init = symbol.init
            if symbol.is_parameter:
                existing.is_parameter = True
            if symbol.is_array and symbol.array_spec is not None:
                existing.is_array = True
                existing.array_spec = symbol.array_spec
            if symbol.type_name != "real" or existing.type_name == "real":
                existing.type_name = symbol.type_name
            return existing
        self._symbols[key] = symbol
        return symbol

    def get(self, name: str) -> Optional[Symbol]:
        return self._symbols.get(name.lower())

    def lookup(self, name: str) -> Symbol:
        sym = self.get(name)
        if sym is None:
            raise SemanticError(f"reference to undeclared name '{name}'")
        return sym

    def arrays(self) -> list[Symbol]:
        return [s for s in self._symbols.values() if s.is_array]

    def scalars(self) -> list[Symbol]:
        return [s for s in self._symbols.values() if not s.is_array]

    def parameters(self) -> list[Symbol]:
        return [s for s in self._symbols.values() if s.is_parameter]

    # ------------------------------------------------------------------
    # Construction from an AST program unit
    # ------------------------------------------------------------------

    @classmethod
    def from_program(cls, program: ast.Program) -> "SymbolTable":
        """Build the symbol table from a parsed :class:`~repro.frontend.ast_nodes.Program`."""
        table = cls()
        for decl in program.declarations:
            if isinstance(decl, ast.Declaration):
                is_param = "parameter" in decl.attributes
                for entity in decl.entities:
                    dims = entity.dims or decl.dimension
                    table.add(
                        Symbol(
                            name=entity.name,
                            type_name=decl.type_name,
                            is_parameter=is_param,
                            is_array=bool(dims),
                            array_spec=ArraySpec(list(dims)) if dims else None,
                            init=entity.init,
                            line=decl.line,
                        )
                    )
            elif isinstance(decl, ast.ParameterStmt):
                for name, value in decl.assignments:
                    table.add(
                        Symbol(
                            name=name,
                            type_name="integer",
                            is_parameter=True,
                            init=value,
                            line=decl.line,
                        )
                    )
        return table

    # ------------------------------------------------------------------
    # Parameter environment
    # ------------------------------------------------------------------

    def parameter_env(self, overrides: Mapping[str, float] | None = None) -> dict[str, float]:
        """Resolve all PARAMETER constants to numeric values.

        ``overrides`` lets callers substitute problem sizes (the paper lets the
        user override critical variables from the GUI); overrides win over the
        declared PARAMETER value.
        """
        env: dict[str, float] = {}
        if overrides:
            env.update({k.lower(): float(v) for k, v in overrides.items()})
        # Iterate to a fixed point so parameters may reference each other.
        pending = [s for s in self.parameters() if s.name.lower() not in env]
        for _ in range(len(pending) + 1):
            progressed = False
            remaining: list[Symbol] = []
            for sym in pending:
                if sym.init is None:
                    continue
                try:
                    env[sym.name.lower()] = eval_const_expr(sym.init, env)
                    progressed = True
                except SemanticError:
                    remaining.append(sym)
            pending = remaining
            if not pending or not progressed:
                break
        return env

    def array_shape(self, name: str, env: Mapping[str, float]) -> tuple[int, ...]:
        """Resolve the declared shape of array *name* under environment *env*."""
        sym = self.lookup(name)
        if not sym.is_array or sym.array_spec is None:
            raise SemanticError(f"'{name}' is not an array")
        shape = []
        for dim in sym.array_spec.dims:
            upper = int(round(eval_const_expr(dim.upper, env)))
            lower = 1 if dim.lower is None else int(round(eval_const_expr(dim.lower, env)))
            shape.append(upper - lower + 1)
        return tuple(shape)

    def array_lower_bounds(self, name: str, env: Mapping[str, float]) -> tuple[int, ...]:
        sym = self.lookup(name)
        if not sym.is_array or sym.array_spec is None:
            raise SemanticError(f"'{name}' is not an array")
        lowers = []
        for dim in sym.array_spec.dims:
            lowers.append(1 if dim.lower is None else int(round(eval_const_expr(dim.lower, env))))
        return tuple(lowers)


# ---------------------------------------------------------------------------
# Constant expression evaluation
# ---------------------------------------------------------------------------

_CONST_FUNCS = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "log10": math.log10,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "abs": abs,
    "int": lambda x: float(int(x)),
    "nint": lambda x: float(int(round(x))),
    "real": float,
    "dble": float,
    "float": float,
    "aint": lambda x: float(int(x)),
}


def eval_const_expr(expr: ast.Expr, env: Mapping[str, float] | None = None) -> float:
    """Evaluate a scalar constant expression.

    *env* maps lower-case names to numeric values (PARAMETER constants,
    critical-variable overrides).  Raises :class:`SemanticError` when the
    expression references an unknown name or unsupported construct, which is
    how the critical-variable resolver detects that a value must be traced or
    supplied by the user.
    """
    env = env or {}
    if isinstance(expr, ast.Num):
        return float(expr.value)
    if isinstance(expr, ast.LogicalLit):
        return 1.0 if expr.value else 0.0
    if isinstance(expr, ast.Var):
        key = expr.name.lower()
        if key in env:
            return float(env[key])
        raise SemanticError(f"cannot evaluate constant expression: unknown name '{expr.name}'")
    if isinstance(expr, ast.UnaryOp):
        val = eval_const_expr(expr.operand, env)
        if expr.op == "-":
            return -val
        if expr.op == "+":
            return val
        if expr.op == ".not.":
            return 0.0 if val else 1.0
        raise SemanticError(f"unsupported unary operator '{expr.op}' in constant expression")
    if isinstance(expr, ast.BinOp):
        left = eval_const_expr(expr.left, env)
        right = eval_const_expr(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0:
                raise SemanticError("division by zero in constant expression")
            return left / right
        if expr.op == "**":
            return left ** right
        raise SemanticError(f"unsupported binary operator '{expr.op}' in constant expression")
    if isinstance(expr, ast.Compare):
        left = eval_const_expr(expr.left, env)
        right = eval_const_expr(expr.right, env)
        result = {
            "==": left == right,
            "/=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[expr.op]
        return 1.0 if result else 0.0
    if isinstance(expr, ast.Logical):
        left = eval_const_expr(expr.left, env)
        right = eval_const_expr(expr.right, env)
        if expr.op == ".and.":
            return 1.0 if (left and right) else 0.0
        if expr.op == ".or.":
            return 1.0 if (left or right) else 0.0
        if expr.op == ".eqv.":
            return 1.0 if (bool(left) == bool(right)) else 0.0
        if expr.op == ".neqv.":
            return 1.0 if (bool(left) != bool(right)) else 0.0
    if isinstance(expr, ast.FuncCall):
        fname = expr.name.lower()
        if fname in ("max", "min") and expr.args:
            vals = [eval_const_expr(a, env) for a in expr.args]
            return max(vals) if fname == "max" else min(vals)
        if fname in ("mod", "modulo") and len(expr.args) == 2:
            a = eval_const_expr(expr.args[0], env)
            b = eval_const_expr(expr.args[1], env)
            return math.fmod(a, b) if fname == "mod" else a % b
        if fname in _CONST_FUNCS and len(expr.args) >= 1:
            return float(_CONST_FUNCS[fname](eval_const_expr(expr.args[0], env)))
        if is_intrinsic(fname) and intrinsic_class(fname) is IntrinsicClass.INQUIRY:
            raise SemanticError(f"inquiry intrinsic '{fname}' is not a compile-time constant here")
        raise SemanticError(f"cannot evaluate call to '{expr.name}' in constant expression")
    if isinstance(expr, ast.ArrayRef):
        raise SemanticError(f"array reference '{expr.name}' is not a constant expression")
    raise SemanticError(f"unsupported node {type(expr).__name__} in constant expression")


def try_eval_const(expr: ast.Expr, env: Mapping[str, float] | None = None) -> Optional[float]:
    """Like :func:`eval_const_expr` but returns None instead of raising."""
    try:
        return eval_const_expr(expr, env)
    except SemanticError:
        return None
