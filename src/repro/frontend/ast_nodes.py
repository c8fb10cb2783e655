"""Abstract syntax tree nodes for the HPF/Fortran 90D subset.

The node set covers exactly the language subset the paper's compiler (and
therefore its performance-prediction framework) handles:

* declarations (``INTEGER``/``REAL``/``DOUBLE PRECISION``/``LOGICAL``,
  ``PARAMETER`` entities, ``DIMENSION`` specifications),
* HPF mapping directives (``PROCESSORS``, ``TEMPLATE``, ``ALIGN``,
  ``DISTRIBUTE``),
* the data-parallel constructs ``forall`` (statement + construct), array
  assignment and ``where``,
* ordinary control flow (``do``, ``do while``, ``if``), ``call``, ``print``,
* expressions with the HPF parallel intrinsics (``sum``, ``product``,
  ``maxval``, ``maxloc``, ``minval``, ``cshift``, ``eoshift``/``tshift``,
  ``dot_product``, ``matmul``, ...).

Every node records the physical source line so downstream modules (the AAG
builder, interpretation engine and output module) can attribute cost to lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expression nodes."""

    line: int = 0


@dataclass
class Num(Expr):
    """Numeric literal. ``is_int`` distinguishes INTEGER from REAL literals."""

    value: float = 0.0
    is_int: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Num({int(self.value) if self.is_int else self.value})"


@dataclass
class Str(Expr):
    """Character literal."""

    value: str = ""


@dataclass
class LogicalLit(Expr):
    """``.TRUE.`` / ``.FALSE.`` literal."""

    value: bool = False


@dataclass
class Var(Expr):
    """Scalar variable reference (or whole-array reference in array context)."""

    name: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var({self.name})"


@dataclass
class Section(Expr):
    """An array-section subscript ``lo:hi:stride``; any component may be None."""

    lo: Optional[Expr] = None
    hi: Optional[Expr] = None
    stride: Optional[Expr] = None


@dataclass
class ArrayRef(Expr):
    """Array element or array-section reference ``A(i, 1:n, :)``.

    ``indices`` holds one entry per subscript, each either a scalar
    expression or a :class:`Section`.
    """

    name: str = ""
    indices: list[Expr] = field(default_factory=list)

    @property
    def has_section(self) -> bool:
        return any(isinstance(ix, Section) for ix in self.indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayRef({self.name}, {self.indices})"


@dataclass
class FuncCall(Expr):
    """Intrinsic or user function reference ``f(args)``."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FuncCall({self.name}, {self.args})"


@dataclass
class UnaryOp(Expr):
    """Unary ``-``, ``+`` or ``.NOT.``."""

    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class BinOp(Expr):
    """Arithmetic binary operation: ``+ - * / **`` or string concat ``//``."""

    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Compare(Expr):
    """Relational operation (``== /= < <= > >=`` and the dotted spellings)."""

    op: str = "=="
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Logical(Expr):
    """``.AND.`` / ``.OR.`` / ``.EQV.`` / ``.NEQV.`` binary logical operation."""

    op: str = ".and."
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


ExprLike = Union[Expr, None]


# ---------------------------------------------------------------------------
# Declarations and directives
# ---------------------------------------------------------------------------


@dataclass
class DimSpec:
    """One dimension of an array declaration: ``lower:upper`` (lower defaults to 1)."""

    lower: Optional[Expr]
    upper: Expr


@dataclass
class DeclEntity:
    """A single declared entity ``name(dims) [= init]``."""

    name: str
    dims: list[DimSpec] = field(default_factory=list)
    init: Optional[Expr] = None


@dataclass
class Stmt:
    """Base class for statements."""

    line: int = 0


@dataclass
class Declaration(Stmt):
    """Type declaration statement, e.g. ``REAL, DIMENSION(N,N) :: A, B``."""

    type_name: str = "real"          # 'integer' | 'real' | 'double' | 'logical'
    attributes: list[str] = field(default_factory=list)  # e.g. ['parameter']
    dimension: list[DimSpec] = field(default_factory=list)  # DIMENSION attr, if any
    entities: list[DeclEntity] = field(default_factory=list)


@dataclass
class ParameterStmt(Stmt):
    """Old-style ``PARAMETER (N = 128, M = 64)`` statement."""

    assignments: list[tuple[str, Expr]] = field(default_factory=list)


# --- HPF directives ---------------------------------------------------------


@dataclass
class Directive(Stmt):
    """Base class for HPF mapping directives."""


@dataclass
class ProcessorsDirective(Directive):
    """``!HPF$ PROCESSORS P(4)`` or ``P(2,2)``; shape entries are expressions."""

    name: str = "p"
    shape: list[Expr] = field(default_factory=list)


@dataclass
class TemplateDirective(Directive):
    """``!HPF$ TEMPLATE T(N, N)``."""

    name: str = "t"
    shape: list[Expr] = field(default_factory=list)


@dataclass
class AlignDirective(Directive):
    """``!HPF$ ALIGN A(i, j) WITH T(i, j)``.

    ``source_dummies`` are the dummy index names on the alignee; each entry of
    ``target_subscripts`` is an expression over those dummies (or ``*``,
    represented by ``None``, meaning replication along that template axis).
    """

    alignee: str = ""
    source_dummies: list[str] = field(default_factory=list)
    target: str = ""
    target_subscripts: list[Optional[Expr]] = field(default_factory=list)


@dataclass
class DistributeDirective(Directive):
    """``!HPF$ DISTRIBUTE T(BLOCK, *) ONTO P``.

    ``dist_formats`` entries are 'block', 'cyclic', 'cyclic(k)' (stored as
    ('cyclic', Expr)), or '*' for a collapsed (on-processor) dimension.
    """

    target: str = ""
    dist_formats: list[tuple[str, Optional[Expr]]] = field(default_factory=list)
    onto: Optional[str] = None


# ---------------------------------------------------------------------------
# Executable statements
# ---------------------------------------------------------------------------


@dataclass
class Assignment(Stmt):
    """Scalar, array-element or array-section assignment."""

    target: Expr = None  # type: ignore[assignment]  # Var or ArrayRef
    value: Expr = None   # type: ignore[assignment]


@dataclass
class ForallTriplet:
    """One ``index = lo : hi [: step]`` control of a forall header."""

    var: str
    lo: Expr
    hi: Expr
    step: Optional[Expr] = None


@dataclass
class ForallStmt(Stmt):
    """``FORALL (i=1:n, j=1:n [, mask]) body`` — statement or construct form."""

    triplets: list[ForallTriplet] = field(default_factory=list)
    mask: Optional[Expr] = None
    body: list[Assignment] = field(default_factory=list)


@dataclass
class WhereStmt(Stmt):
    """``WHERE (mask) assignment`` or the block form with optional ELSEWHERE."""

    mask: Expr = None  # type: ignore[assignment]
    body: list[Assignment] = field(default_factory=list)
    elsewhere: list[Assignment] = field(default_factory=list)


@dataclass
class DoLoop(Stmt):
    """Counted ``DO var = start, end [, step]`` loop."""

    var: str = "i"
    start: Expr = None  # type: ignore[assignment]
    end: Expr = None    # type: ignore[assignment]
    step: Optional[Expr] = None
    body: list[Stmt] = field(default_factory=list)


@dataclass
class DoWhile(Stmt):
    """``DO WHILE (cond)`` loop."""

    cond: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


@dataclass
class IfBlock(Stmt):
    """``IF / ELSE IF / ELSE`` construct.  ``branches`` holds (condition, body) pairs."""

    branches: list[tuple[Expr, list[Stmt]]] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class CallStmt(Stmt):
    """``CALL name(args)``."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class PrintStmt(Stmt):
    """``PRINT *, items`` (output items are kept for the functional evaluator)."""

    items: list[Expr] = field(default_factory=list)


@dataclass
class ExitStmt(Stmt):
    """``EXIT`` from the innermost loop."""


@dataclass
class CycleStmt(Stmt):
    """``CYCLE`` to the next iteration of the innermost loop."""


@dataclass
class StopStmt(Stmt):
    """``STOP`` statement."""


@dataclass
class ContinueStmt(Stmt):
    """``CONTINUE`` no-op statement."""


# ---------------------------------------------------------------------------
# Program unit
# ---------------------------------------------------------------------------


@dataclass
class Program(Stmt):
    """A complete HPF/Fortran 90D main program unit."""

    name: str = "main"
    declarations: list[Stmt] = field(default_factory=list)   # Declaration / ParameterStmt
    directives: list[Directive] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)

    def all_statements(self) -> list[Stmt]:
        """Flatten the executable body (recursing into loop/if/forall bodies)."""
        out: list[Stmt] = []

        def visit(stmts: list[Stmt]) -> None:
            for stmt in stmts:
                out.append(stmt)
                if isinstance(stmt, (DoLoop, DoWhile)):
                    visit(stmt.body)
                elif isinstance(stmt, IfBlock):
                    for _, body in stmt.branches:
                        visit(body)
                    visit(stmt.else_body)
                elif isinstance(stmt, ForallStmt):
                    visit(list(stmt.body))
                elif isinstance(stmt, WhereStmt):
                    visit(list(stmt.body))
                    visit(list(stmt.elsewhere))

        visit(self.body)
        return out


# ---------------------------------------------------------------------------
# Generic expression utilities (shared by compiler / interpreter / evaluator)
# ---------------------------------------------------------------------------


def walk_expr(expr: ExprLike):
    """Yield *expr* and all of its sub-expressions depth-first."""
    if expr is None:
        return
    yield expr
    if isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, (BinOp, Compare, Logical)):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, ArrayRef):
        for ix in expr.indices:
            yield from walk_expr(ix)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, Section):
        yield from walk_expr(expr.lo)
        yield from walk_expr(expr.hi)
        yield from walk_expr(expr.stride)


def expr_variables(expr: ExprLike) -> set[str]:
    """Return the set of scalar-variable names referenced in *expr*."""
    names: set[str] = set()
    for node in walk_expr(expr):
        if isinstance(node, Var):
            names.add(node.name)
    return names


def expr_array_refs(expr: ExprLike) -> list[ArrayRef]:
    """Return all :class:`ArrayRef` nodes in *expr* in depth-first order."""
    return [node for node in walk_expr(expr) if isinstance(node, ArrayRef)]


def format_expr(expr: ExprLike) -> str:
    """Render an expression back to (normalised) Fortran-like text."""
    if expr is None:
        return ""
    if isinstance(expr, Num):
        if expr.is_int:
            return str(int(expr.value))
        return repr(float(expr.value))
    if isinstance(expr, Str):
        return f"'{expr.value}'"
    if isinstance(expr, LogicalLit):
        return ".true." if expr.value else ".false."
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Section):
        lo = format_expr(expr.lo) if expr.lo is not None else ""
        hi = format_expr(expr.hi) if expr.hi is not None else ""
        text = f"{lo}:{hi}"
        if expr.stride is not None:
            text += f":{format_expr(expr.stride)}"
        return text
    if isinstance(expr, ArrayRef):
        inner = ", ".join(format_expr(ix) for ix in expr.indices)
        return f"{expr.name}({inner})"
    if isinstance(expr, FuncCall):
        inner = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.name}({inner})"
    if isinstance(expr, UnaryOp):
        op = expr.op if expr.op != ".not." else ".not. "
        return f"{op}{format_expr(expr.operand)}"
    if isinstance(expr, BinOp):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, Compare):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, Logical):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    return f"<{type(expr).__name__}>"


def format_stmt(stmt: Stmt) -> str:
    """Render a statement to a one-line Fortran-like summary (for reports/tests)."""
    if isinstance(stmt, Assignment):
        return f"{format_expr(stmt.target)} = {format_expr(stmt.value)}"
    if isinstance(stmt, ForallStmt):
        heads = ", ".join(
            f"{t.var}={format_expr(t.lo)}:{format_expr(t.hi)}"
            + (f":{format_expr(t.step)}" if t.step is not None else "")
            for t in stmt.triplets
        )
        if stmt.mask is not None:
            heads += f", {format_expr(stmt.mask)}"
        body = "; ".join(format_stmt(s) for s in stmt.body)
        return f"forall ({heads}) {body}"
    if isinstance(stmt, WhereStmt):
        body = "; ".join(format_stmt(s) for s in stmt.body)
        return f"where ({format_expr(stmt.mask)}) {body}"
    if isinstance(stmt, DoLoop):
        step = f", {format_expr(stmt.step)}" if stmt.step is not None else ""
        return f"do {stmt.var} = {format_expr(stmt.start)}, {format_expr(stmt.end)}{step}"
    if isinstance(stmt, DoWhile):
        return f"do while ({format_expr(stmt.cond)})"
    if isinstance(stmt, IfBlock):
        return f"if ({format_expr(stmt.branches[0][0])}) then ..." if stmt.branches else "if ..."
    if isinstance(stmt, CallStmt):
        return f"call {stmt.name}({', '.join(format_expr(a) for a in stmt.args)})"
    if isinstance(stmt, PrintStmt):
        return f"print *, {', '.join(format_expr(a) for a in stmt.items)}"
    if isinstance(stmt, Declaration):
        names = ", ".join(e.name for e in stmt.entities)
        return f"{stmt.type_name} :: {names}"
    return type(stmt).__name__
