"""Vectorised (NumPy) evaluation of HPF/Fortran 90D expressions.

Shared by the sequential functional interpreter (the correctness oracle) and
the simulator's SPMD executor.  Expressions are evaluated against a
:class:`~repro.functional.state.ProgramState`; inside data-parallel contexts an
``index_env`` maps forall index variables to NumPy index grids so whole
iteration spaces evaluate in one vectorised sweep (per the HPC guides: never
loop element-by-element in Python).

**Views versus gathers.**  Inside a forall (an index environment that is a
:class:`ForallSpace`) an array reference is read through a basic-slicing
*view* when every subscript has one of two forms:

* ``c*v + b`` — ``v`` a forall index that occurs nowhere else in the
  reference, ``c`` a non-zero integer literal, ``b`` built by ``+``, ``-``
  and integer-literal ``*`` from scalars free of forall indices, each of
  which evaluates to an integer or an integral float;
* a scalar free of forall indices that evaluates to an integral value;

and the whole range the reference spans lies inside the declared bounds.
The view is transposed into forall-axis order and broadcast to the
iteration shape, so it has exactly the shape and values of the gather.
Every other reference — indirect subscripts such as ``ex(ix(k))``, a
repeated index such as ``a(i, i)``, a range that leaves the array — takes
the general *gather* path: index grids evaluated in full and fancy-indexed.
The arguments of ``sum``, ``product`` and ``matmul``, whose floating-point
results depend on memory order, are always gathered.

**Out-of-range subscripts.**  Scalar subscripts on the basic path and
non-empty sections must lie inside the declared bounds; otherwise an
:class:`~repro.frontend.errors.EvaluationError` names the array, the axis,
the index and the bounds.  Zero-trip sections such as ``a(5:4)`` are legal.
Gathered forall references keep NumPy's semantics: negative indices wrap
around, which masked foralls such as ``forall (i = 1:n, i > 1) b(i) = a(i-1)``
rely on for their masked-out elements.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..frontend import ast_nodes as ast
from ..frontend.errors import EvaluationError
from .state import ProgramState

Number = float | int | np.ndarray


# ---------------------------------------------------------------------------
# elemental intrinsic implementations
# ---------------------------------------------------------------------------

_ELEMENTAL = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "log10": np.log10,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "atan": np.arctan,
    "asin": np.arcsin,
    "acos": np.arccos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "abs": np.abs,
    "aint": np.trunc,
    "nint": np.rint,
}


def _fortran_int_div(left, right):
    """Fortran integer division truncates toward zero."""
    return np.trunc(np.divide(left, right)).astype(np.int64)


#: intrinsics whose floating-point result depends on the memory order of
#: their arguments; a view and a gather of the same values may differ there
_ORDER_SENSITIVE = frozenset({"sum", "product", "matmul"})

#: integers up to this magnitude are exact in float64, so a subscript's
#: index arithmetic gives the same integers in any association order
_EXACT_INT = 2 ** 53


def _is_integer_like(value) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    if isinstance(value, np.ndarray):
        return np.issubdtype(value.dtype, np.integer)
    return False


class ForallSpace(dict):
    """A forall's index environment: index name -> index grid (the mapping
    every evaluation reads), plus each index's triplet, which lets
    :meth:`ExpressionEvaluator.strided_view` read affine references as
    strided views instead of gathers."""

    def __init__(self, triplets: list[tuple[str, np.ndarray, int]]):
        """*triplets* holds ``(name, values, step)`` per forall index, in
        iteration-axis order; every ``values`` is a non-empty arithmetic
        sequence with difference ``step``."""
        self.shape = tuple(len(values) for _name, values, _step in triplets)
        # read-only broadcast grids: the meshgrid values without its copies
        ndim = len(triplets)
        super().__init__(
            (name, np.broadcast_to(values.reshape(
                [-1 if other == axis else 1 for other in range(ndim)]),
                self.shape))
            for axis, (name, values, _step) in enumerate(triplets))
        self.names = frozenset(self)
        #: index name -> (iteration axis, first value, step)
        self.axes = {name: (axis, int(values[0]), step)
                     for axis, (name, values, step) in enumerate(triplets)}


def _int_literal(expr: ast.Expr) -> int | None:
    """The value of an integer literal, optionally signed; else None."""
    sign = 1
    if isinstance(expr, ast.UnaryOp) and expr.op in ("+", "-"):
        sign = -1 if expr.op == "-" else 1
        expr = expr.operand
    if isinstance(expr, ast.Num) and expr.is_int:
        return sign * int(expr.value)
    return None


def _affine(expr: ast.Expr, names) -> tuple[str | None, int, list] | None:
    """``expr`` as ``c*v + sum(k*t)``: ``(v, c, [(k, t), ...])``.

    ``v`` is the one forall index (in *names*) that ``expr`` mentions, or
    None when it mentions none; the ``t`` are maximal sub-expressions free
    of forall indices and ``c``, ``k`` integers.  None when ``expr`` has any
    other form: a second index occurrence, an index under anything but
    ``+``, ``-`` and integer-literal ``*``.
    """
    if not any(isinstance(node, ast.Var) and node.name.lower() in names
               for node in ast.walk_expr(expr)):
        return None, 0, [(1, expr)]
    if isinstance(expr, ast.Var):
        return expr.name.lower(), 1, []
    if isinstance(expr, ast.UnaryOp) and expr.op in ("+", "-"):
        return _scaled(_affine(expr.operand, names), -1 if expr.op == "-" else 1)
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-"):
        left = _affine(expr.left, names)
        right = _scaled(_affine(expr.right, names), 1 if expr.op == "+" else -1)
        if left is None or right is None or (left[0] and right[0]):
            return None
        return left[0] or right[0], left[1] + right[1], left[2] + right[2]
    if isinstance(expr, ast.BinOp) and expr.op == "*":
        for literal, other in ((expr.left, expr.right), (expr.right, expr.left)):
            factor = _int_literal(literal)
            if factor is not None:
                return _scaled(_affine(other, names), factor)
    return None


def _scaled(form, factor: int):
    if form is None:
        return None
    name, coeff, terms = form
    return name, coeff * factor, [(k * factor, t) for k, t in terms]


def _integral(value) -> int | None:
    """*value* as an int when it is an integer or an integral float."""
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    return None


class ExpressionEvaluator:
    """Evaluates expressions against a program state."""

    def __init__(self, state: ProgramState):
        self.state = state
        # id(array ref) -> (ref, forall index names, per-subscript affine
        # forms): the syntactic half of strided_view, fixed per reference
        self._view_forms: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def eval(self, expr: ast.Expr, index_env: Optional[Mapping[str, np.ndarray]] = None):
        index_env = index_env or {}
        return self._eval(expr, index_env)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: Mapping[str, np.ndarray]):
        if isinstance(expr, ast.Num):
            return int(expr.value) if expr.is_int else float(expr.value)
        if isinstance(expr, ast.Str):
            return expr.value
        if isinstance(expr, ast.LogicalLit):
            return bool(expr.value)
        if isinstance(expr, ast.Var):
            return self._eval_var(expr, env)
        if isinstance(expr, ast.ArrayRef):
            return self._eval_array_ref(expr, env)
        if isinstance(expr, ast.FuncCall):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, env)
            if expr.op == "-":
                return -operand
            if expr.op == "+":
                return operand
            if expr.op == ".not.":
                return np.logical_not(operand)
            raise EvaluationError(f"unsupported unary operator '{expr.op}'")
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, ast.Compare):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            return {
                "==": np.equal, "/=": np.not_equal,
                "<": np.less, "<=": np.less_equal,
                ">": np.greater, ">=": np.greater_equal,
            }[expr.op](left, right)
        if isinstance(expr, ast.Logical):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            if expr.op == ".and.":
                return np.logical_and(left, right)
            if expr.op == ".or.":
                return np.logical_or(left, right)
            if expr.op == ".eqv.":
                return np.equal(np.asarray(left, dtype=bool), np.asarray(right, dtype=bool))
            if expr.op == ".neqv.":
                return np.not_equal(np.asarray(left, dtype=bool), np.asarray(right, dtype=bool))
        if isinstance(expr, ast.Section):
            raise EvaluationError("array section used outside of a subscript")
        raise EvaluationError(f"cannot evaluate expression node {type(expr).__name__}")

    # ------------------------------------------------------------------
    # leaves
    # ------------------------------------------------------------------

    def _eval_var(self, expr: ast.Var, env: Mapping[str, np.ndarray]):
        name = expr.name.lower()
        if name in env:
            return env[name]
        if self.state.is_array(name):
            return self.state.array(name).data
        return self.state.get_scalar(name)

    def _eval_array_ref(self, expr: ast.ArrayRef, env: Mapping[str, np.ndarray]):
        if not self.state.is_array(expr.name):
            raise EvaluationError(f"'{expr.name}' is subscripted but is not an array", )
        array = self.state.array(expr.name)
        data = array.data
        if isinstance(env, ForallSpace):
            view = self.strided_view(expr, array, env)
            if view is not None:        # read-only, like any shared value
                if view.shape != env.shape:
                    return np.broadcast_to(view, env.shape)
                view.flags.writeable = False
                return view

        has_section = any(isinstance(ix, ast.Section) for ix in expr.indices)
        evaluated = []
        any_ndarray = False
        for axis, index in enumerate(expr.indices):
            if isinstance(index, ast.Section):
                evaluated.append(self._section_slice(array, axis, index, env))
            else:
                value = self._eval(index, env)
                if isinstance(value, np.ndarray):
                    any_ndarray = True
                evaluated.append(value)

        if has_section and any_ndarray:
            raise EvaluationError(
                f"mixed section / vector subscripts on '{expr.name}' are not supported"
            )

        if has_section or not any_ndarray:
            # basic indexing (scalars zero-based + slices)
            indices = []
            for axis, value in enumerate(evaluated):
                if isinstance(value, slice):
                    indices.append(value)
                else:
                    indices.append(self.element_index(array, axis, value))
            return data[tuple(indices)]

        # vectorised (forall) indexing: every subscript becomes a zero-based
        # integer array; NumPy broadcasting aligns the index grids.
        indices = []
        for axis, value in enumerate(evaluated):
            zero_based = np.asarray(value) - array.lower_bounds[axis]
            indices.append(zero_based.astype(np.int64))
        return data[tuple(indices)]

    def strided_view(self, expr: ast.ArrayRef, array,
                     space: ForallSpace) -> np.ndarray | None:
        """*expr*, a reference to *array*, over the forall *space* as a view
        in forall-axis order.

        The view has a length-1 axis for each forall index *expr* does not
        use, so it broadcasts to ``space.shape``.  None when a subscript is
        not of view form, a forall index occurs twice, no subscript uses a
        forall index, or the spanned range leaves the declared bounds — the
        reference must then be gathered (module docstring).
        """
        cached = self._view_forms.get(id(expr))
        if cached is None or cached[0] is not expr or cached[1] != space.names:
            cached = self._view_forms[id(expr)] = (
                expr, space.names,
                [_affine(ix, space.names) for ix in expr.indices])
        forms = cached[2]
        if None in forms:
            return None
        extents = array.data.shape
        index = []
        order = []          # the forall index of each view axis
        for axis, (name, coeff, terms) in enumerate(forms):
            if name in order or (name is not None and coeff == 0):
                return None
            offset = bound = 0
            for factor, term in terms:
                value = _integral(self._eval(term, space))
                if value is None:
                    return None
                offset += factor * value
                bound += abs(factor * value)
            start = offset - array.lower_bounds[axis]
            if name is None:
                if not 0 <= start < extents[axis]:
                    return None
                index.append(start)
                continue
            position, first, step = space.axes[name]
            length = space.shape[position]
            last_value = first + (length - 1) * step
            bound += abs(coeff) * max(abs(first), abs(last_value))
            start += coeff * first
            stride = coeff * step
            stop = start + (length - 1) * stride
            if bound >= _EXACT_INT or not (0 <= start < extents[axis]
                                           and 0 <= stop < extents[axis]):
                return None
            stop += 1 if stride > 0 else -1
            index.append(slice(start, stop if stop >= 0 else None, stride))
            order.append(name)
        if not order:
            return None
        view = array.data[tuple(index)]
        positions = [space.axes[name][0] for name in order]
        if positions != sorted(positions):
            view = view.transpose(sorted(range(len(positions)),
                                         key=positions.__getitem__))
        if len(positions) < len(space.shape):
            view = view.reshape([length if position in positions else 1
                                 for position, length in enumerate(space.shape)])
        return view

    def element_index(self, array, axis: int, value) -> int:
        """Zero-based index of the scalar Fortran subscript *value* on *axis*,
        which must lie inside the declared bounds."""
        lb = array.lower_bounds[axis]
        ub = lb + array.data.shape[axis] - 1
        index = int(value)
        if not lb <= index <= ub:
            raise EvaluationError(
                f"subscript {index} of '{array.name}' on axis {axis + 1} is "
                f"outside its declared bounds {lb}:{ub}")
        return index - lb

    def _section_slice(self, array, axis: int, section: ast.Section,
                       env: Mapping[str, np.ndarray]) -> slice:
        lb = array.lower_bounds[axis]
        extent = array.shape[axis]
        lo = self._eval(section.lo, env) if section.lo is not None else lb
        hi = self._eval(section.hi, env) if section.hi is not None else lb + extent - 1
        stride = self._eval(section.stride, env) if section.stride is not None else 1
        lo_i, hi_i, stride_i = int(lo), int(hi), int(stride)
        if stride_i == 0:
            raise EvaluationError("array section stride must be non-zero")
        if (hi_i - lo_i) * stride_i >= 0:       # at least one element
            last = lo_i + (hi_i - lo_i) // stride_i * stride_i
            for index in (lo_i, last):
                self.element_index(array, axis, index)
        start = lo_i - lb
        stop = hi_i - lb + (1 if stride_i > 0 else -1)
        if stride_i < 0 and stop < 0:
            stop = None  # type: ignore[assignment]
        return slice(start, stop, stride_i)

    # ------------------------------------------------------------------
    # operators and intrinsics
    # ------------------------------------------------------------------

    def _eval_binop(self, expr: ast.BinOp, env: Mapping[str, np.ndarray]):
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if expr.op == "+":
            return np.add(left, right)
        if expr.op == "-":
            return np.subtract(left, right)
        if expr.op == "*":
            return np.multiply(left, right)
        if expr.op == "/":
            if _is_integer_like(left) and _is_integer_like(right):
                return _fortran_int_div(left, right)
            return np.divide(left, right)
        if expr.op == "**":
            return np.power(np.asarray(left, dtype=np.float64) if _is_integer_like(left)
                            and not _is_integer_like(right) else left, right)
        if expr.op == "//":
            return str(left) + str(right)
        raise EvaluationError(f"unsupported binary operator '{expr.op}'")

    def _eval_call(self, expr: ast.FuncCall, env: Mapping[str, np.ndarray]):
        name = expr.name.lower()
        if name in _ORDER_SENSITIVE and isinstance(env, ForallSpace):
            env = dict(env)         # gather the arguments (module docstring)
        args = [self._eval(a, env) for a in expr.args]

        if name in _ELEMENTAL:
            return _ELEMENTAL[name](args[0])
        if name in ("real", "dble", "float"):
            value = np.asarray(args[0], dtype=np.float64)
            return value if value.ndim else float(value)
        if name == "int":
            value = np.trunc(np.asarray(args[0])).astype(np.int64)
            return value if value.ndim else int(value)
        if name == "max":
            result = args[0]
            for other in args[1:]:
                result = np.maximum(result, other)
            return result
        if name == "min":
            result = args[0]
            for other in args[1:]:
                result = np.minimum(result, other)
            return result
        if name in ("mod",):
            return np.fmod(args[0], args[1])
        if name == "modulo":
            return np.mod(args[0], args[1])
        if name == "sign":
            return np.copysign(np.abs(args[0]), args[1])
        if name == "merge":
            return np.where(np.asarray(args[2], dtype=bool), args[0], args[1])
        if name == "atan2":
            return np.arctan2(args[0], args[1])

        # reductions ---------------------------------------------------------
        if name in ("sum", "product", "maxval", "minval", "count", "any", "all"):
            data = np.asarray(args[0])
            mask = None
            if len(args) > 1 and not isinstance(expr.args[1], ast.Num):
                mask = np.asarray(args[1], dtype=bool)
            if name == "count":
                source = np.asarray(args[0], dtype=bool)
                return int(np.count_nonzero(source))
            if mask is not None:
                if name in ("sum",):
                    return float(np.sum(np.where(mask, data, 0.0)))
                if name == "product":
                    return float(np.prod(np.where(mask, data, 1.0)))
                if name == "maxval":
                    return float(np.max(np.where(mask, data, -np.inf)))
                if name == "minval":
                    return float(np.min(np.where(mask, data, np.inf)))
            if name == "sum":
                return float(np.sum(data))
            if name == "product":
                return float(np.prod(data))
            if name == "maxval":
                return float(np.max(data))
            if name == "minval":
                return float(np.min(data))
            if name == "any":
                return bool(np.any(data))
            if name == "all":
                return bool(np.all(data))
        if name in ("maxloc", "minloc"):
            data = np.asarray(args[0])
            flat = np.argmax(data) if name == "maxloc" else np.argmin(data)
            return int(flat) + 1  # Fortran 1-based location (flattened)
        if name == "dot_product":
            return float(np.dot(np.asarray(args[0], dtype=np.float64).ravel(),
                                np.asarray(args[1], dtype=np.float64).ravel()))
        if name == "matmul":
            return np.matmul(args[0], args[1])
        if name == "transpose":
            return np.transpose(args[0])
        if name == "spread":
            data, dim, ncopies = args[0], int(args[1]), int(args[2])
            return np.repeat(np.expand_dims(np.asarray(data), axis=dim - 1), ncopies, axis=dim - 1)
        if name == "reshape":
            shape = tuple(int(v) for v in np.asarray(args[1]).ravel())
            return np.reshape(np.asarray(args[0]), shape, order="F")

        # shifts -------------------------------------------------------------
        if name in ("cshift", "tshift"):
            data = np.asarray(args[0])
            shift = int(np.asarray(args[1])) if len(args) > 1 else 1
            axis = int(args[2]) - 1 if len(args) > 2 else 0
            return np.roll(data, -shift, axis=axis)
        if name == "eoshift":
            data = np.asarray(args[0])
            shift = int(np.asarray(args[1])) if len(args) > 1 else 1
            fill = args[2] if len(args) > 2 else 0.0
            axis = int(args[3]) - 1 if len(args) > 3 else 0
            result = np.roll(data, -shift, axis=axis)
            index = [slice(None)] * data.ndim
            if shift > 0:
                index[axis] = slice(data.shape[axis] - shift, None)
            elif shift < 0:
                index[axis] = slice(0, -shift)
            if shift != 0:
                result[tuple(index)] = fill
            return result

        # inquiry -------------------------------------------------------------
        if name == "size":
            data = np.asarray(args[0])
            if len(args) > 1:
                return int(data.shape[int(args[1]) - 1])
            return int(data.size)
        if name in ("lbound", "ubound"):
            ref = expr.args[0]
            if isinstance(ref, (ast.Var, ast.ArrayRef)) and self.state.is_array(ref.name):
                array = self.state.array(ref.name)
                dim = int(args[1]) - 1 if len(args) > 1 else 0
                if name == "lbound":
                    return int(array.lower_bounds[dim])
                return int(array.lower_bounds[dim] + array.shape[dim] - 1)
        if name == "shape":
            return np.asarray(np.asarray(args[0]).shape, dtype=np.int64)

        raise EvaluationError(f"unsupported intrinsic or function '{expr.name}'")
