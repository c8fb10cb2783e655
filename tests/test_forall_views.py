"""Strided forall views agree with the gather path, bit for bit.

Inside a forall, a reference whose subscripts are ``c*v + b`` or integral
scalars is read as a basic-slicing view, and such a target that uses every
forall index is stored through its view (``repro.functional.exprs``).  The
property below generates foralls over 1-D and 2-D arrays with arbitrary
lower bounds, strides, permuted and scalar subscripts, masks and
self-overlapping stores, and runs each one twice on identical random data:
once through :func:`execute_forall` and once through the gather path alone
(a plain-dict index environment, so no reference becomes a view, and
``_forall_scatter`` for every store).  Every array must match bit for bit,
and an error on one side must be the same error on the other.  Offsets that
leave the array are generated on purpose: those references must fall back
to the gather path, wrap-around and ``IndexError`` included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_source
from repro.functional import FunctionalEvaluator, execute_forall
from repro.functional.evaluator import _forall_scatter
from repro.functional.exprs import ForallSpace

LOWER_BOUNDS = (-2, 0, 1)
INDEX_NAMES = ("i", "j")
#: n0 and f0 hold 2; h holds 0.5 and is never an integral subscript
SCALAR_VALUES = {"n0": 2, "f0": 2.0, "h": 0.5}


def gather_forall(stmt: ast.ForallStmt, state, exprs) -> np.ndarray | None:
    """Execute *stmt* through the gather path only; return its mask."""
    triplets = []
    for triplet in stmt.triplets:
        lo, hi = int(exprs.eval(triplet.lo)), int(exprs.eval(triplet.hi))
        step = int(exprs.eval(triplet.step)) if triplet.step is not None else 1
        values = np.arange(lo, hi + (1 if step > 0 else -1), step, dtype=np.int64)
        triplets.append((triplet.var.lower(), values, step))
    if any(len(values) == 0 for _name, values, _step in triplets):
        return None
    space = ForallSpace(triplets)
    env = dict(space)
    mask = None
    if stmt.mask is not None:
        mask = np.broadcast_to(np.array(exprs.eval(stmt.mask, env), dtype=bool),
                               space.shape)
    for assign in stmt.body:
        rhs = exprs.eval(assign.value, env)
        _forall_scatter(assign.target, state.array(assign.target.name), rhs,
                        exprs, env, mask)
    return mask


@st.composite
def constants(draw, value: int):
    """An expression free of forall indices worth *value*: a literal, or
    built on the integer scalar n0 or the float parameter f0."""
    return draw(st.sampled_from((str(value), f"n0 + ({value - 2})",
                                 f"f0 - ({2 - value})")))


@st.composite
def subscripts(draw, bounds, values, var=None):
    """One subscript on an axis with declared *bounds*.  *values* maps each
    forall index to its (min, max); *var* forces ``c*v + b`` over it.

    The offset usually keeps the whole range inside the bounds; about one
    subscript in five is placed anywhere, so it may leave the array and must
    then be gathered.
    """
    lo, hi = bounds
    inside = draw(st.integers(0, 4)) > 0
    kind = "affine" if var else draw(st.sampled_from(
        ("affine",) * 5 + ("scalar", "non-integral", "other")))
    if kind == "scalar":
        return draw(constants(draw(st.integers(lo, hi) if inside
                                   else st.integers(lo - 3, hi + 3))))
    var = var or draw(st.sampled_from(sorted(values)))
    if kind == "non-integral":          # never a view: b is 0.5
        return f"{var} + h"
    if kind == "other":                 # never a view: not c*v + b
        return draw(st.sampled_from((f"{var} * {var}", f"mod({var}, 2) + 1",
                                     "i + j" if len(values) > 1 else f"{var} / 1")))
    coeff = draw(st.sampled_from((1, -1, 2, -2)))
    vmin, vmax = values[var]
    low, high = sorted((coeff * vmin, coeff * vmax))
    if inside and hi - lo >= high - low:
        b = draw(st.integers(lo - low, hi - high))
    else:
        b = draw(st.integers(lo - high - 2, hi - low + 2))
    term = {1: var, -1: f"-{var}"}.get(coeff, f"{coeff}*{var}")
    const = draw(constants(b))
    return draw(st.sampled_from((f"{term} + ({const})", f"{const} + ({term})",
                                 f"{term} - ({draw(constants(-b))})")))


@st.composite
def references(draw, shapes, values, arrays=("a", "v", "w", "k")):
    name = draw(st.sampled_from(arrays))
    names = sorted(values)
    order = [None] * len(shapes[name])
    if name == "a" and len(names) == 2:
        # often both indices, in either order: a(j, i) reads a transposed view
        order = list(draw(st.sampled_from(([None, None], names, names[::-1]))))
    subs = [draw(subscripts(bounds, values, var))
            for bounds, var in zip(shapes[name], order)]
    return f"{name}({', '.join(subs)})"


@st.composite
def foralls(draw):
    lower = {name: draw(st.sampled_from(LOWER_BOUNDS)) for name in "avwk"}
    extent = {name: draw(st.integers(5, 9)) for name in "avwk"}
    # the 2-D array is one longer on axis 2, so a(j, i) is not square
    shapes = {name: [(lower[name], lower[name] + extent[name] - 1)]
              for name in "avwk"}
    shapes["a"].append((lower["a"], lower["a"] + extent["a"]))
    triplets, values = [], {}
    for var in INDEX_NAMES[:draw(st.integers(1, 2))]:
        step = draw(st.sampled_from((1, 2, -1)))
        first = draw(st.integers(-1, 3))
        last = first + (draw(st.integers(1, 4)) - 1) * step
        triplets.append(f"{var} = {first}:{last}" + (f":{step}" if step != 1 else ""))
        values[var] = (min(first, last), max(first, last))
    mask = draw(st.sampled_from((None, "i > 1", "ref", "ref")))
    if mask == "ref":
        mask = f"{draw(references(shapes, values))} > 0.0"
    body = []
    for _ in range(draw(st.integers(1, 2))):
        target = draw(references(shapes, values))
        if draw(st.booleans()):             # self-overlapping store
            rhs = draw(references(shapes, values, arrays=(target.split("(")[0],)))
        else:
            rhs = draw(references(shapes, values))
        if draw(st.booleans()):
            rhs += draw(st.sampled_from((" + ", " * ", " - "))) + draw(
                st.sampled_from((draw(references(shapes, values)), "0.5", "i")))
        body.append(f"{target} = {rhs}")
    header = ", ".join(triplets + ([mask] if mask else []))
    return header, body, shapes


def build(header, body, shapes, seed):
    def dims(name):
        return ", ".join(f"{lo}:{hi}" for lo, hi in shapes[name])
    source = "\n".join([
        "      program t",
        f"      real :: a({dims('a')}), v({dims('v')}), w({dims('w')})",
        f"      integer :: k({dims('k')})",
        "      integer :: n0",
        "      real :: f0, h",
        f"      forall ({header})",
        *(f"        {stmt}" for stmt in body),
        "      end forall",
        "      end program t",
    ])
    program = parse_source(source)
    evaluator = FunctionalEvaluator(program)
    state = evaluator.state
    rng = np.random.default_rng(seed)
    for array in state.arrays.values():
        if array.data.dtype == np.int64:
            array.data[...] = rng.integers(-9, 10, array.data.shape)
        else:
            array.data[...] = rng.normal(size=array.data.shape)
    for name, value in SCALAR_VALUES.items():
        state.set_scalar(name, value)
    forall = next(s for s in program.body if isinstance(s, ast.ForallStmt))
    return forall, evaluator


def outcome(run):
    try:
        return None, run()
    except Exception as exc:        # compared by type across the two paths
        return type(exc), None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(foralls(), st.integers(0, 2**32 - 1))
def test_view_path_matches_gather_path(case, seed):
    stmt, viewed = build(*case, seed)
    _stmt, gathered = build(*case, seed)
    error, record = outcome(lambda: execute_forall(stmt, viewed.state,
                                                   viewed.exprs))
    expected_error, mask = outcome(lambda: gather_forall(
        _stmt, gathered.state, gathered.exprs))
    assert error is expected_error
    for name, array in viewed.state.arrays.items():
        other = gathered.state.arrays[name].data
        assert array.data.dtype == other.dtype
        assert array.data.tobytes() == other.tobytes(), name
    if error is None and mask is not None:
        assert record.mask.tobytes() == mask.tobytes()


# ---------------------------------------------------------------------------
# which path a reference takes
# ---------------------------------------------------------------------------

def _space_and_evaluator():
    """The space of ``forall (i = 2:5, j = 1:3)`` over 6 x 6 and 6 arrays."""
    evaluator = FunctionalEvaluator(parse_source(
        "      program t\n      real :: a(6, 6), v(6), f0, h\n"
        "      integer :: k(6), n0\n      end program t\n"))
    evaluator.state.set_scalar("n0", 2)
    evaluator.state.set_scalar("f0", 2.0)
    evaluator.state.set_scalar("h", 0.5)
    evaluator.state.array("a").data[...] = np.arange(36.0).reshape(6, 6)
    evaluator.state.array("v").data[...] = np.arange(6.0)
    space = ForallSpace([("i", np.arange(2, 6), 1), ("j", np.arange(1, 4), 1)])
    return space, evaluator


@pytest.mark.parametrize("ref, takes_view", [
    ("a(i, j)", True),
    ("a(j, i)", True),                  # permuted: transposed view
    ("a(i - 1, j + 1)", True),
    ("a(2*j - 1, i)", True),            # strided and permuted
    ("a(-i + 7, j)", True),             # negative stride
    ("a(f0, j)", True),                 # integral float scalar
    ("a(n0 + 1, i)", True),
    ("v(i + f0 - 1)", True),
    ("a(i, i)", False),                 # repeated index
    ("a(h, j)", False),                 # non-integral scalar
    ("v(i + h)", False),                # non-integral offset
    ("a(i + j, 1)", False),             # two indices in one subscript
    ("v(k(i))", False),                 # indirect
    ("v(i * i)", False),                # not affine
    ("v(i + 1.0e20 - 1.0e20)", False),  # inexact in float64: the gather
                                        # computes 0 for every i
    ("v(i - 2)", False),                # leaves the array (i = 2 -> v(0))
    ("a(i, j + 5)", False),             # leaves the array on axis 2
    ("a(1, 2)", False),                 # no forall index: the basic path
])
def test_view_or_gather_by_subscript_form(ref, takes_view):
    space, evaluator = _space_and_evaluator()
    expr = parse_source(f"      program t\n      real :: a(6, 6), v(6)\n"
                        f"      integer :: k(6)\n      x = {ref}\n"
                        "      end program t\n").body[-1].value
    view = evaluator.exprs.strided_view(
        expr, evaluator.state.array(expr.name), space)
    assert (view is not None) is takes_view
    if takes_view:
        gathered = evaluator.exprs.eval(expr, dict(space))
        assert np.array_equal(np.broadcast_to(view, space.shape), gathered)
        assert np.shares_memory(view, evaluator.state.array(expr.name).data)


def test_store_through_view_copies_an_overlapping_rhs():
    # v(i + 1) = v(i) must read every old value (Fortran forall semantics)
    shapes = {name: [(1, 6)] for name in "vwk"}
    shapes["a"] = [(1, 6), (1, 6)]
    stmt, evaluator = build("i = 1:5", ["v(i + 1) = v(i)"], shapes, seed=3)
    before = evaluator.state.array("v").data.copy()
    execute_forall(stmt, evaluator.state, evaluator.exprs)
    after = evaluator.state.array("v").data
    assert after[0] == before[0] and np.array_equal(after[1:], before[:-1])


def test_mask_is_a_snapshot_taken_before_the_body():
    # the mask is the logical array l itself, read through a view; the first
    # statement clears l, and the second must still see the mask the forall
    # started with
    source = "\n".join([
        "      program t",
        "      real :: v(4)",
        "      logical :: l(4)",
        "      forall (i = 1:4) l(i) = i < 3",
        "      v = 0.0",
        "      forall (i = 1:4, l(i))",
        "        l(i) = .false.",
        "        v(i) = 1.0",
        "      end forall",
        "      end program t"])
    result = FunctionalEvaluator(parse_source(source)).run()
    assert np.array_equal(result.array("v"), [1.0, 1.0, 0.0, 0.0])
    assert not result.array("l").any()


def test_order_sensitive_intrinsics_gather_their_arguments():
    # a sum over a transposed view adds in memory order, which can differ
    # from the gather's iteration order in the last bits
    shapes = {"a": [(1, 64), (1, 64)], "v": [(1, 6)], "w": [(1, 6)],
              "k": [(1, 6)]}
    case = ("i = 1:64, j = 1:64",
            ["v(1 + mod(i, 2)) = sum(a(j, i))",
             "w(1 + mod(i, 2)) = product(1.0 + 0.01 * a(j, i))"],
            shapes)
    stmt, viewed = build(*case, seed=11)
    _stmt, gathered = build(*case, seed=11)
    execute_forall(stmt, viewed.state, viewed.exprs)
    gather_forall(_stmt, gathered.state, gathered.exprs)
    for name in ("v", "w"):
        assert viewed.state.array(name).data.tobytes() \
            == gathered.state.array(name).data.tobytes()
