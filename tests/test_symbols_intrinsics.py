"""Tests for the symbol table, constant evaluation and the intrinsic catalogue."""

import pytest

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import SemanticError
from repro.frontend.intrinsics import (
    IntrinsicClass,
    all_intrinsics,
    intrinsic_class,
    intrinsic_info,
    is_elemental,
    is_intrinsic,
    is_reduction,
    is_shift,
)
from repro.frontend.parser import parse_expression, parse_source
from repro.frontend.symbols import SymbolTable, eval_const_expr, try_eval_const

SRC = """
      program t
      integer, parameter :: n = 16
      integer, parameter :: m = 2 * n
      real, dimension(n, m) :: a
      double precision :: d(0:n)
      integer :: i
      real :: x
      a(1, 1) = 0.0
      end program t
"""


class TestSymbolTable:
    @pytest.fixture
    def table(self):
        return SymbolTable.from_program(parse_source(SRC))

    def test_symbols_present(self, table):
        for name in ("n", "m", "a", "d", "i", "x"):
            assert name in table

    def test_array_detection(self, table):
        assert table.lookup("a").is_array
        assert not table.lookup("x").is_array
        assert table.lookup("a").rank == 2

    def test_parameter_environment(self, table):
        env = table.parameter_env()
        assert env["n"] == 16
        assert env["m"] == 32  # m = 2*n resolves through the fixed point

    def test_parameter_override(self, table):
        env = table.parameter_env(overrides={"n": 64})
        assert env["n"] == 64

    def test_array_shape_resolution(self, table):
        env = table.parameter_env()
        assert table.array_shape("a", env) == (16, 32)
        assert table.array_shape("d", env) == (17,)   # 0:n has n+1 elements

    def test_array_lower_bounds(self, table):
        env = table.parameter_env()
        assert table.array_lower_bounds("a", env) == (1, 1)
        assert table.array_lower_bounds("d", env) == (0,)

    def test_element_sizes(self, table):
        assert table.lookup("a").element_size == 4
        assert table.lookup("d").element_size == 8
        assert table.lookup("i").element_size == 4

    def test_array_shape_of_scalar_raises(self, table):
        with pytest.raises(SemanticError):
            table.array_shape("x", {})

    def test_lookup_unknown_raises(self, table):
        with pytest.raises(SemanticError):
            table.lookup("nosuch")

    def test_arrays_and_scalars_listing(self, table):
        assert {s.name for s in table.arrays()} == {"a", "d"}
        assert "x" in {s.name for s in table.scalars()}
        assert {s.name for s in table.parameters()} == {"n", "m"}


class TestConstEval:
    @pytest.mark.parametrize("text, expected", [
        ("1 + 2 * 3", 7.0),
        ("2 ** 10", 1024.0),
        ("(4 - 1) / 2.0", 1.5),
        ("-5 + 1", -4.0),
        ("max(3, 7, 5)", 7.0),
        ("min(3, 7, 5)", 3.0),
        ("mod(7, 3)", 1.0),
        ("sqrt(16.0)", 4.0),
        ("abs(-2.5)", 2.5),
        ("int(3.9)", 3.0),
    ])
    def test_arithmetic(self, text, expected):
        assert eval_const_expr(parse_expression(text)) == pytest.approx(expected)

    def test_names_resolved_from_env(self):
        expr = parse_expression("2 * n + 1")
        assert eval_const_expr(expr, {"n": 10}) == 21

    def test_unknown_name_raises(self):
        with pytest.raises(SemanticError):
            eval_const_expr(parse_expression("n + 1"))

    def test_try_eval_returns_none_on_failure(self):
        assert try_eval_const(parse_expression("n + 1")) is None
        assert try_eval_const(parse_expression("3 + 4")) == 7

    def test_comparison_and_logical(self):
        assert eval_const_expr(parse_expression("3 > 2")) == 1.0
        assert eval_const_expr(parse_expression("1 > 2 .or. 2 > 1")) == 1.0
        assert eval_const_expr(parse_expression(".not. (1 > 2)")) == 1.0

    def test_division_by_zero_raises(self):
        with pytest.raises(SemanticError):
            eval_const_expr(parse_expression("1 / 0"))

    def test_array_reference_not_constant(self):
        expr = ast.ArrayRef(name="a", indices=[ast.Num(value=1, is_int=True)])
        with pytest.raises(SemanticError):
            eval_const_expr(expr)


class TestIntrinsicCatalogue:
    def test_catalogue_is_nonempty_and_copied(self):
        catalogue = all_intrinsics()
        assert len(catalogue) > 40
        catalogue.clear()
        assert len(all_intrinsics()) > 40  # clearing the copy does not mutate the registry

    @pytest.mark.parametrize("name", ["sqrt", "exp", "abs", "max", "merge", "nint"])
    def test_elemental_classification(self, name):
        assert is_intrinsic(name)
        assert is_elemental(name)
        assert not is_reduction(name)

    @pytest.mark.parametrize("name", ["sum", "product", "maxval", "minval", "count",
                                      "maxloc", "minloc"])
    def test_reduction_classification(self, name):
        assert is_reduction(name)
        assert not is_shift(name)

    @pytest.mark.parametrize("name", ["cshift", "eoshift", "tshift"])
    def test_shift_classification(self, name):
        assert is_shift(name)
        assert intrinsic_class(name) is IntrinsicClass.SHIFT

    def test_case_insensitive(self):
        assert is_intrinsic("SQRT")
        assert intrinsic_info("SUM").name == "sum"

    def test_unknown_name(self):
        assert not is_intrinsic("frobnicate")
        assert intrinsic_class("frobnicate") is None

    def test_info_fields(self):
        info = intrinsic_info("exp")
        assert info.min_args == 1 and info.max_args == 1
        assert info.flops > 1.0

    def test_transcendental_more_expensive_than_abs(self):
        assert intrinsic_info("exp").flops > intrinsic_info("abs").flops
