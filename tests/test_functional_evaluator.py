"""Tests for the functional interpreter (the correctness oracle)."""

import numpy as np
import pytest

from repro.frontend.errors import EvaluationError
from repro.frontend.parser import parse_source
from repro.functional import FunctionalEvaluator, evaluate_program


def run(body: str, decls: str = "", params=None):
    src = f"      program t\n{decls}\n{body}\n      end program t\n"
    return evaluate_program(parse_source(src), params=params)


class TestScalarExecution:
    def test_scalar_assignment_and_print(self):
        result = run("      x = 2.0\n      y = x ** 3\n      print *, y")
        assert result.scalar("y") == pytest.approx(8.0)
        assert result.printed == ["8"]

    def test_integer_division_truncates(self):
        result = run("      integer :: i\n      i = 7 / 2")
        assert result.scalar("i") == 3

    def test_do_loop_accumulation(self):
        result = run("      s = 0.0\n      do i = 1, 10\n        s = s + i\n      end do")
        assert result.scalar("s") == pytest.approx(55.0)

    def test_do_loop_with_step_and_exit(self):
        result = run("      s = 0.0\n      do i = 1, 100, 2\n"
                     "        if (i > 10) exit\n        s = s + i\n      end do")
        assert result.scalar("s") == pytest.approx(1 + 3 + 5 + 7 + 9)

    def test_cycle_skips_iteration(self):
        result = run("      s = 0.0\n      do i = 1, 5\n"
                     "        if (i == 3) cycle\n        s = s + i\n      end do")
        assert result.scalar("s") == pytest.approx(12.0)

    def test_do_while(self):
        result = run("      integer :: k\n      k = 16\n      c = 0.0\n"
                     "      do while (k > 1)\n        k = k / 2\n        c = c + 1.0\n"
                     "      end do")
        assert result.scalar("c") == pytest.approx(4.0)

    def test_if_elseif_else(self):
        result = run("      x = -3.0\n      if (x > 0.0) then\n        s = 1.0\n"
                     "      else if (x < 0.0) then\n        s = -1.0\n"
                     "      else\n        s = 0.0\n      end if")
        assert result.scalar("s") == -1.0

    def test_stop_halts_program(self):
        result = run("      x = 1.0\n      stop\n      x = 2.0")
        assert result.scalar("x") == 1.0
        assert result.state.stopped

    def test_parameter_override(self):
        result = run("      real :: a(n)\n      a = 2.0\n      s = sum(a)",
                     decls="      integer, parameter :: n = 4", params={"n": 10})
        assert result.scalar("s") == pytest.approx(20.0)


class TestArrayExecution:
    def test_whole_array_assignment(self):
        result = run("      real :: a(5)\n      a = 3.0")
        assert np.allclose(result.array("a"), 3.0)

    def test_section_assignment(self):
        result = run("      real :: a(10)\n      a = 0.0\n      a(3:7) = 1.0")
        a = result.array("a")
        assert a[2:7].sum() == 5.0 and a.sum() == 5.0

    def test_strided_section(self):
        result = run("      real :: a(10)\n      a = 0.0\n      a(1:10:2) = 1.0")
        assert result.array("a").sum() == 5.0

    def test_element_assignment_with_lower_bound(self):
        result = run("      real :: a(0:4)\n      a = 0.0\n      a(0) = 7.0")
        assert result.array("a")[0] == 7.0

    def test_forall_basic(self):
        result = run("      real :: a(6)\n      forall (i = 1:6) a(i) = i * i")
        assert np.allclose(result.array("a"), [1, 4, 9, 16, 25, 36])

    def test_forall_uses_old_values(self):
        # x(2:9) = x(1:8) + x(3:10) must read the original x
        result = run("      real :: x(10)\n      forall (i = 1:10) x(i) = i\n"
                     "      x(2:9) = x(1:8) + x(3:10)")
        expected = np.arange(1, 11, dtype=float)
        expected[1:9] = np.arange(1, 9) + np.arange(3, 11)
        assert np.allclose(result.array("x"), expected)

    def test_forall_with_mask(self):
        result = run("      real :: a(8)\n      forall (i = 1:8) a(i) = i - 4.5\n"
                     "      forall (i = 1:8, a(i) > 0.0) a(i) = 0.0")
        a = result.array("a")
        assert (a <= 0).all()
        assert a[0] == pytest.approx(-3.5)

    def test_forall_two_dimensional(self):
        result = run("      real :: m(3, 4)\n      forall (i = 1:3, j = 1:4) m(i, j) = 10 * i + j")
        m = result.array("m")
        assert m[0, 0] == 11 and m[2, 3] == 34

    def test_forall_construct_multiple_statements(self):
        result = run("      real :: a(5), b(5)\n"
                     "      forall (i = 1:5)\n        a(i) = i\n        b(i) = 2 * i\n"
                     "      end forall")
        assert np.allclose(result.array("b"), 2 * result.array("a"))

    def test_where_statement(self):
        result = run("      real :: a(6), b(6)\n      forall (i = 1:6) a(i) = i - 3.5\n"
                     "      b = 0.0\n      where (a(1:6) > 0.0) b(1:6) = 1.0")
        assert result.array("b").sum() == 3.0

    def test_where_elsewhere(self):
        result = run("      real :: a(6), b(6)\n      forall (i = 1:6) a(i) = i - 3.5\n"
                     "      where (a(1:6) > 0.0)\n        b(1:6) = 1.0\n"
                     "      elsewhere\n        b(1:6) = -1.0\n      end where")
        assert result.array("b").sum() == 0.0

    @pytest.mark.parametrize("where,printed", [
        ("      where (u > 4.0) w = 2.0 * u\n", "52"),
        ("      where (u > 4.0)\n        w = 2.0 * u\n      elsewhere\n"
         "        w = -1.0\n      end where\n", "48"),
    ], ids=["statement", "construct"])
    def test_where_with_whole_array_target(self, where, printed):
        # the source program, its normalised form and the simulator's data
        # plane agree on a WHERE whose target names the whole array
        import repro
        from repro.compiler import compile_source

        source = ("      program wh\n"
                  "      integer, parameter :: n = 8\n"
                  "      real, dimension(n) :: u, w\n"
                  "!HPF$ PROCESSORS p(4)\n"
                  "!HPF$ TEMPLATE t(n)\n"
                  "!HPF$ ALIGN u(i) WITH t(i)\n"
                  "!HPF$ ALIGN w(i) WITH t(i)\n"
                  "!HPF$ DISTRIBUTE t(BLOCK) ONTO p\n"
                  "      forall (i = 1:n) u(i) = 1.0 * i\n"
                  "      w = 0.0\n"
                  + where +
                  "      print *, sum(w)\n"
                  "      end program wh\n")
        compiled = compile_source(source, nprocs=4)
        original = evaluate_program(compiled.program)
        normalized = evaluate_program(compiled.normalized)
        assert original.printed == normalized.printed == [printed]
        assert original.array("w").tolist() == normalized.array("w").tolist()
        assert repro.measure(source, nprocs=4).printed == [printed]

    def test_indirect_addressing(self):
        result = run("      real :: a(5), g(5)\n      integer :: ix(5)\n"
                     "      forall (i = 1:5) g(i) = 100.0 * i\n"
                     "      forall (i = 1:5) ix(i) = 6 - i\n"
                     "      forall (i = 1:5) a(i) = g(ix(i))")
        assert np.allclose(result.array("a"), [500, 400, 300, 200, 100])


class TestIntrinsicEvaluation:
    def test_reductions(self):
        result = run("      real :: a(4)\n      forall (i = 1:4) a(i) = i\n"
                     "      s = sum(a)\n      p = product(a)\n      mx = maxval(a)\n"
                     "      mn = minval(a)")
        assert result.scalar("s") == 10.0
        assert result.scalar("p") == 24.0
        assert result.scalar("mx") == 4.0
        assert result.scalar("mn") == 1.0

    def test_masked_sum(self):
        result = run("      real :: a(6)\n      forall (i = 1:6) a(i) = i\n"
                     "      s = sum(a, a > 3.0)")
        assert result.scalar("s") == pytest.approx(4 + 5 + 6)

    def test_dot_product(self):
        result = run("      real :: x(3), y(3)\n      x = 2.0\n"
                     "      forall (i = 1:3) y(i) = i\n      d = dot_product(x, y)")
        assert result.scalar("d") == pytest.approx(12.0)

    def test_cshift(self):
        result = run("      real :: a(5), b(5)\n      forall (i = 1:5) a(i) = i\n"
                     "      b = cshift(a, 1)")
        assert np.allclose(result.array("b"), [2, 3, 4, 5, 1])

    def test_cshift_negative(self):
        result = run("      real :: a(5), b(5)\n      forall (i = 1:5) a(i) = i\n"
                     "      b = cshift(a, -1)")
        assert np.allclose(result.array("b"), [5, 1, 2, 3, 4])

    def test_eoshift_fills_boundary(self):
        result = run("      real :: a(5), b(5)\n      forall (i = 1:5) a(i) = i\n"
                     "      b = eoshift(a, 1, 0.0)")
        assert np.allclose(result.array("b"), [2, 3, 4, 5, 0])

    def test_maxloc(self):
        result = run("      real :: a(5)\n      forall (i = 1:5) a(i) = abs(i - 3.2)\n"
                     "      integer :: loc\n      loc = minloc(a)")
        assert result.scalar("loc") == 3

    def test_elemental_functions_on_arrays(self):
        result = run("      real :: a(4), b(4)\n      forall (i = 1:4) a(i) = i\n"
                     "      b = sqrt(a)\n      s = sum(b * b)")
        assert result.scalar("s") == pytest.approx(10.0)

    def test_merge_and_sign(self):
        result = run("      x = merge(1.0, 2.0, 3 > 2)\n      y = sign(5.0, -1.0)")
        assert result.scalar("x") == 1.0
        assert result.scalar("y") == -5.0

    def test_size_and_bounds(self):
        result = run("      real :: a(3, 7)\n      n1 = size(a, 1)\n      n2 = size(a, 2)\n"
                     "      n3 = size(a)")
        assert result.scalar("n1") == 3
        assert result.scalar("n2") == 7
        assert result.scalar("n3") == 21


class TestEvaluatorErrors:
    def test_call_statement_unsupported(self):
        with pytest.raises(EvaluationError):
            run("      call external_routine(1)")

    def test_unknown_intrinsic_raises(self):
        with pytest.raises(EvaluationError):
            run("      real :: a(3)\n      x = gamma(a)")

    def test_array_value_to_scalar_raises(self):
        with pytest.raises(EvaluationError):
            run("      real :: a(3)\n      a = 1.0\n      x = a")

    def test_runaway_while_loop_guarded(self):
        program = parse_source(
            "      program t\n      x = 1.0\n      do while (x > 0.0)\n"
            "        x = x + 1.0\n      end do\n      end\n")
        evaluator = FunctionalEvaluator(program, max_while_iterations=100)
        with pytest.raises(EvaluationError):
            evaluator.run()

    def test_checksum_and_snapshot(self):
        result = run("      real :: a(4)\n      a = 2.0")
        assert result.state.checksum() == pytest.approx(8.0)
        snap = result.state.snapshot()
        assert np.allclose(snap["a"], 2.0)


class TestOutOfRangeSubscripts:
    """Scalar subscripts and non-empty sections must lie inside the declared
    bounds; gathered forall references keep NumPy's wrap-around."""

    DECLS = "      real :: a(4)\n      forall (i = 1:4) a(i) = i"

    def out_of_range(self, statement: str, index: int, axis: int = 1,
                     bounds: str = "1:4"):
        with pytest.raises(EvaluationError) as info:
            run(f"{self.DECLS}\n      {statement}")
        message = str(info.value)
        assert "'a'" in message and f"axis {axis}" in message
        assert f"subscript {index} " in message and bounds in message

    def test_scalar_target_below_bounds(self):
        # used to overwrite a(4)
        self.out_of_range("a(0) = 5.0", 0)

    def test_scalar_read_below_bounds(self):
        # used to read a(4)
        self.out_of_range("x = a(0)", 0)

    def test_scalar_read_above_bounds(self):
        # used to raise a raw numpy IndexError
        self.out_of_range("x = a(5)", 5)

    def test_section_starting_below_bounds(self):
        # used to sum an empty slice to 0.0
        self.out_of_range("x = sum(a(0:2))", 0)

    def test_section_ending_above_bounds(self):
        # numpy used to clip the section silently (7.0)
        self.out_of_range("x = sum(a(3:5))", 5)

    def test_strided_section_checks_its_last_element(self):
        self.out_of_range("x = sum(a(1:7:3))", 7)
        assert run(f"{self.DECLS}\n      x = sum(a(1:6:3))").scalar("x") == 5.0

    def test_negative_stride_section(self):
        self.out_of_range("x = sum(a(5:1:-1))", 5)
        assert run(f"{self.DECLS}\n      x = sum(a(4:1:-2))").scalar("x") == 6.0

    def test_zero_trip_sections_stay_legal(self):
        result = run(f"{self.DECLS}\n      x = sum(a(5:4))\n"
                     "      y = sum(a(0:9:-1))\n      a(7:2) = 9.0")
        assert result.scalar("x") == 0.0 and result.scalar("y") == 0.0
        assert np.array_equal(result.array("a"), [1.0, 2.0, 3.0, 4.0])

    def test_section_target_out_of_bounds(self):
        self.out_of_range("a(2:5) = 0.0", 5)

    def test_where_target_scalar_subscript(self):
        for row in (0, 3):
            with pytest.raises(EvaluationError,
                               match=rf"subscript {row} of 'm' on axis 1 is "
                                     r"outside its declared bounds 1:2"):
                run("      real :: m(2, 3)\n      m = 1.0\n"
                    f"      where (m(1, 1:3) > 0.0) m({row}, 1:3) = 2.0")

    def test_lower_bound_and_axis_are_named(self):
        with pytest.raises(EvaluationError,
                           match=r"subscript 3 of 'g' on axis 2 is outside "
                                 r"its declared bounds -1:2"):
            run("      real :: g(4, -1:2)\n      g(1, 3) = 1.0")

    def test_masked_forall_keeps_wraparound_for_masked_out_elements(self):
        # i - 1 = 0 for the masked-out i = 1: the gather reads a(4) there
        # (wrap-around) and the mask discards it; no error, same values.
        result = run("      real :: a(4), b(4)\n      forall (i = 1:4) a(i) = i\n"
                     "      b = -1.0\n      forall (i = 1:4, i > 1) b(i) = a(i - 1)")
        assert np.array_equal(result.array("b"), [-1.0, 1.0, 2.0, 3.0])

    def test_unmasked_forall_gather_still_wraps(self):
        # vector subscripts keep NumPy semantics: index 0 reads a(4)
        result = run("      real :: a(4), b(4)\n      forall (i = 1:4) a(i) = i\n"
                     "      forall (i = 1:4) b(i) = a(i - 1)")
        assert np.array_equal(result.array("b"), [4.0, 1.0, 2.0, 3.0])
