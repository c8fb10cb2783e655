"""Tests for the simulator runtime: SPMD execution, timing behaviour, and
functional equivalence with the sequential evaluator."""

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.functional import evaluate_program
from repro.simulator import SimulatorOptions, simulate
from repro.simulator.noise import NoiseOptions
from repro.system import ipsc860
from repro.system.ipsc860 import PROGRAM_STARTUP_US


class TestSimulationBasics:
    def test_measured_time_positive(self, laplace_compiled, machine4):
        result = simulate(laplace_compiled, machine4)
        assert result.measured_time_us > 0
        assert len(result.per_rank_us) == 4
        assert result.measured_time_us == pytest.approx(max(result.per_rank_us), rel=0.01)

    def test_breakdown_components(self, laplace_compiled, machine4):
        result = simulate(laplace_compiled, machine4)
        breakdown = result.breakdown()
        assert breakdown["computation"] > 0
        assert breakdown["communication"] > 0
        assert breakdown["overhead"] > 0

    def test_determinism_same_seed(self, laplace_compiled, machine4):
        a = simulate(laplace_compiled, machine4)
        b = simulate(laplace_compiled, machine4)
        assert a.measured_time_us == b.measured_time_us
        assert a.array_checksum == b.array_checksum

    def test_different_seed_changes_timing_not_results(self, laplace_compiled, machine4):
        a = simulate(laplace_compiled, machine4, options=SimulatorOptions(seed=1))
        b = simulate(laplace_compiled, machine4, options=SimulatorOptions(seed=2))
        # Compare the unquantised per-rank clocks: the reported total is
        # quantised to 1 us and two seeds can legitimately collide there.
        assert a.per_rank_us != b.per_rank_us
        assert a.array_checksum == b.array_checksum
        assert a.printed == b.printed

    def test_noise_free_simulation(self, laplace_compiled, machine4):
        quiet = SimulatorOptions(noise=NoiseOptions(enabled=False))
        a = simulate(laplace_compiled, machine4, options=quiet)
        b = simulate(laplace_compiled, machine4,
                     options=SimulatorOptions(noise=NoiseOptions(enabled=False), seed=999))
        assert a.measured_time_us == b.measured_time_us

    def test_more_processors_run_faster_for_large_problems(self, laplace_source):
        big = {"n": 128, "maxiter": 4}
        t1 = simulate(compile_source(laplace_source, nprocs=1, params=big), ipsc860(1))
        t8 = simulate(compile_source(laplace_source, nprocs=8, params=big), ipsc860(8))
        assert t8.measured_time_us < t1.measured_time_us
        speedup = t1.measured_time_us / t8.measured_time_us
        assert 1.5 < speedup <= 8.0

    def test_communication_appears_only_with_multiple_procs(self, stencil_source):
        solo = simulate(compile_source(stencil_source, nprocs=1), ipsc860(1))
        multi = simulate(compile_source(stencil_source, nprocs=4), ipsc860(4))
        assert solo.comm_stats.messages == 0
        assert multi.comm_stats.messages > 0
        assert multi.totals.communication > solo.totals.communication

    def test_load_imbalance_reported(self, laplace_compiled, machine4):
        result = simulate(laplace_compiled, machine4)
        assert result.load_imbalance >= 1.0

    def test_per_line_attribution(self, laplace_compiled, machine4):
        result = simulate(laplace_compiled, machine4)
        hot_lines = [line for line, m in result.line_metrics.items() if m.total > 0]
        assert hot_lines
        stencil_lines = [line for line in hot_lines
                         if "unew(i, j)" in laplace_compiled.source.line_text(line)]
        assert stencil_lines

    def test_statements_executed_counted(self, laplace_compiled, machine4):
        result = simulate(laplace_compiled, machine4)
        assert result.statements_executed > 10


class TestFunctionalEquivalence:
    """The simulator's data plane must agree exactly with the functional evaluator."""

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_laplace_results_match_oracle(self, laplace_source, nprocs):
        compiled = compile_source(laplace_source, nprocs=nprocs)
        reference = evaluate_program(compiled.program)
        result = simulate(compiled, ipsc860(nprocs), keep_state=True)
        assert result.state.get_scalar("err") == pytest.approx(reference.scalar("err"))
        assert np.allclose(result.state.array("u").data, reference.array("u"))

    def test_reduction_value_matches(self, reduction_compiled, machine4):
        reference = evaluate_program(reduction_compiled.program)
        result = simulate(reduction_compiled, machine4, keep_state=True)
        assert result.state.get_scalar("total") == pytest.approx(reference.scalar("total"))
        assert result.state.get_scalar("total") == pytest.approx(128.0)

    def test_printed_output_matches(self, stencil_compiled, machine4):
        reference = evaluate_program(stencil_compiled.program)
        result = simulate(stencil_compiled, machine4)
        assert result.printed == reference.printed

    def test_cshift_program_matches(self, machine4):
        src = ("      program t\n      real :: a(16), b(16)\n      real :: s\n"
               "!HPF$ PROCESSORS p(4)\n"
               "!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n!HPF$ DISTRIBUTE b(BLOCK) ONTO p\n"
               "      forall (i = 1:16) a(i) = i\n      b = cshift(a, 2)\n"
               "      s = sum(b * a)\n      print *, s\n      end\n")
        compiled = compile_source(src, nprocs=4)
        reference = evaluate_program(compiled.program)
        result = simulate(compiled, machine4, keep_state=True)
        assert result.state.get_scalar("s") == pytest.approx(reference.scalar("s"))

    def test_masked_forall_matches(self, machine4):
        src = ("      program t\n      real :: u(32), w(32)\n"
               "!HPF$ PROCESSORS p(4)\n!HPF$ TEMPLATE tt(32)\n"
               "!HPF$ ALIGN u(i) WITH tt(i)\n!HPF$ ALIGN w(i) WITH tt(i)\n"
               "!HPF$ DISTRIBUTE tt(BLOCK) ONTO p\n"
               "      forall (i = 1:32) u(i) = i - 16.5\n"
               "      w = 0.0\n"
               "      forall (i = 1:32, u(i) > 0.0) w(i) = sqrt(u(i))\n"
               "      print *, sum(w)\n      end\n")
        compiled = compile_source(src, nprocs=4)
        reference = evaluate_program(compiled.program)
        result = simulate(compiled, machine4)
        assert result.printed == reference.printed

    def test_owner_element_assignment_matches(self, machine4):
        src = ("      program t\n      real :: a(16)\n"
               "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
               "      a = 0.0\n      a(1) = 5.0\n      a(16) = 7.0\n"
               "      print *, sum(a)\n      end\n")
        compiled = compile_source(src, nprocs=4)
        result = simulate(compiled, machine4, keep_state=True)
        assert result.state.array("a").data[0] == 5.0
        assert result.state.array("a").data[15] == 7.0


class TestTimingBehaviour:
    def test_stencil_communication_grows_with_boundary(self):
        src_template = ("      program t\n      integer, parameter :: n = {n}\n"
                        "      real, dimension(n, n) :: a, b\n"
                        "!HPF$ PROCESSORS p(4)\n!HPF$ TEMPLATE tt(n, n)\n"
                        "!HPF$ ALIGN a(i, j) WITH tt(i, j)\n!HPF$ ALIGN b(i, j) WITH tt(i, j)\n"
                        "!HPF$ DISTRIBUTE tt(BLOCK, *) ONTO p\n"
                        "      a = 1.0\n"
                        "      forall (i = 2:n - 1, j = 1:n) b(i, j) = a(i - 1, j) + a(i + 1, j)\n"
                        "      end\n")
        small = simulate(compile_source(src_template.format(n=32), nprocs=4), ipsc860(4))
        large = simulate(compile_source(src_template.format(n=128), nprocs=4), ipsc860(4))
        assert large.totals.communication > small.totals.communication

    def test_gather_costs_more_than_shift(self, machine4):
        shift_src = ("      program t\n      real :: a(256), b(256)\n"
                     "!HPF$ PROCESSORS p(4)\n!HPF$ TEMPLATE tt(256)\n"
                     "!HPF$ ALIGN a(i) WITH tt(i)\n!HPF$ ALIGN b(i) WITH tt(i)\n"
                     "!HPF$ DISTRIBUTE tt(BLOCK) ONTO p\n"
                     "      a = 1.0\n      forall (i = 2:255) b(i) = a(i - 1)\n      end\n")
        gather_src = ("      program t\n      real :: a(256), b(256)\n      integer :: ix(256)\n"
                      "!HPF$ PROCESSORS p(4)\n!HPF$ TEMPLATE tt(256)\n"
                      "!HPF$ ALIGN a(i) WITH tt(i)\n!HPF$ ALIGN b(i) WITH tt(i)\n"
                      "!HPF$ ALIGN ix(i) WITH tt(i)\n"
                      "!HPF$ DISTRIBUTE tt(BLOCK) ONTO p\n"
                      "      a = 1.0\n      forall (i = 1:256) ix(i) = 257 - i\n"
                      "      forall (i = 1:256) b(i) = a(ix(i))\n      end\n")
        shift_run = simulate(compile_source(shift_src, nprocs=4), machine4)
        gather_run = simulate(compile_source(gather_src, nprocs=4), machine4)
        assert gather_run.totals.communication > shift_run.totals.communication

    def test_startup_charged_once(self, stencil_compiled, machine4):
        result = simulate(stencil_compiled, machine4,
                          options=SimulatorOptions(noise=NoiseOptions(enabled=False)))
        assert result.measured_time_us > PROGRAM_STARTUP_US
