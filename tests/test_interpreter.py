"""Tests for the interpretation engine: expression costs, memory model,
metrics, the interpretation algorithm's behaviour and the SAAGs it prices."""

import pickle
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.compiler import OptimizationOptions, compile_source
from repro.compiler.spmd import NodeDo
from repro.frontend.parser import parse_expression, parse_source
from repro.interpreter import (
    InterpretationContext,
    InterpreterOptions,
    MemoryModelOptions,
    Metrics,
    build_saag,
    count_assignment,
    count_expr,
    estimate_hit_ratio,
    interpret,
    iteration_time,
    streaming_miss_ratio,
    working_set_bytes,
)
from repro.interpreter.functions import (
    price_comm_phase,
    price_comm_spec,
    price_owner_stmt,
    price_shift,
)
from repro.suite import get_entry
from repro.system import HypercubeTopology, allreduce_time, get_machine, ipsc860


class TestExpressionCost:
    def test_flop_counting(self):
        count = count_expr(parse_expression("a + b * c - d"))
        assert count.flops == pytest.approx(3.0)

    def test_divide_counted_separately(self):
        count = count_expr(parse_expression("a / b"))
        assert count.divides == 1.0 and count.flops == 0.0

    def test_array_reference_counts_memory_and_index_ops(self):
        count = count_expr(parse_expression("x(i + 1, j)"))
        assert count.mem_reads == 1.0
        assert count.int_ops > 0
        assert "x" in count.arrays_touched

    def test_elemental_intrinsic_weighted(self):
        cheap = count_expr(parse_expression("abs(x)"))
        costly = count_expr(parse_expression("exp(x)"))
        assert costly.flops > cheap.flops

    def test_power_with_integer_exponent(self):
        count = count_expr(parse_expression("x ** 2"))
        assert 0 < count.flops < 5
        general = count_expr(parse_expression("x ** 1.5"))
        assert general.flops > count.flops

    def test_assignment_counts_store(self):
        stmt = parse_source(
            "      program t\n      real :: a(8), b(8)\n      a(i) = b(i) + 1.0\n      end\n"
        ).body[0]
        count = count_assignment(stmt)
        assert count.mem_writes == 1.0
        assert count.mem_reads == 1.0

    def test_compare_and_logical(self):
        count = count_expr(parse_expression("a > b .and. c <= d"))
        assert count.compares == 2.0
        assert count.logicals == 1.0

    def test_opcount_addition(self):
        a = count_expr(parse_expression("x + y"))
        b = count_expr(parse_expression("p(i) * q(i)"))
        total = a + b
        assert total.flops == a.flops + b.flops
        assert total.arrays_touched == {"p", "q"}

    def test_iteration_time_positive_and_monotone_in_miss_rate(self):
        machine = ipsc860(4)
        count = count_expr(parse_expression("a(i) + b(i) * c(i)"))
        fast = iteration_time(count, machine.processing, machine.memory, hit_ratio=0.99)
        slow = iteration_time(count, machine.processing, machine.memory, hit_ratio=0.10)
        assert 0 < fast < slow

    def test_double_precision_costs_more(self):
        machine = ipsc860(4)
        count = count_expr(parse_expression("a(i) * b(i) + c(i)"))
        single = iteration_time(count, machine.processing, machine.memory, precision="real")
        double = iteration_time(count, machine.processing, machine.memory, precision="double")
        assert double > single


class TestMemoryModel:
    MEM = ipsc860(4).memory

    def test_in_cache_working_set_gets_high_hit_ratio(self):
        hit = estimate_hit_ratio(self.MEM, working_set_bytes(100, 2, 4), 4)
        assert hit > 0.9

    def test_streaming_working_set_lower_hit_ratio(self):
        small = estimate_hit_ratio(self.MEM, 4 * 1024, 4)
        huge = estimate_hit_ratio(self.MEM, 4 * 1024 * 1024, 4)
        assert huge < small

    def test_strided_access_misses_more(self):
        big = 1024 * 1024
        stride1 = estimate_hit_ratio(self.MEM, big, 4, stride1=True)
        strided = estimate_hit_ratio(self.MEM, big, 4, stride1=False)
        assert strided < stride1

    def test_more_arrays_more_conflicts(self):
        big = 256 * 1024
        few = estimate_hit_ratio(self.MEM, big, 4, arrays_touched=1)
        many = estimate_hit_ratio(self.MEM, big, 4, arrays_touched=6)
        assert many <= few

    def test_disabled_model_returns_default(self):
        options = MemoryModelOptions(enabled=False, default_hit_ratio=0.42)
        assert estimate_hit_ratio(self.MEM, 1e9, 4, options=options) == 0.42

    def test_streaming_miss_ratio(self):
        assert streaming_miss_ratio(4, self.MEM, stride1=True) == pytest.approx(4 / 32)
        assert streaming_miss_ratio(4, self.MEM, stride1=False) == 1.0


class TestMetrics:
    def test_metrics_arithmetic(self):
        a = Metrics(computation=10, communication=5, overhead=1)
        b = Metrics(computation=2, communication=3, overhead=4)
        total = a + b
        assert total.total == 25
        assert a.scaled(2.0).computation == 20
        assert a.total == 16


class TestInterpretationEngine:
    def test_prediction_is_positive_and_finite(self, laplace_compiled, machine4):
        result = interpret(laplace_compiled, machine4)
        assert result.predicted_time_us > 0
        assert result.total.computation > 0
        assert result.total.communication > 0

    def test_prediction_scales_with_problem_size(self, laplace_source):
        machine = ipsc860(4)
        small = interpret(compile_source(laplace_source, nprocs=4, params={"n": 32}), machine)
        large = interpret(compile_source(laplace_source, nprocs=4, params={"n": 128}), machine)
        assert large.predicted_time_us > 2 * small.predicted_time_us

    def test_computation_decreases_with_processors(self, laplace_source):
        one = interpret(compile_source(laplace_source, nprocs=1, params={"n": 64}), ipsc860(1))
        eight = interpret(compile_source(laplace_source, nprocs=8, params={"n": 64}), ipsc860(8))
        assert eight.total.computation < one.total.computation
        assert one.total.communication == pytest.approx(0.0)
        assert eight.total.communication > 0

    def test_loop_trip_count_scaling(self, laplace_source):
        machine = ipsc860(4)
        few = interpret(compile_source(laplace_source, nprocs=4,
                                       params={"n": 64, "maxiter": 2}), machine)
        many = interpret(compile_source(laplace_source, nprocs=4,
                                        params={"n": 64, "maxiter": 8}), machine)
        ratio = (many.predicted_time_us - 0) / max(few.predicted_time_us, 1)
        assert 2.0 < ratio < 4.5     # roughly 4x the per-iteration work plus constants

    def test_critical_variable_override_changes_prediction(self, laplace_compiled, machine4):
        base = interpret(laplace_compiled, machine4)
        stretched = interpret(laplace_compiled, machine4,
                              options=InterpreterOptions(overrides={"maxiter": 16.0}))
        assert stretched.predicted_time_us > base.predicted_time_us * 2

    def test_per_line_metrics_sum_close_to_total(self, laplace_compiled, machine4):
        result = interpret(laplace_compiled, machine4)
        line_total = sum(m.total for m in result.line_breakdown().values())
        assert line_total == pytest.approx(result.predicted_time_us, rel=0.05)

    def test_hottest_line_is_the_stencil(self, laplace_compiled, machine4):
        result = interpret(laplace_compiled, machine4)
        lines = result.line_breakdown()
        hottest = max(lines, key=lambda ln: lines[ln].total)
        assert "unew(i, j)" in laplace_compiled.source.line_text(hottest) or \
               "forall" in laplace_compiled.source.line_text(hottest)

    def test_breakdown_by_type(self, laplace_compiled, machine4):
        result = interpret(laplace_compiled, machine4)
        by_type = {}
        for aau in result.saag.walk():
            by_type[aau.type_name] = by_type.get(aau.type_name, Metrics()) \
                + result.metrics_for(aau.id)
        assert by_type["IterD"].computation > 0
        assert by_type["Comm"].communication > 0

    def test_every_comm_table_entry_is_priced(self, laplace_compiled, machine4):
        # pricing writes nothing into the machine-free communication table:
        # an entry's estimate is its AAU's communication in the result
        result = interpret(laplace_compiled, machine4)
        assert len(result.saag.comm_table) >= 2
        finance, options = _suite_point("finance", 1)     # a cshift on one rank
        for result in (result, interpret(finance, ipsc860(1), options=options)):
            for entry in result.saag.comm_table:
                assert result.metrics_for(entry.aau_id).communication > 0, \
                    entry.describe()

    SHIFT3 = """      program s
      real :: a(64), b(64)
!HPF$ PROCESSORS p({nprocs})
!HPF$ DISTRIBUTE a(BLOCK) ONTO p
!HPF$ ALIGN b(i) WITH a(i)
      a = 1.0
      b = cshift(a, 3)
      print *, b(1)
      end program s
"""

    OWNER = """      program owner
      real :: x(64)
!HPF$ PROCESSORS p(4)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      x = 1.0
      x(3) = x(40) + 5.0
      print *, x(3)
      end program owner
"""

    @pytest.mark.parametrize("source,nprocs", [
        (SHIFT3.format(nprocs=4), 4), (SHIFT3.format(nprocs=1), 1), (OWNER, 4),
        ("finance", 1), ("finance", 4), ("laplace_block_block", 4), ("pbs4", 8)],
        ids=["cshift3-p4", "cshift3-p1", "owner-p4", "finance-p1", "finance-p4",
             "laplace-p4", "pbs4-p8"])
    def test_every_priced_spec_has_one_entry_of_its_size(self, source, nprocs):
        if source.startswith("      program"):
            compiled, options = compile_source(source, nprocs=nprocs), InterpreterOptions()
        else:
            compiled, options = _suite_point(source, nprocs)
        machine = ipsc860(nprocs)
        result = interpret(compiled, machine, options=options)
        ctx = InterpretationContext(machine, options, nprocs)
        priced = []
        for aau in result.saag.walk():
            price, data = aau.params if isinstance(aau.params, tuple) else (None, None)
            if price is price_comm_phase:
                specs = data
            elif price is price_owner_stmt:
                specs = data[1]
            elif price is price_shift:
                specs = [data[1]] if data[1] else []
            else:
                continue
            for spec in specs:
                if price_comm_spec(spec, ctx).communication > 0:
                    priced.append((aau.id, spec.spec.kind, spec.nbytes))
        entries = [(e.aau_id, e.kind, e.bytes_per_proc) for e in result.saag.comm_table]
        assert sorted(entries) == sorted(priced)
        if source == self.SHIFT3.format(nprocs=4):
            # a three-element boundary slab of 4-byte reals
            assert entries == [(entries[0][0], "shift", 12)]
        if source == self.OWNER:
            assert result.per_line(6).communication > 0 and len(entries) == 1

    def test_branch_resolution_static(self, machine4):
        cp = compile_source(
            "      program t\n      real :: a(16)\n      real :: big\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "      big = 1.0\n"
            "      if (2 > 1) then\n        a = 1.0\n      else\n        a = 2.0\n      end if\n"
            "      end\n", nprocs=4)
        result = interpret(cp, machine4)
        assert result.predicted_time_us > 0

    def test_while_trip_estimate_option(self, machine4):
        cp = compile_source(
            "      program t\n      real :: a(16)\n      integer :: k\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "      k = 0\n      do while (k < 8)\n        a = a + 1.0\n        k = k + 1\n"
            "      end do\n      end\n", nprocs=4)
        short = interpret(cp, machine4, options=InterpreterOptions(while_trip_estimate=2))
        long = interpret(cp, machine4, options=InterpreterOptions(while_trip_estimate=20))
        assert long.predicted_time_us > short.predicted_time_us

    def test_mask_fraction_option(self, machine4):
        cp = compile_source(
            "      program t\n      real :: a(1024), b(1024)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ TEMPLATE tt(1024)\n"
            "!HPF$ ALIGN a(i) WITH tt(i)\n!HPF$ ALIGN b(i) WITH tt(i)\n"
            "!HPF$ DISTRIBUTE tt(BLOCK) ONTO p\n"
            "      forall (i = 1:1024, b(i) > 0.5) a(i) = exp(b(i))\n      end\n", nprocs=4)
        all_true = interpret(cp, machine4, options=InterpreterOptions(mask_true_fraction=1.0))
        half_true = interpret(cp, machine4, options=InterpreterOptions(mask_true_fraction=0.5))
        assert all_true.predicted_time_us > half_true.predicted_time_us

    def test_subtree_metrics_query(self, laplace_compiled, machine4):
        result = interpret(laplace_compiled, machine4)
        loop_aau = next(a for a in result.saag.walk()
                        if isinstance(a.spmd_node, NodeDo))
        subtree = result.subtree_metrics(loop_aau)
        assert 0 < subtree.total <= result.predicted_time_us

    def test_wall_clock_recorded(self, laplace_compiled, machine4):
        result = interpret(laplace_compiled, machine4)
        assert result.wall_clock_seconds > 0

    def test_wall_clock_counts_the_abstraction_parse_it_runs(self, laplace_compiled,
                                                             machine4, monkeypatch):
        """``wall_clock_seconds`` covers the abstraction parse and the
        pricing when ``interpret`` builds the SAAG, and only the pricing of
        a prebuilt SAAG."""
        from repro.interpreter import engine

        def slowed(function, seconds):
            def slow(*args, **kwargs):
                time.sleep(seconds)
                return function(*args, **kwargs)
            return slow

        saag = build_saag(laplace_compiled)
        monkeypatch.setattr(engine, "build_saag", slowed(engine.build_saag, 0.05))
        assert interpret(laplace_compiled, machine4).wall_clock_seconds >= 0.05
        assert interpret(laplace_compiled, machine4, saag=saag).wall_clock_seconds < 0.05


def _suite_point(key: str, nprocs: int):
    """A suite app compiled at its first size, and its interpreter options."""
    entry = get_entry(key)
    size = entry.sizes[0]
    return (compile_source(entry.source, name=key, nprocs=nprocs,
                           params=entry.params_for(size)),
            entry.interpreter_options(size))


def _exact(result) -> tuple:
    """Everything a price produces, as exact floats."""
    total = result.total
    return (result.predicted_time_us, total.computation, total.communication,
            total.overhead, total.balanced_computation,
            sorted((line, m.computation, m.communication, m.overhead,
                    m.balanced_computation)
                   for line, m in result.line_breakdown().items()))


class TestSAAGPricing:
    """One machine-free SAAG per (compiled program, options) prices every
    machine exactly as a fresh interpretation does, and pricing only reads
    it."""

    MACHINES = ("ipsc860", "paragon", "cm5", "modern-cluster")

    @pytest.fixture(scope="class")
    def nbody(self):
        entry = get_entry("nbody")
        size = entry.sizes[0]
        return (compile_source(entry.source, name=entry.key, nprocs=4,
                               params=entry.params_for(size)),
                entry.interpreter_options(size))

    def test_one_saag_prices_every_machine_exactly(self, laplace_compiled, nbody):
        for compiled, options in ((laplace_compiled, None), nbody):
            saag = build_saag(compiled, options)
            for name in self.MACHINES:
                machine = get_machine(name, compiled.nprocs)
                shared = interpret(compiled, machine, options=options, saag=saag)
                assert shared.saag is saag
                assert _exact(shared) == _exact(
                    interpret(compiled, machine, options=options)), name

    def test_pricing_writes_nothing_into_the_saag(self, nbody):
        compiled, options = nbody
        saag = build_saag(compiled, options)
        before = pickle.dumps(saag)
        for name in self.MACHINES:
            interpret(compiled, get_machine(name, 4), options=options, saag=saag)
        assert pickle.dumps(saag) == before

    def test_a_saag_serves_only_its_program_and_overrides(self, laplace_compiled,
                                                          stencil_compiled):
        saag = build_saag(laplace_compiled, InterpreterOptions(overrides={"maxiter": 3}))
        machine = ipsc860(4)
        for options in (None, InterpreterOptions(overrides={"maxiter": 4})):
            with pytest.raises(ValueError, match="other interpreter options"):
                interpret(laplace_compiled, machine, options=options, saag=saag)
        with pytest.raises(ValueError, match="another compiled program"):
            interpret(stencil_compiled, machine,
                      options=InterpreterOptions(overrides={"maxiter": 3}), saag=saag)
        # price-time fields are read from the price's own options
        priced = InterpreterOptions(overrides={"maxiter": 3}, mask_true_fraction=0.5,
                                    while_trip_estimate=2.0)
        assert _exact(interpret(laplace_compiled, machine, options=priced,
                                saag=saag)) \
            == _exact(interpret(laplace_compiled, machine, options=priced))

    def test_one_saag_prices_every_while_trip_estimate(self):
        entry = get_entry("lfk2")
        size = entry.sizes[0]
        compiled = compile_source(entry.source, name=entry.key, nprocs=4,
                                  params=entry.params_for(size))
        hinted = entry.interpreter_options(size)
        saag = build_saag(compiled, hinted)
        machine = ipsc860(4)
        prices = []
        for trips in (hinted.while_trip_estimate, 2.0 * hinted.while_trip_estimate):
            options = InterpreterOptions(overrides=dict(hinted.overrides),
                                         while_trip_estimate=trips)
            shared = _exact(interpret(compiled, machine, options=options, saag=saag))
            assert shared == _exact(interpret(compiled, machine, options=options))
            prices.append(shared[0])
        assert prices[1] > prices[0]

    def test_a_saag_keeps_its_own_copy_of_the_overrides(self, laplace_compiled):
        options = InterpreterOptions(overrides={"maxiter": 3})
        saag = build_saag(laplace_compiled, options)
        options.overrides["maxiter"] = 5
        with pytest.raises(ValueError):
            interpret(laplace_compiled, ipsc860(4), options=options, saag=saag)
        interpret(laplace_compiled, ipsc860(4),
                  options=InterpreterOptions(overrides={"maxiter": 3}), saag=saag)

    def test_threads_pricing_one_saag_get_the_serial_results(self, nbody):
        compiled, options = nbody
        saag = build_saag(compiled, options)
        machines = [get_machine(name, 4) for name in ("ipsc860", "paragon")]

        def price(machine):
            return _exact(interpret(compiled, machine, options=options, saag=saag))

        serial = [price(m) for m in machines]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(price, m) for m in machines * 16]
                threaded = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 16


class TestPricingFromTheCompiledProgram:
    """The interpretation functions read element size, precision and access
    stride from the compiled program, not from machine annotations."""

    @pytest.mark.parametrize("reordering,computation", [
        (True, 50072.4895), (False, 66761.662)])
    def test_loop_reordering_sets_stride1_access(self, reordering, computation):
        entry = get_entry("laplace_block_block")
        compiled = compile_source(
            entry.source, name=entry.key, nprocs=4, params=entry.params_for(64),
            optimizations=OptimizationOptions(loop_reordering=reordering))
        result = interpret(compiled, ipsc860(4), options=entry.interpreter_options(64))
        assert result.total.computation == pytest.approx(computation, rel=1e-12)

    PRECISION = """      program prec
      {type} :: a(1024), b(1024), s
!HPF$ PROCESSORS p(4)
!HPF$ DISTRIBUTE a(BLOCK) ONTO p
!HPF$ ALIGN b(i) WITH a(i)
      b = 1.0
      forall (i = 1:1024) a(i) = 2.0 * b(i) + 1.0
      s = sum(a * b)
      print *, s
      end program prec
"""

    @pytest.mark.parametrize("type_name,forall,reduction", [
        ("real", 206.464, 127.04), ("double precision", 242.304, 162.88)])
    def test_home_array_precision_prices_loops_and_reductions(
            self, type_name, forall, reduction):
        result = repro.predict(self.PRECISION.format(type=type_name), nprocs=4,
                               machine="ipsc860")
        lines = result.line_breakdown()
        assert lines[7].computation == pytest.approx(forall, rel=1e-12)
        assert lines[8].computation == pytest.approx(reduction, rel=1e-12)

    SHIFT = """      program shift
      real :: x(64, 64), y(64, 64)
!HPF$ PROCESSORS p(4)
!HPF$ DISTRIBUTE x(BLOCK, *) ONTO p
!HPF$ ALIGN y(i, j) WITH x(i, j)
      x = 1.0
      y = cshift(x, 1, {dim})
      print *, y(1, 1)
      end program shift
"""

    @pytest.mark.parametrize("dim,communication", [(2, 0.0), (1, 337.92)],
                             ids=["collapsed", "distributed"])
    def test_cshift_exchanges_only_along_a_distributed_axis(self, dim, communication):
        result = repro.predict(self.SHIFT.format(dim=dim), nprocs=4, machine="ipsc860")
        line = result.line_breakdown()[7]
        # every rank copies its 16 x 64 block either way
        assert line.computation == pytest.approx(158.72, rel=1e-12)
        assert line.communication == pytest.approx(communication, rel=1e-12)

    OWNER = """      program owner
      real :: x(64)
!HPF$ PROCESSORS p(4)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      x = 1.0
      x(3) = x(40) + 5.0
      print *, x(3)
      end program owner
"""

    @pytest.mark.parametrize("nprocs", [2, 4, 8])
    def test_owner_computes_statement_matches_the_simulator(self, nprocs):
        predicted = repro.predict(self.OWNER, nprocs=nprocs, machine="ipsc860")
        measured = repro.measure(self.OWNER, nprocs=nprocs, machine="ipsc860")
        line = predicted.line_breakdown()[6]
        assert line.total == pytest.approx(measured.line_metrics[6].total, rel=0.02)
        # only the owner computes, so the mean rank carries 1/p of it
        assert line.balanced_computation == pytest.approx(line.computation / nprocs,
                                                          rel=1e-12)


class TestIntrinsicCosts:
    """The HPF intrinsic library as the interpretation functions price it
    (§4.4): a shift's block copy and boundary exchange, a reduction's local
    sweep and its combine."""

    SHIFT = """      program shift
      real :: x(64, 64), y(64, 64)
!HPF$ PROCESSORS p({nprocs})
!HPF$ DISTRIBUTE x(BLOCK, *) ONTO p
!HPF$ ALIGN y(i, j) WITH x(i, j)
      x = 1.0
      y = cshift(x, 1, 1)
      print *, y(1, 1)
      end program shift
"""

    REDUCTION = """      program red
      real :: a({n}), s
      integer :: k
!HPF$ PROCESSORS p({nprocs})
!HPF$ DISTRIBUTE a(BLOCK) ONTO p
      forall (i = 1:{n}) a(i) = real(i)
      s = sum(a)
      k = maxloc(a)
      print *, s, k
      end program red
"""

    def _reduction_lines(self, n, nprocs):
        """The predicted ``sum`` and ``maxloc`` lines of REDUCTION."""
        result = repro.predict(self.REDUCTION.format(n=n, nprocs=nprocs),
                               nprocs=nprocs, machine="ipsc860")
        lines = result.line_breakdown()
        return lines[7], lines[8]

    def test_cshift_local_only_when_single_proc(self):
        local, distributed = (
            repro.predict(self.SHIFT.format(nprocs=p), nprocs=p,
                          machine="ipsc860").line_breakdown()[7]
            for p in (1, 4))
        assert local.communication == 0.0
        # one rank copies the whole array, each of four ranks a quarter of it
        assert local.computation == pytest.approx(4 * distributed.computation, rel=1e-12)
        assert distributed.communication >= ipsc860(4).communication.startup_latency

    def test_reduction_cost_scales_with_local_elements(self):
        small, _ = self._reduction_lines(256, 8)
        large, _ = self._reduction_lines(4096, 8)
        assert large.computation > small.computation
        # the combine carries one scalar whatever the array's size
        assert large.communication == small.communication

    def test_reduction_cost_includes_collective(self):
        serial, _ = self._reduction_lines(1024, 1)
        parallel, _ = self._reduction_lines(1024, 8)
        assert serial.communication == 0.0
        machine = ipsc860(8)
        combine = allreduce_time(machine.communication, 4, 8,
                                 combine_time_per_stage=machine.processing.flop_time_sp,
                                 topology=HypercubeTopology(8))
        assert parallel.communication == pytest.approx(combine, rel=1e-12)

    def test_maxloc_costs_at_least_as_much_as_sum(self):
        total, location = self._reduction_lines(1024, 8)
        assert location.computation >= total.computation > 0.0
        assert location.communication > 0.0
