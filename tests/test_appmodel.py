"""Tests for the Application Module: AAU/AAG/SAAG, comm table, critical
variables, as the abstraction parse builds them."""

import copy

import pytest

from repro.appmodel import (
    AAUType,
    identify_critical_variables,
    resolve_critical_variables,
)
from repro.compiler import compile_source
from repro.compiler.spmd import NodeDo, SPMDNode
from repro.frontend.parser import parse_source
from repro.frontend.symbols import SymbolTable
from repro.interpreter import build_saag, interpret
from repro.system import get_machine, machine_names


class TestAAGConstruction:
    def test_root_is_program_seq(self, laplace_compiled):
        aag = build_saag(laplace_compiled).aag
        assert aag.root.type is AAUType.SEQ
        assert "laplace" in aag.root.name

    def test_aau_ids_are_unique(self, laplace_compiled):
        aag = build_saag(laplace_compiled).aag
        ids = [aau.id for aau in aag.walk()]
        assert len(ids) == len(set(ids))

    def test_forall_becomes_iter_aau(self, laplace_compiled):
        aag = build_saag(laplace_compiled).aag
        iters = aag.by_type(AAUType.ITER)
        assert len(iters) >= 4

    def test_comm_phase_becomes_comm_aau(self, laplace_compiled):
        aag = build_saag(laplace_compiled).aag
        assert aag.by_type(AAUType.COMM)

    def test_reduction_becomes_reduce_aau(self, reduction_compiled):
        aag = build_saag(reduction_compiled).aag
        reduces = aag.by_type(AAUType.REDUCE)
        assert len(reduces) == 1
        assert reduces[0].spmd_node.op == "sum"

    def test_masked_forall_gets_condtd_child(self):
        cp = compile_source(
            "      program t\n      real :: a(16), b(16)\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ TEMPLATE tt(16)\n"
            "!HPF$ ALIGN a(i) WITH tt(i)\n!HPF$ ALIGN b(i) WITH tt(i)\n"
            "!HPF$ DISTRIBUTE tt(BLOCK) ONTO p\n"
            "      forall (i = 1:16, b(i) > 0.0) a(i) = 1.0 / b(i)\n      end\n",
            nprocs=4)
        aag = build_saag(cp).aag
        iters = aag.by_type(AAUType.ITER)
        masked = [a for a in iters if getattr(a.spmd_node, "mask", None) is not None]
        assert masked
        assert any(child.type is AAUType.COND for child in masked[0].children)

    def test_serial_do_nests_children(self, laplace_compiled):
        aag = build_saag(laplace_compiled).aag
        serial_loops = [a for a in aag.by_type(AAUType.ITER)
                        if isinstance(a.spmd_node, NodeDo)]
        assert serial_loops
        assert serial_loops[0].children

    def test_line_index(self, laplace_compiled):
        aag = build_saag(laplace_compiled).aag
        stencil_line = next(a.line for a in aag.by_type(AAUType.ITER)
                            if getattr(a.spmd_node, "home_array", None) == "unew")
        assert aag.at_line(stencil_line)

    def test_type_short_names(self):
        assert AAUType.ITER.short() == "IterD"
        assert AAUType.COND.short() == "CondtD"
        assert AAUType.COMM.short() == "Comm"

    def test_describe_is_printable(self, laplace_compiled):
        aag = build_saag(laplace_compiled).aag
        text = aag.describe()
        assert "AAG" in text and "IterD" in text

    def test_unknown_spmd_node_raises(self, laplace_source):
        compiled = compile_source(laplace_source, name="laplace", nprocs=4)
        compiled.spmd.nodes.append(SPMDNode(line=1))
        with pytest.raises(TypeError, match="cannot abstract SPMD node SPMDNode"):
            build_saag(compiled)


class TestSAAG:
    def test_comm_table_populated(self, laplace_compiled):
        saag = build_saag(laplace_compiled)
        assert len(saag.comm_table) >= 2
        kinds = {e.kind for e in saag.comm_table}
        assert "shift" in kinds and "reduce" in kinds

    def test_comm_table_sizes_positive(self, laplace_compiled):
        saag = build_saag(laplace_compiled)
        for entry in saag.comm_table:
            assert entry.elements_per_proc >= 1.0
            assert entry.bytes_per_proc >= entry.element_size or entry.kind == "reduce"

    def test_comm_table_for_aau_lookup(self, laplace_compiled):
        saag = build_saag(laplace_compiled)
        entry = saag.comm_table.entries[0]
        assert entry in saag.comm_table.for_aau(entry.aau_id)

    def test_sync_edges_connect_comm_aaus(self, laplace_compiled):
        saag = build_saag(laplace_compiled)
        assert saag.edges
        for edge in saag.edges:
            assert saag.find(edge.source_id) is not None
            assert saag.find(edge.target_id) is not None

    def test_reduce_edge_present(self, reduction_compiled):
        saag = build_saag(reduction_compiled)
        assert any(e.kind == "reduce" for e in saag.edges)

    def test_describe_includes_tables(self, laplace_compiled):
        saag = build_saag(laplace_compiled)
        text = saag.describe()
        assert "communication table" in text
        assert "critical variables" in text


class TestCriticalVariables:
    def test_loop_limits_identified(self, laplace_compiled):
        report = identify_critical_variables(laplace_compiled.normalized)
        assert "n" in report
        assert "maxiter" in report

    def test_parameters_resolved(self, laplace_compiled):
        report = resolve_critical_variables(
            laplace_compiled.normalized, laplace_compiled.symtable,
            base_env=laplace_compiled.mapping.env)
        assert report.get("n").value == 32
        assert report.get("n").resolution == "parameter"
        assert not report.unresolved() or all(v.name not in ("n", "maxiter")
                                              for v in report.unresolved())

    def test_user_override_wins(self, laplace_compiled):
        report = resolve_critical_variables(
            laplace_compiled.normalized, laplace_compiled.symtable,
            overrides={"n": 128}, base_env=laplace_compiled.mapping.env)
        assert report.get("n").value == 128
        assert report.get("n").resolution == "user"

    def test_traced_simple_definition(self):
        program = parse_source(
            "      program t\n      real :: a(64)\n      integer :: m\n"
            "      m = 10\n      forall (i = 1:m) a(i) = 0.0\n      end\n")
        table = SymbolTable.from_program(program)
        report = resolve_critical_variables(program, table)
        assert report.get("m").value == 10
        assert report.get("m").resolution == "traced"

    def test_unresolved_variable_reported(self):
        program = parse_source(
            "      program t\n      real :: a(64)\n      integer :: m\n"
            "      do while (m > 0)\n        m = m - 1\n      end do\n      end\n")
        table = SymbolTable.from_program(program)
        report = resolve_critical_variables(program, table)
        # m is loop-carried; it cannot be statically resolved (init value unknown)
        assert "m" in report

    def test_mask_and_condition_roles(self):
        program = parse_source(
            "      program t\n      real :: a(8)\n      real :: eps\n"
            "      forall (i = 1:8, a(i) > eps) a(i) = 0.0\n"
            "      if (eps > 0.0) then\n        eps = 0.0\n      end if\n      end\n")
        report = identify_critical_variables(program)
        roles = set(report.get("eps").roles)
        assert "forall mask" in roles and "branch condition" in roles

    def test_resolved_env_and_describe(self, laplace_compiled):
        report = resolve_critical_variables(
            laplace_compiled.normalized, laplace_compiled.symtable,
            base_env=laplace_compiled.mapping.env)
        env = report.resolved_env()
        assert env["n"] == 32
        assert "critical variables" in report.describe()


class TestSAAGIsMachineFree:
    """Pricing writes nothing machine-specific into the SAAG, so one SAAG
    built from a compiled program prices every machine."""

    def test_one_saag_prices_every_machine(self, laplace_compiled):
        saag = build_saag(laplace_compiled)
        for name in machine_names():
            machine = get_machine(name, nprocs=4)
            shared = interpret(laplace_compiled, machine, saag=saag)
            assert shared.saag is saag, name
            fresh = interpret(laplace_compiled, machine)
            assert shared.line_breakdown() == fresh.line_breakdown(), name

    def test_pricing_leaves_the_aau_params_unchanged(self, laplace_compiled):
        saag = build_saag(laplace_compiled)
        before = {aau.id: copy.deepcopy(aau.params) for aau in saag.walk()}
        assert any(params is not None for params in before.values())
        entries = copy.deepcopy(saag.comm_table.entries)
        assert entries
        for name in ("ipsc860", "paragon"):
            interpret(laplace_compiled, get_machine(name, nprocs=4), saag=saag)
        assert {aau.id: aau.params for aau in saag.walk()} == before
        assert saag.comm_table.entries == entries


class TestAAGByType:
    def test_aag_type_query(self):
        cp = compile_source(
            "      program t\n      real :: a(16)\n      real :: s\n"
            "!HPF$ PROCESSORS p(4)\n!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
            "      a = 1.0\n      s = sum(a)\n      print *, s\n      end\n", nprocs=4)
        saag = build_saag(cp)
        types = {aau.type for aau in saag.walk()}
        assert {AAUType.SEQ, AAUType.ITER, AAUType.REDUCE, AAUType.COMM} <= types
