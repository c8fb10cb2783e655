"""The simulator's data plane: live runs record a tape, later runs replay it.

A replayed simulation must equal a live one in every simulated number, on
every suite app, partition size, machine and engine; a tape must never be
replayed into a run that asks different questions; and control flow
(EXIT, CYCLE, STOP) must leave the simulated data plane where the
functional evaluator leaves it, live and replayed.
"""

from dataclasses import replace

import pytest

import repro
from repro import stages
from repro.compiler import compile_source
from repro.frontend.errors import EvaluationError, SimulationError
from repro.functional import evaluate_program
from repro.simulator import SimulatorOptions, dataplane, simulate
from repro.suite import all_entries
from repro.system import get_machine

PROC_COUNTS = (1, 2, 3, 4, 8)
MACHINES = ("ipsc860", "paragon", "modern-cluster")

#: programs that read ``number_of_processors`` in a statement, only through
#: a PARAMETER, or only in a declared shape; name -> (source, printed s at p)
NPROCS_SOURCES = {
    "statement": ("""
      program width
      integer, parameter :: n = 8
      real, dimension(n) :: x
      real :: s
!HPF$ PROCESSORS p(number_of_processors)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      s = number_of_processors
      forall (i = 1:n) x(i) = s * i
      print *, s
      end program width
""", lambda p: p),
    "parameter": ("""
      program decl
      integer, parameter :: np = number_of_processors
      integer, parameter :: n = 8
      real, dimension(n) :: x
      real :: s
      integer :: k
!HPF$ PROCESSORS p(2)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      s = np
      do k = 1, np
        s = s + 1.0
      end do
      forall (i = 1:n) x(i) = s * i
      print *, s
      end program decl
""", lambda p: 2 * p),
    "dimension": ("""
      program part
      integer, parameter :: n = 8
      real, dimension(n) :: x
      real, dimension(number_of_processors) :: part
      real :: s
!HPF$ PROCESSORS p(2)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      part = 1.0
      s = sum(part)
      forall (i = 1:n) x(i) = s * i
      print *, s
      end program part
""", lambda p: p),
}

CONTROL_SOURCE = """
      program ctl
      integer, parameter :: n = 16
      real, dimension(n) :: x
      real :: s
      integer :: k
!HPF$ PROCESSORS p(2)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      s = 0.0
      {body}
      forall (i = 1:n) x(i) = s * i
      print *, s
      end program ctl
"""

#: loop bodies whose EXIT / CYCLE / STOP the simulator used to step over;
#: name -> (body, final s)
CONTROL_BODIES = {
    "exit": ("""do k = 1, 10
        s = s + 1.0
        if (s > 3.0) exit
      end do""", 4.0),
    "cycle": ("""do k = 1, 10
        if (k > 3) cycle
        s = s + 1.0
      end do""", 3.0),
    "stop": ("""do k = 1, 5
        s = s + 1.0
        if (s > 1.0) stop
      end do""", 2.0),
    "exit_while": ("""do while (s < 100.0)
        s = s + 1.0
        if (s > 3.0) exit
      end do""", 4.0),
    "cycle_while": ("""do while (s < 6.0)
        s = s + 1.0
        if (s > 2.0) cycle
        x(1) = s
      end do""", 6.0),
}


@pytest.fixture(autouse=True)
def cold_stages():
    stages.clear_stage_caches()
    yield
    stages.clear_stage_caches()


def _key(compiled, options=None, params=None):
    options = options or SimulatorOptions()
    return stages.dataplane_stage_key(
        compiled, dataplane.plane_env(compiled, params),
        options.max_while_iterations)


def _outputs(result) -> tuple:
    """Every simulated number and every data-plane output of one run."""
    def metrics(m):
        return (m.computation, m.communication, m.overhead,
                m.balanced_computation)
    return (
        result.measured_time_us,
        result.per_rank_us,
        metrics(result.totals),
        [(line, metrics(m)) for line, m in result.line_metrics.items()],
        (result.comm_stats.messages, result.comm_stats.bytes,
         result.comm_stats.operations),
        result.statements_executed,
        result.printed,
        result.array_checksum,
    )


class TestReplayEqualsLive:
    def test_suite_apps_on_every_p_machine_and_engine(self):
        runs = [(machine, "vector") for machine in MACHINES]
        runs.append(("ipsc860", "loop"))
        for key, entry in sorted(all_entries().items()):
            size = entry.sizes[0]
            for nprocs in PROC_COUNTS:
                compiled = stages.compile_cached(
                    entry.source, name=entry.key, nprocs=nprocs,
                    params=entry.params_for(size))
                for machine_name, engine in runs:
                    machine = get_machine(machine_name, nprocs)
                    options = SimulatorOptions(engine=engine)
                    live = simulate(compiled, machine, options=options,
                                    keep_state=True)
                    assert stages.dataplane_tape(_key(compiled)) is not None
                    replayed = simulate(compiled, machine, options=options)
                    assert replayed.state is None
                    assert _outputs(replayed) == _outputs(live), \
                        (key, nprocs, machine_name, engine)
            # one tape per program and parameters: p, machine and engine
            # all replay it
            assert stages.stage_cache_sizes()["dataplane"] == 1, key
            stages.clear_stage_caches()

    def test_simulate_params_are_part_of_the_key(self, laplace_compiled,
                                                 machine4):
        short = simulate(laplace_compiled, machine4, params={"maxiter": 2})
        full = simulate(laplace_compiled, machine4)
        assert stages.stage_cache_sizes()["dataplane"] == 2
        assert short.statements_executed < full.statements_executed
        assert simulate(laplace_compiled, machine4,
                        params={"maxiter": 2}).per_rank_us == short.per_rank_us


class TestEdgeCases:
    @pytest.mark.parametrize("where", sorted(NPROCS_SOURCES))
    def test_a_program_reading_nprocs_gets_one_tape_per_p(self, where):
        source, expected = NPROCS_SOURCES[where]
        results = {p: repro.measure(source, nprocs=p) for p in (2, 4)}
        assert stages.stage_cache_sizes()["dataplane"] == 2
        for p, result in results.items():
            assert result.printed == [str(expected(p))]
        assert results[2].array_checksum != results[4].array_checksum
        for p, result in results.items():
            replayed = repro.measure(source, nprocs=p)
            assert replayed.printed == result.printed
            assert replayed.array_checksum == result.array_checksum

    def test_nprocs_stays_out_of_the_key_of_programs_that_do_not_read_it(
            self, laplace_source):
        keys = {_key(compile_source(laplace_source, nprocs=p))
                for p in (1, 2, 4)}
        assert len(keys) == 1

    @pytest.mark.parametrize("tamper", ["kind", "origin", "short", "long"])
    def test_a_tampered_tape_raises(self, laplace_compiled, machine4, tamper):
        simulate(laplace_compiled, machine4)
        key = _key(laplace_compiled)
        tape = stages.dataplane_tape(key)
        answers = list(tape.answers)
        kind, origin, value = answers[3]
        if tamper == "kind":
            answers[3] = ("shift", origin, value)
        elif tamper == "origin":
            answers[3] = (kind, origin + 1, value)
        elif tamper == "short":
            answers.pop()
        else:
            answers.append(answers[-1])
        stages.store_dataplane_tape(key, replace(tape, answers=tuple(answers)))
        with pytest.raises(SimulationError, match="data-plane tape"):
            simulate(laplace_compiled, machine4)

    def test_an_out_of_range_subscript_stores_no_tape(self, machine4):
        compiled = compile_source("""
      program oob
      integer, parameter :: n = 8
      real, dimension(n) :: x
      integer :: k
!HPF$ PROCESSORS p(4)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      do k = 1, n + 1
        x(k) = 1.0
      end do
      end program oob
""", nprocs=4)
        with pytest.raises(EvaluationError):
            simulate(compiled, machine4)
        assert stages.stage_cache_sizes()["dataplane"] == 0

    def test_the_while_limit_stores_no_tape(self, machine4):
        compiled = compile_source(CONTROL_SOURCE.format(body="""do while (s < 100.0)
        s = s + 1.0
      end do"""), nprocs=4)
        with pytest.raises(SimulationError, match="iteration limit"):
            simulate(compiled, machine4,
                     options=SimulatorOptions(max_while_iterations=10))
        assert stages.stage_cache_sizes()["dataplane"] == 0
        # the limit is part of the key: a run under the default records
        simulate(compiled, machine4)
        assert stages.stage_cache_sizes()["dataplane"] == 1

    def test_a_tape_over_the_byte_cap_is_not_stored(self, laplace_compiled,
                                                   machine4, monkeypatch):
        monkeypatch.setattr(dataplane, "TAPE_BYTE_CAP", 1024)
        live = simulate(laplace_compiled, machine4)
        assert stages.stage_cache_sizes()["dataplane"] == 0
        monkeypatch.undo()
        assert simulate(laplace_compiled, machine4).per_rank_us \
            == live.per_rank_us

    def test_keep_state_runs_live_when_a_tape_exists(self, reduction_compiled,
                                                     machine4):
        simulate(reduction_compiled, machine4)
        assert stages.stage_cache_sizes()["dataplane"] == 1
        result = simulate(reduction_compiled, machine4, keep_state=True)
        assert result.state is not None
        assert result.state.get_scalar("total") == pytest.approx(128.0)
        assert result.array_checksum == result.state.checksum()

    def test_clear_stage_caches_empties_the_stage(self, laplace_compiled,
                                                  machine4):
        simulate(laplace_compiled, machine4)
        assert stages.stage_cache_sizes()["dataplane"] == 1
        stages.clear_stage_caches()
        assert stages.stage_cache_sizes()["dataplane"] == 0
        assert stages.dataplane_tape(_key(laplace_compiled)) is None


class TestControlFlow:
    @pytest.mark.parametrize("name", sorted(CONTROL_BODIES))
    @pytest.mark.parametrize("engine", ["vector", "loop"])
    def test_matches_the_functional_evaluator(self, name, engine, machine4):
        body, final = CONTROL_BODIES[name]
        compiled = compile_source(CONTROL_SOURCE.format(body=body), nprocs=4)
        reference = evaluate_program(compiled.program)
        assert reference.scalar("s") == final
        options = SimulatorOptions(engine=engine)
        live = simulate(compiled, machine4, options=options, keep_state=True)
        assert live.state.get_scalar("s") == final
        assert live.state.stopped == reference.state.stopped
        assert stages.dataplane_tape(_key(compiled)) is not None
        replayed = simulate(compiled, machine4, options=options)
        for result in (live, replayed):
            assert result.printed == reference.printed
            assert result.array_checksum == reference.state.checksum()
        assert _outputs(replayed) == _outputs(live)

    def test_exit_still_charges_its_branch(self, machine4):
        exits = compile_source(CONTROL_SOURCE.format(
            body=CONTROL_BODIES["exit"][0]), nprocs=4)
        result = simulate(exits, machine4)
        exit_line = next(node.line for node in exits.spmd.walk()
                         if type(node).__name__ == "SerialStmt"
                         and "ExitStmt" in node.label)
        # the IF on the EXIT's line is tested four times; EXIT runs once
        proc = machine4.processing
        assert result.line_metrics[exit_line].overhead == pytest.approx(
            4 * proc.conditional_overhead + proc.branch_time)
