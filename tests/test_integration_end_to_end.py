"""End-to-end integration tests: the full predict-vs-measure loop on whole
applications, the public package API, and the headline reproduction claims."""

import pytest

import repro
from repro import compile_source, interpret, ipsc860, measure, predict, simulate
from repro.functional import evaluate_program
from repro.suite import get_entry


class TestPublicAPI:
    def test_version_and_exports(self):
        assert repro.__version__
        # the package exports what the docs, examples and tests reach
        # through it; everything else is imported from its subpackage
        assert sorted(repro.__all__) == sorted([
            "__version__", "obs", "faults", "stages", "serve",
            "ReproError", "compile_source", "interpret", "simulate",
            "SimulatorOptions", "ipsc860", "get_machine", "register_machine",
            "machine_names", "QueryInterface", "generate_trace",
            "program_profile", "render_profile", "ResultStore", "advise",
            "get_entry", "predict", "measure"])
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_predict_and_measure_helpers(self, stencil_source):
        estimate = predict(stencil_source, nprocs=4)
        measured = measure(stencil_source, nprocs=4)
        assert estimate.predicted_time_us > 0
        assert measured.measured_time_us > 0
        error = abs(estimate.predicted_time_us - measured.measured_time_us) \
            / measured.measured_time_us
        assert error < 0.25

    def test_errors_are_catchable_as_repro_error(self):
        with pytest.raises(repro.ReproError):
            compile_source("      program t\n      this is not fortran\n      end\n")


class TestEndToEndAccuracy:
    """The core claim of the paper on representative applications."""

    @pytest.mark.parametrize("key, size", [
        ("lfk1", 1024),
        ("lfk22", 1024),
        ("pbs4", 1024),
        ("pi", 1024),
        ("finance", 256),
        ("laplace_block_star", 64),
    ])
    def test_prediction_error_within_paper_band(self, key, size):
        entry = get_entry(key)
        errors = []
        for nprocs in (1, 4, 8):
            compiled = entry.compile(size, nprocs)
            machine = ipsc860(nprocs)
            est = interpret(compiled, machine, options=entry.interpreter_options(size))
            sim = simulate(compiled, machine)
            errors.append(abs(est.predicted_time_us - sim.measured_time_us)
                          / sim.measured_time_us * 100.0)
        # §5.1: worst case within ~20 %, typical well below 10 %
        assert max(errors) < 20.0, f"{key}: {errors}"
        assert min(errors) < 6.0

    def test_speedup_prediction_tracks_measurement(self):
        """The estimated parallel speedup follows the measured one (design tuning use)."""
        entry = get_entry("lfk22")
        size = 4096
        est_times, sim_times = {}, {}
        for nprocs in (1, 8):
            compiled = entry.compile(size, nprocs)
            machine = ipsc860(nprocs)
            est_times[nprocs] = interpret(compiled, machine).predicted_time_us
            sim_times[nprocs] = simulate(compiled, machine).measured_time_us
        est_speedup = est_times[1] / est_times[8]
        sim_speedup = sim_times[1] / sim_times[8]
        assert est_speedup == pytest.approx(sim_speedup, rel=0.2)
        # speedup can be slightly superlinear (the per-node working set drops
        # into the 8 KB D-cache), so allow a little headroom above 8
        assert 2.0 < sim_speedup <= 10.0

    def test_simulated_results_match_functional_oracle_for_suite_sample(self):
        for key, size in (("lfk3", 128), ("pbs2", 256), ("finance", 64)):
            entry = get_entry(key)
            compiled = entry.compile(size, nprocs=4)
            reference = evaluate_program(compiled.program,
                                         params=entry.params_for(size))
            simulated = simulate(compiled, ipsc860(4))
            assert simulated.printed == reference.printed, key

    def test_interpretation_is_much_faster_than_simulation(self):
        """Cost-effectiveness: the static estimate costs far less wall-clock time
        than executing the program (the simulator stands in for the real machine)."""
        entry = get_entry("laplace_block_block")
        compiled = entry.compile(128, nprocs=8)
        machine = ipsc860(8)
        est = interpret(compiled, machine)
        sim = simulate(compiled, machine)
        assert est.wall_clock_seconds < sim.wall_clock_seconds

    def test_directive_choice_visible_in_estimates(self):
        """Interpreted times expose the comm cost difference between distributions."""
        machine = ipsc860(4)
        times = {}
        for variant in ("block_block", "block_star"):
            entry = get_entry(f"laplace_{variant}")
            compiled = entry.compile(64, nprocs=4)
            times[variant] = interpret(compiled, machine).total.communication
        assert times["block_block"] > times["block_star"]
