"""Pinned measure-mode outputs for the whole benchmark suite.

The simulator stands in for the measured machine, so its outputs are the
"measured" column of every accuracy figure.  This test hashes them for
every suite application at its first paper size and p in {1, 3, 8} on the
iPSC/860, with the vector engine: the quantised total, each rank's clock
(exact, as ``float.hex``), the data-plane checksum and the message and byte
counts.  Any change to the node cost model, the noise deviates, the network
or the data plane moves the digest, so a change that claims to keep the
simulator's numbers must leave it as it is.

p=3 is deliberate: a non-power-of-two partition exercises the uneven BLOCK
split and the partition-safe hypercube routes.

A second digest pins the same fields over :data:`SCALE_SCENARIOS`: larger
partitions on every topology kind (contended hypercube, switched, mesh,
fat tree, torus) and the suite's masked, strided and indirect foralls,
which lie outside the p <= 8 iPSC/860 pin above.

A third digest pins the time breakdown neither of the others covers: the
totals and every source line's computation, communication, overhead and
balanced computation, for both engines.

A fourth digest pins the same fields as the first two over
:data:`LARGE_SCALE_SCENARIOS`, the sim-scale benchmark's two programs at
two iterations: contended serial stages on the 1024-node hypercube and
the p=8192 crossbar, where one deviate-tape block holds a single phase.

:data:`PREDICT_DIGEST` pins the other column: the interpreter's predicted
total, its three categories, the balanced computation and every source
line's four metrics, for every suite application at its first two paper
sizes and p in {1, 3, 8, 16} on every registered machine.  None of the
simulator's digests sees a prediction, so a change that claims to keep
the cost model must leave this one as it is too.  The same 768 lines are
rebuilt through the stage caches, where each compile shares its source's
front and each price its (compile, options) plan, and must give the same
digest.

Last, :data:`ARCHIVED_NOISE_TIMES_US` pins the counter-keyed noise
engine's column of the archived noise-engine migration table
(``benchmarks/results/STORE_DIFF_noise_engine.md``), so the drift recorded
there still describes the engine that runs today.
"""

import hashlib

from repro import obs, stages
from repro.explore import ScenarioSpace, run_campaign
from repro.interpreter import interpret
from repro.simulator import SimulatorOptions, simulate
from repro.suite import all_entries
from repro.system import get_machine, machine_names

PROC_COUNTS = (1, 3, 8)
MACHINE = "ipsc860"

#: sha256 of :func:`measure_lines` joined by newlines.  Computed before the
#: deviate tape replaced the per-phase keyed draws; the tape must not move it.
MEASURE_DIGEST = \
    "6c2df64935d4b7f6cd7045a624093bd31b89e6f3d4ba6a3809350e258b36e056"


#: (app, size, extra params, machine, p) of the scale pin; a size of None
#: is the app's first paper size.
SCALE_SCENARIOS = (
    ("laplace_block_block", 64, {"maxiter": 5.0}, "ipsc860", 256),
    ("laplace_block_star", 64, {"maxiter": 5.0}, "modern-cluster", 1024),
    ("laplace_star_block", 64, {"maxiter": 5.0}, "paragon", 64),
    ("nbody", None, {}, "paragon", 64),
    ("nbody", None, {}, "cm5", 64),
    ("lfk2", None, {}, "torus-cluster", 16),
    ("lfk14", None, {}, "torus-cluster", 16),
    ("finance", None, {}, "cm5", 32),
)

#: sha256 of :func:`scale_lines` joined by newlines, computed before
#: per-trip reuse and strided forall views; neither may move it.
SCALE_DIGEST = \
    "d4c16a6f72b4df9410b01064fdee23cee5d1cb2e4f4edc35a13841b386385b0d"


#: (app, size, extra params, machine, p) of the large-partition pin.
LARGE_SCALE_SCENARIOS = (
    ("laplace_block_block", 256, {"maxiter": 2.0}, "ipsc860", 1024),
    ("laplace_block_star", 64, {"maxiter": 2.0}, "modern-cluster", 8192),
)

#: sha256 of :func:`scale_lines` over :data:`LARGE_SCALE_SCENARIOS`,
#: computed before stages carried their routes, node costs deduplicated
#: as arrays and deviates skipped their gathers; none may move it.
LARGE_SCALE_DIGEST = \
    "3a08f7aa59c2631da29c5143bf9debb6b2aae217aa20624727252ee757da1e27"


#: The noise-engine migration's measure-mode space: both Laplace layouts,
#: two problem sizes, two partition sizes, hypercube and crossbar.
NOISE_MIGRATION_SPACE = ScenarioSpace(
    apps=("laplace_block_star", "laplace_star_block"),
    sizes=(16, 32),
    proc_counts=(4, 8),
    machines=("ipsc860", "modern-cluster"),
)

#: The archived migration table's counter-engine ("current") column:
#: (app, size, nprocs, machine) -> simulated time in µs, rounded.  If a
#: change moves one, the archived drift no longer describes this engine
#: and the note must be re-derived, not kept.
ARCHIVED_NOISE_TIMES_US = {
    ("laplace_block_star", 16, 4, "ipsc860"): 9923,
    ("laplace_block_star", 16, 4, "modern-cluster"): 2773,
    ("laplace_block_star", 16, 8, "ipsc860"): 9391,
    ("laplace_block_star", 16, 8, "modern-cluster"): 2697,
    ("laplace_block_star", 32, 4, "ipsc860"): 20809,
    ("laplace_block_star", 32, 4, "modern-cluster"): 2828,
    ("laplace_block_star", 32, 8, "ipsc860"): 16831,
    ("laplace_block_star", 32, 8, "modern-cluster"): 3312,
    ("laplace_star_block", 16, 4, "ipsc860"): 9519,
    ("laplace_star_block", 16, 4, "modern-cluster"): 2381,
    ("laplace_star_block", 16, 8, "ipsc860"): 9080,
    ("laplace_star_block", 16, 8, "modern-cluster"): 2403,
    ("laplace_star_block", 32, 4, "ipsc860"): 20728,
    ("laplace_star_block", 32, 4, "modern-cluster"): 2528,
    ("laplace_star_block", 32, 8, "ipsc860"): 16008,
    ("laplace_star_block", 32, 8, "modern-cluster"): 2479,
}


#: sha256 of :func:`breakdown_lines` joined by newlines, computed before
#: the clock charges stopped building a ``Metrics`` per call.
BREAKDOWN_DIGEST = \
    "dff47322017945646a748699b19614929d414af971b1306b9a3b49a4d08d01f2"


#: sha256 of :func:`predict_lines` joined by newlines, computed before the
#: machine-specific filter and the intrinsic-cost module were deleted;
#: pricing only what the compiler emits must not move it.
PREDICT_DIGEST = \
    "e3e88a600e9884cd2195aa39f556f1108fc58032340e0208f6d97f3be5fdc26c"
PREDICT_PROC_COUNTS = (1, 3, 8, 16)


def _measure_line(key: str, size: int, params: dict, machine: str,
                  nprocs: int) -> str:
    entry = all_entries()[key]
    compiled = stages.compile_cached(entry.source, name=entry.key,
                                     nprocs=nprocs, params=params)
    result = simulate(compiled, get_machine(machine, nprocs),
                      options=SimulatorOptions(engine="vector"))
    return " ".join([
        key, str(size), str(nprocs),
        float(result.measured_time_us).hex(),
        ",".join(float(t).hex() for t in result.per_rank_us),
        float(result.array_checksum).hex(),
        str(result.comm_stats.messages),
        str(result.comm_stats.bytes),
    ])


def measure_lines() -> list[str]:
    """One line per (app, first size, p): every pinned output, exactly."""
    lines = []
    for key, entry in sorted(all_entries().items()):
        size = entry.sizes[0]
        for nprocs in PROC_COUNTS:
            lines.append(_measure_line(key, size, entry.params_for(size),
                                       MACHINE, nprocs))
    return lines


def scale_lines(scenarios=SCALE_SCENARIOS) -> list[str]:
    """One line per scenario (:data:`SCALE_SCENARIOS` by default), machine
    named first."""
    lines = []
    for key, size, extra, machine, nprocs in scenarios:
        entry = all_entries()[key]
        size = entry.sizes[0] if size is None else size
        params = {**entry.params_for(size), **extra}
        lines.append(machine + " "
                     + _measure_line(key, size, params, machine, nprocs))
    return lines


def _metrics_hex(metrics) -> str:
    return ",".join(float(value).hex() for value in (
        metrics.computation, metrics.communication, metrics.overhead,
        metrics.balanced_computation))


def breakdown_lines() -> list[str]:
    """One line per (engine, app, first size, p): the totals and each
    line's metrics, exactly."""
    lines = []
    for engine in ("vector", "loop"):
        for key, entry in sorted(all_entries().items()):
            size = entry.sizes[0]
            for nprocs in PROC_COUNTS:
                compiled = stages.compile_cached(
                    entry.source, name=entry.key, nprocs=nprocs,
                    params=entry.params_for(size))
                result = simulate(compiled, get_machine(MACHINE, nprocs),
                                  options=SimulatorOptions(engine=engine))
                parts = [engine, key, str(size), str(nprocs),
                         "totals=" + _metrics_hex(result.totals)]
                parts += [f"{line}=" + _metrics_hex(result.line_metrics[line])
                          for line in sorted(result.line_metrics)]
                lines.append(" ".join(parts))
    return lines


def _predict_line(key: str, size: int, nprocs: int, machine: str,
                  result) -> str:
    parts = [key, str(size), str(nprocs), machine,
             float(result.predicted_time_us).hex(),
             "totals=" + _metrics_hex(result.total)]
    parts += [f"{line}=" + _metrics_hex(metrics) for line, metrics
              in sorted(result.line_breakdown().items())]
    return " ".join(parts)


def predict_lines() -> list[str]:
    """One line per (app, size, p, machine): the predicted total, the
    cumulative metrics and each line's metrics, exactly."""
    lines = []
    for key, entry in sorted(all_entries().items()):
        for size in entry.sizes[:2]:
            for nprocs in PREDICT_PROC_COUNTS:
                compiled = stages.compile_cached(
                    entry.source, name=entry.key, nprocs=nprocs,
                    params=entry.params_for(size))
                for machine in machine_names():
                    result = interpret(compiled, get_machine(machine, nprocs),
                                       options=entry.interpreter_options(size))
                    lines.append(_predict_line(key, size, nprocs, machine,
                                               result))
    return lines


def staged_predict_lines() -> list[str]:
    """:func:`predict_lines` through ``stages.compile_cached`` and
    ``stages.price_cached``, in sweep order: machine fastest, then p, then
    size."""
    lines = []
    for key, entry in sorted(all_entries().items()):
        for size in entry.sizes[:2]:
            params = entry.params_for(size)
            for nprocs in PREDICT_PROC_COUNTS:
                compile_key = stages.compile_stage_key(
                    entry.source, nprocs=nprocs, params=params)
                compiled = stages.compile_cached(
                    entry.source, name=entry.key, nprocs=nprocs,
                    params=params, key=compile_key)
                for machine in machine_names():
                    result = stages.price_cached(
                        compiled, get_machine(machine, nprocs),
                        compile_key=compile_key,
                        options=entry.interpreter_options(size))
                    lines.append(_predict_line(key, size, nprocs, machine,
                                               result))
    return lines


def test_suite_measure_outputs_are_pinned():
    lines = measure_lines()
    assert len(lines) == len(all_entries()) * len(PROC_COUNTS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == MEASURE_DIGEST


def test_scale_measure_outputs_are_pinned():
    lines = scale_lines()
    assert len(lines) == len(SCALE_SCENARIOS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == SCALE_DIGEST


def test_large_scale_measure_outputs_are_pinned():
    lines = scale_lines(LARGE_SCALE_SCENARIOS)
    assert len(lines) == len(LARGE_SCALE_SCENARIOS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == LARGE_SCALE_DIGEST


def test_time_breakdown_is_pinned():
    lines = breakdown_lines()
    assert len(lines) == 2 * len(all_entries()) * len(PROC_COUNTS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == BREAKDOWN_DIGEST


def test_predictions_are_pinned():
    lines = predict_lines()
    assert len(lines) == (2 * len(all_entries()) * len(PREDICT_PROC_COUNTS)
                          * len(machine_names()))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == PREDICT_DIGEST


def test_staged_predictions_are_pinned():
    # cold: the first machine of each (app, size, p) builds the plan that
    # the other five price, and every p of a source shares its front
    stages.clear_stage_caches()
    lines = staged_predict_lines()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == PREDICT_DIGEST
    cells = 2 * len(all_entries()) * len(PREDICT_PROC_COUNTS)
    assert stages.stage_cache_sizes()["parse"] == len(all_entries())
    assert stages.stage_cache_sizes()["plan"] == cells
    # warm: every compile and plan is a cache hit, every price is fresh
    stages._price_cache.clear()
    obs.reset()
    obs.enable()
    try:
        again = staged_predict_lines()
        flat = obs.get_registry().flatten()
    finally:
        obs.disable()
        obs.reset()
    assert again == lines
    prices = cells * len(machine_names())
    assert flat['repro_stage_cache_hits_total{stage="plan"}'] == prices
    assert 'repro_stage_cache_misses_total{stage="plan"}' not in flat
    assert flat['repro_stage_cache_misses_total{stage="price"}'] == prices


def test_archived_noise_migration_times_are_pinned():
    run = run_campaign(NOISE_MIGRATION_SPACE, name="noise-migration",
                       mode="measure")
    measured = {(r.point.app, r.point.size, r.point.nprocs, r.point.machine):
                round(r.measured_us) for r in run.results}
    assert measured == ARCHIVED_NOISE_TIMES_US
