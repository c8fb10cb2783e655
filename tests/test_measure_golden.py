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
"""

import hashlib

from repro import stages
from repro.simulator import SimulatorOptions, simulate
from repro.suite import all_entries
from repro.system import get_machine

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


#: sha256 of :func:`breakdown_lines` joined by newlines, computed before
#: the clock charges stopped building a ``Metrics`` per call.
BREAKDOWN_DIGEST = \
    "dff47322017945646a748699b19614929d414af971b1306b9a3b49a4d08d01f2"


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


def scale_lines() -> list[str]:
    """One line per :data:`SCALE_SCENARIOS` entry, machine named first."""
    lines = []
    for key, size, extra, machine, nprocs in SCALE_SCENARIOS:
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


def test_time_breakdown_is_pinned():
    lines = breakdown_lines()
    assert len(lines) == 2 * len(all_entries()) * len(PROC_COUNTS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == BREAKDOWN_DIGEST
