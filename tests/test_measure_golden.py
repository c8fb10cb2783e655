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


def measure_lines() -> list[str]:
    """One line per (app, first size, p): every pinned output, exactly."""
    lines = []
    for key, entry in sorted(all_entries().items()):
        size = entry.sizes[0]
        for nprocs in PROC_COUNTS:
            compiled = stages.compile_cached(entry.source, name=entry.key,
                                             nprocs=nprocs,
                                             params=entry.params_for(size))
            result = simulate(compiled, get_machine(MACHINE, nprocs),
                              options=SimulatorOptions(engine="vector"))
            lines.append(" ".join([
                key, str(size), str(nprocs),
                float(result.measured_time_us).hex(),
                ",".join(float(t).hex() for t in result.per_rank_us),
                float(result.array_checksum).hex(),
                str(result.comm_stats.messages),
                str(result.comm_stats.bytes),
            ]))
    return lines


def test_suite_measure_outputs_are_pinned():
    lines = measure_lines()
    assert len(lines) == len(all_entries()) * len(PROC_COUNTS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == MEASURE_DIGEST
