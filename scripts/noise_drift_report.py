"""Retirement note for the sequential noise scheme (+ archive verification).

PR 6 replaced the legacy one-stream sequential noise draws with the
counter-keyed engine and kept ``NoiseOptions(scheme="sequential")`` for one
release so stores could be regenerated/compared; the measured drift between
the two realisations was recorded in
``benchmarks/results/STORE_DIFF_noise_engine.md``.  That window is over: the
sequential path was deleted in repro 1.1.0, and the one-valued
``NoiseOptions.scheme`` field that named it has since been removed as well.

This script regenerates the store-diff note in its final, archival form:

* re-runs the original 16-scenario measure-mode drift space under the
  counter engine and verifies the simulated times still match the archived
  migration table's "current" column — i.e. the archived drift numbers
  remain anchored to what the engine produces today, and
* rewrites ``benchmarks/results/STORE_DIFF_noise_engine.md`` as a
  retirement note preserving the migration's headline numbers (worst drift
  0.251% over 16 scenarios, well inside the §5.1 band); the full
  sequential-vs-counter table lives in git history of that file.

Usage:  PYTHONPATH=src python scripts/noise_drift_report.py [report-path]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.explore import ScenarioSpace, run_campaign  # noqa: E402
from repro.simulator import NoiseOptions, SimulatorOptions  # noqa: E402

DEFAULT_REPORT = os.path.join(os.path.dirname(__file__), "..",
                              "benchmarks", "results",
                              "STORE_DIFF_noise_engine.md")

#: The migration report's measure-mode space, unchanged since PR 6: both
#: Laplace layouts, two problem sizes, two partition sizes, hypercube +
#: crossbar interconnects.
DRIFT_SPACE = ScenarioSpace(
    apps=("laplace_block_star", "laplace_star_block"),
    sizes=(16, 32),
    proc_counts=(4, 8),
    machines=("ipsc860", "modern-cluster"),
)

#: The archived migration table's counter-scheme ("current") column:
#: (app, size, nprocs, machine) -> simulated time in µs.  These anchor the
#: retirement note to the engine's present-day output — if a change moves
#: them, the archived drift percentages no longer describe this engine and
#: the note must be re-derived, not silently kept.
ARCHIVED_COUNTER_TIMES_US = {
    ("laplace_block_star", 16, 4, "ipsc860"): 9923.0,
    ("laplace_block_star", 16, 4, "modern-cluster"): 2773.0,
    ("laplace_block_star", 16, 8, "ipsc860"): 9391.0,
    ("laplace_block_star", 16, 8, "modern-cluster"): 2697.0,
    ("laplace_block_star", 32, 4, "ipsc860"): 20809.0,
    ("laplace_block_star", 32, 4, "modern-cluster"): 2828.0,
    ("laplace_block_star", 32, 8, "ipsc860"): 16831.0,
    ("laplace_block_star", 32, 8, "modern-cluster"): 3312.0,
    ("laplace_star_block", 16, 4, "ipsc860"): 9519.0,
    ("laplace_star_block", 16, 4, "modern-cluster"): 2381.0,
    ("laplace_star_block", 16, 8, "ipsc860"): 9080.0,
    ("laplace_star_block", 16, 8, "modern-cluster"): 2403.0,
    ("laplace_star_block", 32, 4, "ipsc860"): 20728.0,
    ("laplace_star_block", 32, 4, "modern-cluster"): 2528.0,
    ("laplace_star_block", 32, 8, "ipsc860"): 16008.0,   # the unchanged row
    ("laplace_star_block", 32, 8, "modern-cluster"): 2479.0,
}

NOTE_LINES = [
    "# Noise-engine store migration (closed: sequential scheme retired)",
    "",
    "The counter-based keyed noise engine (PR 6) replaced the legacy",
    "sequential one-stream draws as the simulator's noise scheme.  Both",
    "realised the same §5.1 noise magnitudes from the same seed, as",
    "different deterministic realisations, so every simulated measurement",
    "drifted slightly when a store was regenerated.  The migration window",
    "(`NoiseOptions(scheme=\"sequential\")` kept for one release) closed in",
    "repro 1.1.0, when the sequential path was deleted.  The one-valued",
    "`NoiseOptions.scheme` field is gone too: passing `scheme=` raises the",
    "`TypeError` of any unknown field.",
    "",
    "Migration record (measured before retirement, full per-scenario table",
    "in this file's git history):",
    "",
    "* space: 16 measure-mode scenarios (2 layouts x 2 sizes x {4, 8}",
    "  ranks x {ipsc860, modern-cluster})",
    "* worst drift: 0.251% — `laplace_star_block n=16 p=4 modern-cluster`",
    "  (band: 5.0%, the §5.1 measurement-variance bound); 15 of 16",
    "  scenarios drifted, none added or removed",
    "* predict-mode stores (analytic, noise-free) were unchanged:",
    "  `benchmarks/results/smoke_campaign.jsonl` stayed byte-identical.",
    "",
    "`scripts/noise_drift_report.py` regenerates this note and re-verifies",
    "that the counter engine still reproduces the archived \"current\"",
    "column exactly, so the recorded drift stays anchored to the living",
    "engine.",
    "",
]


def main() -> int:
    report_path = sys.argv[1] if len(sys.argv) > 1 \
        else os.path.normpath(DEFAULT_REPORT)

    # the archive anchor: today's counter engine still produces the
    # migration table's "current" column
    run = run_campaign(
        DRIFT_SPACE, name="noise-retirement-verify", mode="measure",
        simulator_options=SimulatorOptions(noise=NoiseOptions()))
    expected = len(DRIFT_SPACE.expand())
    assert len(run.results) == expected, \
        f"campaign produced {len(run.results)} of {expected} points"
    mismatches = []
    for result in run.results:
        point = result.point
        key = (point.app, point.size, point.nprocs, point.machine)
        archived = ARCHIVED_COUNTER_TIMES_US[key]
        current = round(result.measured_us)
        if current != archived:
            mismatches.append(f"  {key}: archived {archived}, now {current}")
    assert not mismatches, \
        "counter engine no longer matches the archived migration table " \
        "(re-derive the note):\n" + "\n".join(mismatches)

    report = "\n".join(NOTE_LINES)
    with open(report_path, "w") as fh:
        fh.write(report)

    print(report)
    print(f"archived counter column verified over {expected} scenarios; "
          f"note written to {report_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
