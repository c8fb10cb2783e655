"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation
(see DESIGN.md's experiment index).  The regenerated rows/series are printed
to stdout — run with ``pytest benchmarks/ --benchmark-only -s`` to see them —
and the headline shape claims are asserted so the harness doubles as an
end-to-end regression check.

Benchmarks that emit machine-readable ``BENCH_*.json`` write them through
the ``results_dir`` fixture: under pytest's ``tmp_path`` by default, so a
test run leaves the tree clean, and into ``benchmarks/results/`` only when
recording on purpose::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_serve.py -s \
        --record-results
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: the committed machine-readable results
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def results_dir(request, tmp_path) -> Path:
    """Where a benchmark writes its ``BENCH_*.json``: pytest's ``tmp_path``,
    or the committed ``benchmarks/results/`` when the run asks for it with
    ``--record-results``."""
    if request.config.getoption("record_results", default=False):
        return RESULTS_DIR
    return tmp_path
