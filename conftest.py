"""Repository-level pytest configuration: make src/ importable without install.

Also registers the ``slow`` marker: stress tests and benchmarks (8-way
writer contention, 10k-point sharded sweeps) are deselected by default so
tier-1 stays fast; CI opts in with ``REPRO_SLOW=1`` (see scripts/check.sh)
and a developer can run one explicitly with ``-m slow``.

And the ``--record-results`` option: benchmarks write their
``BENCH_*.json`` under pytest's ``tmp_path`` unless it is given, in which
case they refresh the committed copies in ``benchmarks/results/``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

SLOW_ENV = "REPRO_SLOW"


def pytest_addoption(parser):
    parser.addoption(
        "--record-results", action="store_true", default=False,
        help="benchmarks write their BENCH_*.json into benchmarks/results/ "
             "(the committed copies) instead of pytest's tmp_path")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: stress tests / benchmarks, skipped unless REPRO_SLOW=1 "
        "or explicitly selected with -m slow")


def pytest_collection_modifyitems(config, items):
    if os.environ.get(SLOW_ENV, "").strip().lower() in ("1", "true", "on"):
        return
    if config.getoption("-m", default="") and \
            "slow" in config.getoption("-m"):
        return                          # explicit -m slow selection wins
    skip = pytest.mark.skip(
        reason=f"slow test (set {SLOW_ENV}=1 or run with -m slow)")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
