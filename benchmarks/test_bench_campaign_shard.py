"""B-shard — sharded-campaign throughput against the serial baseline.

``repro.explore.sharding`` exists so a design-space sweep too large for one
process can fan out over workers without giving up the store's determinism
guarantees.  This benchmark sweeps a ≥10k-point Laplace space twice —

* **serial** — plain :func:`run_campaign`, one point after another in
  this process,
* **sharded** — :func:`run_sharded_campaign` with ``shards=4`` forked
  workers streaming to per-shard segments, then merging,

— cross-checks the merged store against the serial one with
:func:`store_diff` (the correctness half of the claim: fan-out must not
change a single record), and emits ``BENCH_campaign_shard.json`` under
pytest's ``tmp_path``.  Recording refreshes the committed
``benchmarks/results/BENCH_campaign_shard.json`` so the scaling trajectory
is comparable across changes::

    REPRO_SLOW=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_bench_campaign_shard.py -s --record-results

The ≥``SPEEDUP_FLOOR``× throughput floor is only enforceable where the
hardware can express it: a 4-way fan-out cannot beat serial on a 1- or
2-CPU container, so the floor assertion is conditional on
``os.cpu_count() >= 4`` and the JSON records ``floor_enforced`` so a
reader of the committed numbers knows which regime produced them.
"""

import json
import os
import time

import pytest

from repro.explore import (
    ScenarioSpace,
    run_campaign,
    run_sharded_campaign,
    store_diff,
)
from repro.explore.store import ResultStore

SHARDS = 4

#: Throughput floor for the 4-shard run over the serial baseline, enforced
#: only on hosts with at least ``SHARDS`` CPUs (see module docstring).
SPEEDUP_FLOOR = 3.0

RESULTS_NAME = "BENCH_campaign_shard.json"


def _bench_space() -> ScenarioSpace:
    """A ≥10k-point space: 2 apps x 417 sizes x 6 proc counts x 2 machines."""
    return ScenarioSpace(
        apps=("laplace_block_star", "laplace_block_block"),
        sizes=tuple(range(16, 16 + 4 * 417, 4)),
        proc_counts=(2, 4, 8, 16, 32, 64),
        machines=("ipsc860", "paragon"),
    )


@pytest.mark.slow
def test_sharded_campaign_throughput(tmp_path, results_dir):
    """The committed scaling numbers: serial vs 4-shard wall time + drift."""
    space = _bench_space()
    points, rejected = space.expand_with_rejects()
    assert len(points) >= 10_000, \
        f"benchmark space shrank to {len(points)} points"

    serial_store = str(tmp_path / "serial.jsonl")
    started = time.perf_counter()
    serial_run = run_campaign(space, name="bench-serial",
                              store=ResultStore(serial_store))
    serial_wall = time.perf_counter() - started
    assert serial_run.evaluated == len(points)

    shard_store = str(tmp_path / "sharded.jsonl")
    started = time.perf_counter()
    shard_run = run_sharded_campaign(space, shards=SHARDS,
                                     name="bench-sharded", store=shard_store,
                                     max_workers=SHARDS, chunk_size=256,
                                     keep_segments=False)
    shard_wall = time.perf_counter() - started
    assert shard_run.evaluated == len(points)
    assert shard_run.merge_diff is not None
    assert shard_run.merge_diff.drifted == []

    # fan-out must not change a single record vs the serial sweep
    diff = store_diff(ResultStore(serial_store).results(),
                      ResultStore(shard_store).results())
    assert diff.drifted == [] and not diff.added and not diff.removed
    assert diff.compared == len(points)

    cpus = os.cpu_count() or 1
    speedup = serial_wall / shard_wall
    floor_enforced = cpus >= SHARDS
    record = {
        "schema": 1,
        "benchmark": "campaign_shard",
        "points": len(points),
        "rejected": len(rejected),
        "shards": SHARDS,
        "cpus": cpus,
        "serial": {
            "wall_s": round(serial_wall, 3),
            "points_per_s": round(len(points) / serial_wall, 1),
        },
        "sharded": {
            "wall_s": round(shard_wall, 3),
            "points_per_s": round(len(points) / shard_wall, 1),
        },
        "speedup": round(speedup, 3),
        "merged_drift": len(diff.drifted),
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_enforced": floor_enforced,
    }

    print()
    print(f"campaign shard bench: {len(points)} points on {cpus} CPUs")
    print(f"  serial : {serial_wall:8.2f} s "
          f"({record['serial']['points_per_s']:,.0f} pts/s)")
    print(f"  {SHARDS} shards: {shard_wall:8.2f} s "
          f"({record['sharded']['points_per_s']:,.0f} pts/s)")
    print(f"  speedup: {speedup:.2f}x "
          f"(floor {SPEEDUP_FLOOR:.1f}x "
          f"{'enforced' if floor_enforced else 'not enforced: < 4 CPUs'})")

    results_json = results_dir / RESULTS_NAME
    results_json.parent.mkdir(parents=True, exist_ok=True)
    results_json.write_text(json.dumps(record, indent=2) + "\n")

    if floor_enforced:
        assert speedup >= SPEEDUP_FLOOR, \
            f"{SHARDS}-shard speedup {speedup:.2f}x under the " \
            f"{SPEEDUP_FLOOR:.1f}x floor on a {cpus}-CPU host"
