"""CI sharding smoke: interrupt a sharded campaign, resume, verify the merge.

Exercises the fault-tolerance contract of ``repro.explore.sharding`` end to
end in well under 30 seconds:

1. run a 3-shard predict campaign over a small Laplace space with a planned
   ``repro.faults`` torn write against one worker's segment (the worker
   commits part of a chunk, writes a torn JSON fragment, then SIGKILLs
   itself mid-append),
2. assert the run surfaces as :class:`CampaignInterrupted` with an
   ``interrupted`` checkpoint on disk,
3. resume from the checkpoint and assert only the torn chunk was recomputed
   (everything committed before the kill is served from the segment),
4. diff the merged store against an uninterrupted single-process
   :func:`run_campaign` sweep — zero drift, byte-identical records,
5. re-run the merged campaign and assert it is served entirely from the
   canonical store (the ``merged`` fast path).

Usage:  PYTHONPATH=src python scripts/sharding_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import faults  # noqa: E402
from repro.explore import (  # noqa: E402
    CampaignInterrupted,
    ResultStore,
    ScenarioSpace,
    partition_points,
    run_campaign,
    run_sharded_campaign,
    segment_path,
    store_diff,
)
from repro.explore.checkpoint import CampaignCheckpoint  # noqa: E402

SMOKE_SPACE = ScenarioSpace(
    apps=("laplace_block_star", "laplace_block_block"),
    sizes=(16, 32, 64),
    proc_counts=(2, 4),
    machines=("ipsc860", "paragon"),
)

SHARDS = 3
CHUNK = 4


#: die during chunk 1, after one of its records was committed
KILL_CHUNK = 1
KEEP_RECORDS = 1


def main() -> int:
    started = time.perf_counter()
    points = SMOKE_SPACE.expand()
    parts = partition_points(points, SHARDS)
    # kill the fullest shard after it commits its first chunk plus one record
    victim = max(range(SHARDS), key=lambda k: len(parts[k]))

    with tempfile.TemporaryDirectory(prefix="repro-shard-smoke-") as tmp:
        store_path = os.path.join(tmp, "sharded.jsonl")
        # a planned torn write at the victim segment's (CHUNK * KILL_CHUNK
        # + KEEP_RECORDS)-th append: the worker writes a torn fragment and
        # SIGKILLs itself mid-append.  max_restarts=0 keeps the watchdog
        # from absorbing the death — this smoke proves interrupt + resume.
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(
                site="store.append", action="torn_write",
                index=CHUNK * KILL_CHUNK + KEEP_RECORDS,
                match={"store": os.path.basename(
                    segment_path(store_path, victim))}),)))

        try:
            run_sharded_campaign(SMOKE_SPACE, shards=SHARDS,
                                 name="ci-shard-smoke", store=store_path,
                                 chunk_size=CHUNK, max_restarts=0)
        except CampaignInterrupted as exc:
            interrupted = exc
        else:
            raise AssertionError("fault injection did not interrupt the run")
        finally:
            faults.clear()
        ckpt = CampaignCheckpoint.load(interrupted.checkpoint_path)
        assert ckpt.status == "interrupted", ckpt.status
        print(f"interrupted as planned: {interrupted.failed} "
              f"(checkpoint status {ckpt.status!r})")

        resumed = run_sharded_campaign(SMOKE_SPACE, shards=SHARDS,
                                       name="ci-shard-smoke", store=store_path,
                                       chunk_size=CHUNK)
        assert resumed.resumed, "resume did not pick up the checkpoint"
        committed = CHUNK * KILL_CHUNK + KEEP_RECORDS
        victim_outcome = resumed.per_shard[victim]
        assert victim_outcome.store_hits == committed, \
            f"expected {committed} pre-kill records to survive, " \
            f"saw {victim_outcome.store_hits} store hits"
        assert victim_outcome.fresh_evaluations == \
            len(parts[victim]) - committed, \
            "resume recomputed more than the torn chunk"
        assert resumed.merge_diff is not None
        assert resumed.merge_diff.drifted == []
        print(f"resumed: shard {victim} kept {victim_outcome.store_hits} "
              f"records, recomputed {victim_outcome.fresh_evaluations}; "
              f"other shards {sum(o.fresh_evaluations for k, o in enumerate(resumed.per_shard) if k != victim)} fresh")

        # merged store must match an uninterrupted single-process sweep
        clean_path = os.path.join(tmp, "clean.jsonl")
        run_campaign(SMOKE_SPACE, name="ci-shard-smoke", mode="predict",
                     store=ResultStore(clean_path))
        diff = store_diff(ResultStore(clean_path).results(),
                          ResultStore(store_path).results())
        assert diff.drifted == [] and not diff.added and not diff.removed, \
            diff.summary()
        with open(clean_path, "rb") as a, open(store_path, "rb") as b:
            assert a.read() == b.read(), \
                "merged store is not byte-identical to the serial sweep"
        print(f"merged store matches the uninterrupted sweep "
              f"({diff.compared} records, 0 drift, byte-identical)")

        # merged fast path: a re-run is pure store hits, zero fresh work
        rerun = run_sharded_campaign(SMOKE_SPACE, shards=SHARDS,
                                     name="ci-shard-smoke", store=store_path)
        assert rerun.evaluated == 0 and rerun.store_hits == len(points), \
            f"re-run evaluated {rerun.evaluated} points instead of " \
            f"serving from the merged store"

    wall = time.perf_counter() - started
    print(f"sharding smoke: interrupt + resume + merge verified in "
          f"{wall:.1f}s ({len(points)} points, {SHARDS} shards)")
    assert wall < 30.0, f"sharding smoke took {wall:.1f}s (budget 30s)"
    return 0


if __name__ == "__main__":
    sys.exit(main())
