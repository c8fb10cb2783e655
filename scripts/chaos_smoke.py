"""CI chaos smoke: a four-failure storm through a sharded campaign + server.

Exercises the whole ``repro.faults`` resilience contract end to end in
well under 30 seconds:

1. install a deterministic plan with one failure of each kind, each at a
   distinct site and pinned to a distinct shard — a crash (``shard.chunk``),
   a hang (``checkpoint.write``, caught by the heartbeat watchdog), a torn
   write (``store.append``), and a transient exception (``serve.compute``),
   all fire-once across processes via a shared ledger,
2. run a 4-shard campaign with an aggressive watchdog and assert it
   *completes* — every wounded shard is respawned, no interrupt surfaces,
3. keep a live HTTP server answering through the planned compute fault
   (the retry layer absorbs it; the client sees a plain 200) and assert
   ``/healthz`` stays ``ok``,
4. reconcile the counters against the plan: all four actions fired, the
   retry total matches, and
5. diff the merged store against a fault-free serial sweep — zero drift,
   byte-identical records.

Usage:  PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import faults  # noqa: E402
from repro.explore import (  # noqa: E402
    ResultStore,
    ScenarioSpace,
    run_campaign,
    run_sharded_campaign,
    store_diff,
)
from repro.serve import ServeOptions, ServerThread  # noqa: E402

SMOKE_SPACE = ScenarioSpace(
    apps=("laplace_block_star", "laplace_block_block"),
    sizes=(16, 32), proc_counts=(2, 4),
    machines=("ipsc860", "paragon"),
)

SHARDS = 4
CHUNK = 2


def chaos_plan(ledger: str) -> faults.FaultPlan:
    return faults.FaultPlan(seed=1994, ledger=ledger, actions=(
        faults.FaultAction(site="shard.chunk", action="crash", index=1,
                           match={"shard": "0"}),
        faults.FaultAction(site="checkpoint.write", action="delay",
                           delay_s=30.0, index=0,
                           match={"path": "*.shard-1.checkpoint.json"}),
        faults.FaultAction(site="store.append", action="torn_write",
                           index=2, match={"store": "*.shard-2.jsonl"}),
        faults.FaultAction(site="serve.compute", action="exception",
                           index=0, message="chaos-smoke transient"),
    ))


def main() -> int:
    started = time.perf_counter()
    points = SMOKE_SPACE.expand()

    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        # the fault-free reference, before any plan is installed
        clean_path = os.path.join(tmp, "clean.jsonl")
        run_campaign(SMOKE_SPACE, name="ci-chaos-smoke", mode="predict",
                     store=ResultStore(clean_path))

        store_path = os.path.join(tmp, "chaos.jsonl")
        faults.install(chaos_plan(os.path.join(tmp, "ledger.txt")))
        try:
            run = run_sharded_campaign(
                SMOKE_SPACE, shards=SHARDS, chunk_size=CHUNK,
                name="ci-chaos-smoke", store=store_path,
                heartbeat_timeout_s=0.6, max_restarts=2)
            assert len(run.results) == len(points), \
                f"storm run produced {len(run.results)}/{len(points)} results"
            assert run.merge_diff is not None and run.merge_diff.drifted == []
            restarts = {o.shard: o.restarts for o in run.per_shard}
            assert restarts[0] >= 1 and restarts[1] >= 1 and restarts[2] >= 1, \
                f"expected shards 0-2 to be respawned, saw {restarts}"
            print(f"storm campaign completed: respawns {restarts}, "
                  f"{len(run.results)} points merged")

            # the live server answers through the planned transient
            with ServerThread(ServeOptions(port=0)) as (host, port):
                body = json.dumps({"app": "laplace_block_star", "size": 16,
                                   "nprocs": 4, "machine": "ipsc860"}).encode()
                req = urllib.request.Request(
                    f"http://{host}:{port}/predict", data=body)
                with urllib.request.urlopen(req, timeout=30) as resp:
                    assert resp.status == 200
                    payload = json.loads(resp.read())
                assert payload["served_from"] == "computed", payload
                with urllib.request.urlopen(
                        f"http://{host}:{port}/healthz", timeout=30) as resp:
                    health = json.loads(resp.read())
                assert health["status"] == "ok", health
                assert health["resilience"]["retry_total"] == 1, health
            print("live server absorbed the compute fault: 200 computed, "
                  "healthz ok after 1 retry")

            # counters reconcile: all four actions fired exactly once
            fired = faults.fired()
            assert len(fired) == 4, f"expected 4 fired actions, got {fired}"
            assert {aid.split(":")[1] for aid in fired} == set(faults.SITES)
            assert faults.retry_total() == 1, faults.retry_total()
        finally:
            faults.clear()

        diff = store_diff(ResultStore(clean_path).results(),
                          ResultStore(store_path).results())
        assert diff.drifted == [] and not diff.added and not diff.removed, \
            diff.summary()
        with open(clean_path, "rb") as a, open(store_path, "rb") as b:
            assert a.read() == b.read(), \
                "storm-merged store is not byte-identical to the serial sweep"
        print(f"merged store matches the fault-free sweep "
              f"({diff.compared} records, 0 drift, byte-identical)")

    wall = time.perf_counter() - started
    print(f"chaos smoke: crash + hang + torn write + transient survived in "
          f"{wall:.1f}s ({len(points)} points, {SHARDS} shards)")
    assert wall < 30.0, f"chaos smoke took {wall:.1f}s (budget 30s)"
    return 0


if __name__ == "__main__":
    sys.exit(main())
