"""repro.faults: plan validation and JSON round trips, the injector's
deterministic index/match/fire-once semantics (including the
cross-process ledger), bounded retry with deterministic jitter, the
crash-between-lock-and-append store contract, and the chaos acceptance
storm — one crash, one hang, one transient exception, and one torn write
across four distinct sites, driven through a 4-shard campaign with
watchdog respawns plus a live HTTP server, ending with a merged store
byte-identical to a fault-free serial sweep and counters that reconcile
against the plan."""

import json
import multiprocessing
import os
import signal
import urllib.request

import pytest

from repro import faults, obs
from repro.explore import (
    ResultStore,
    ScenarioPoint,
    ScenarioResult,
    ScenarioSpace,
    run_campaign,
    run_sharded_campaign,
    store_diff,
)
from repro.serve import ServeOptions, ServerThread


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    faults.clear()
    faults.reset_retry_stats()
    yield
    obs.disable()
    obs.reset()
    faults.clear()
    faults.reset_retry_stats()


def small_space() -> ScenarioSpace:
    return ScenarioSpace(
        apps=("laplace_block_star", "laplace_block_block"),
        sizes=(16, 32), proc_counts=(2, 4),
        machines=("ipsc860", "paragon"))


def small_result(nprocs=2) -> ScenarioResult:
    return ScenarioResult(
        point=ScenarioPoint(app="laplace_block_star", size=16, nprocs=nprocs),
        mode="predict", estimated_us=1000.0, measured_us=None,
        comp_us=600.0, comm_us=300.0, ovhd_us=100.0, grid_shape=(nprocs,))


def post(url, payload):
    req = urllib.request.Request(url, data=json.dumps(payload).encode())
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ---------------------------------------------------------------------------
# plan validation + JSON round trip
# ---------------------------------------------------------------------------


class TestFaultAction:
    @pytest.mark.parametrize("kwargs", [
        {"site": "nowhere", "action": "crash"},
        {"site": "store.append", "action": "explode"},
        {"site": "store.append", "action": "crash", "index": -1},
        {"site": "store.append", "action": "crash", "index": True},
        {"site": "store.append", "action": "crash", "index": 2.0},
        {"site": "store.append", "action": "delay", "delay_s": -0.1},
        {"site": "store.append", "action": "delay", "delay_s": float("inf")},
        {"site": "store.append", "action": "torn_write", "fragment": ""},
        {"site": "store.append", "action": "crash", "match": "shard=0"},
    ])
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(faults.FaultError):
            faults.FaultAction(**kwargs)

    def test_match_values_coerced_to_patterns(self):
        action = faults.FaultAction(site="shard.chunk", action="crash",
                                    match={"shard": 0})
        assert action.match == {"shard": "0"}

    def test_json_round_trip(self):
        action = faults.FaultAction(
            site="serve.compute", action="exception", index=3,
            message="planned", match={"app": "laplace_*"})
        again = faults.FaultAction.from_json(action.to_json())
        assert again == action

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(faults.FaultError, match="unknown"):
            faults.FaultAction.from_json(
                {"site": "store.append", "action": "crash", "severity": 11})


class TestFaultPlan:
    def test_single_action_coerced_to_tuple(self):
        action = faults.FaultAction(site="store.append", action="crash")
        plan = faults.FaultPlan(actions=action)
        assert plan.actions == (action,)

    @pytest.mark.parametrize("kwargs", [
        {"actions": ("not-an-action",)},
        {"actions": 7},
        {"seed": "0"},
        {"seed": True},
        {"ledger": ""},
        {"ledger": 4},
    ])
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(faults.FaultError):
            faults.FaultPlan(**kwargs)

    def test_dumps_loads_round_trip(self):
        plan = faults.FaultPlan(seed=42, ledger="/tmp/ledger", actions=(
            faults.FaultAction(site="shard.chunk", action="crash", index=1),
            faults.FaultAction(site="store.append", action="torn_write",
                               match={"store": "*.shard-0.jsonl"})))
        assert faults.FaultPlan.loads(plan.dumps()) == plan

    def test_dump_load_file_round_trip(self, tmp_path):
        plan = faults.FaultPlan(actions=(
            faults.FaultAction(site="serve.compute", action="delay",
                               delay_s=0.5),))
        path = plan.dump(str(tmp_path / "plan.json"))
        assert faults.FaultPlan.load(path) == plan

    @pytest.mark.parametrize("payload,why", [
        ({"format": "something-else", "schema": 1}, "format"),
        ({"format": "repro-fault-plan", "schema": 99}, "schema"),
        ({"format": "repro-fault-plan", "schema": 1, "actions": {}},
         "'actions'"),
    ])
    def test_from_json_rejects_bad_payloads(self, payload, why):
        with pytest.raises(faults.FaultError, match=why):
            faults.FaultPlan.from_json(payload)

    def test_loads_rejects_non_json(self):
        with pytest.raises(faults.FaultError, match="not valid JSON"):
            faults.FaultPlan.loads("not json {")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(faults.FaultError, match="cannot read"):
            faults.FaultPlan.load(str(tmp_path / "absent.json"))

    def test_storm_is_seed_deterministic_and_covers_all_actions(self):
        storm = faults.FaultPlan.storm(7)
        assert storm == faults.FaultPlan.storm(7)
        assert storm != faults.FaultPlan.storm(8)
        assert len(storm.actions) == 4
        assert sorted(a.site for a in storm.actions) == sorted(faults.SITES)
        assert sorted(a.action for a in storm.actions) == sorted(faults.ACTIONS)
        # the destructive actions are confined to shard artifacts: the
        # coordinator's own checkpoint and merge appends are never victims
        by_site = {a.site: a for a in storm.actions}
        assert "*.shard-*" in by_site["checkpoint.write"].match["path"]
        assert "*.shard-*" in by_site["store.append"].match["store"]


# ---------------------------------------------------------------------------
# module API: install / clear / env activation
# ---------------------------------------------------------------------------


class TestModuleApi:
    def test_disabled_fire_is_a_noop(self):
        assert not faults.enabled()
        assert faults.active_plan() is None
        assert faults.fire("store.append", store="x.jsonl") is None
        assert faults.fired() == set()
        assert faults.injected_total() == 0
        assert faults.site_counts() == {}

    def test_install_rejects_non_plan(self):
        with pytest.raises(faults.FaultError, match="FaultPlan"):
            faults.install({"actions": []})

    def test_install_and_clear(self):
        plan = faults.FaultPlan()
        faults.install(plan)
        assert faults.enabled() and faults.active_plan() is plan
        faults.clear()
        assert not faults.enabled()

    def test_env_activation_inline_json(self):
        plan = faults.FaultPlan(actions=(
            faults.FaultAction(site="serve.compute", action="exception"),))
        faults._install_from_env({faults.ENV_VAR: plan.dumps()})
        assert faults.active_plan() == plan

    def test_env_activation_plan_file(self, tmp_path):
        plan = faults.FaultPlan(seed=3)
        path = plan.dump(str(tmp_path / "plan.json"))
        faults._install_from_env({faults.ENV_VAR: path})
        assert faults.active_plan() == plan

    def test_env_empty_is_noop(self):
        faults._install_from_env({})
        faults._install_from_env({faults.ENV_VAR: "   "})
        assert not faults.enabled()


# ---------------------------------------------------------------------------
# the injector: indices, matching, fire-once, ledgers
# ---------------------------------------------------------------------------


class TestInjector:
    def test_index_counts_matched_invocations_only(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="store.append", action="exception",
                               index=1, match={"store": "a*"}),)))
        # non-matching invocations never advance the action's counter
        for _ in range(3):
            assert faults.fire("store.append", store="b.jsonl") is None
        assert faults.fire("store.append", store="a.jsonl") is None  # seen 0
        with pytest.raises(faults.InjectedFault):
            faults.fire("store.append", store="a.jsonl")             # seen 1
        assert faults.site_counts() == {"store.append": 5}

    def test_index_none_fires_on_first_match(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="shard.chunk", action="exception",
                               match={"shard": "2"}),)))
        assert faults.fire("shard.chunk", shard=0, chunk=0) is None
        with pytest.raises(faults.InjectedFault):
            faults.fire("shard.chunk", shard=2, chunk=0)

    def test_each_action_fires_at_most_once(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="serve.compute", action="exception",
                               index=0),)))
        with pytest.raises(faults.InjectedFault):
            faults.fire("serve.compute")
        for _ in range(3):
            assert faults.fire("serve.compute") is None
        assert faults.injected_total() == 1
        assert faults.fired() == {"0:serve.compute:exception"}

    def test_duplicate_actions_get_distinct_ids(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="serve.compute", action="exception"),
            faults.FaultAction(site="serve.compute", action="exception"),)))
        for _ in range(2):
            with pytest.raises(faults.InjectedFault):
                faults.fire("serve.compute")
        assert faults.fired() == {"0:serve.compute:exception",
                                  "1:serve.compute:exception"}

    def test_delay_executes_and_returns_none(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="checkpoint.write", action="delay",
                               delay_s=0.0),)))
        assert faults.fire("checkpoint.write", path="x.json") is None
        assert faults.injected_total() == 1

    def test_exception_message_names_the_site(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="serve.compute", action="exception",
                               message="planned transient"),)))
        with pytest.raises(faults.InjectedFault,
                           match="serve.compute: planned transient"):
            faults.fire("serve.compute")

    def test_torn_write_is_returned_not_executed(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="store.append", action="torn_write"),)))
        action = faults.fire("store.append", store="x.jsonl")
        assert action is not None and action.action == "torn_write"
        assert action.fragment == faults.TORN_FRAGMENT

    def test_ledger_extends_fire_once_across_injectors(self, tmp_path):
        """Two injectors on one ledger model a respawned worker: the second
        deterministically re-reaches the same index but must not re-fire."""
        ledger = str(tmp_path / "ledger.txt")
        plan = faults.FaultPlan(ledger=ledger, actions=(
            faults.FaultAction(site="shard.chunk", action="exception",
                               index=0),))
        first = faults.FaultInjector(plan)
        with pytest.raises(faults.InjectedFault):
            first.fire("shard.chunk", {"shard": 0})
        respawned = faults.FaultInjector(plan)
        assert respawned.fire("shard.chunk", {"shard": 0}) is None
        assert respawned.fired() == {"0:shard.chunk:exception"}


# ---------------------------------------------------------------------------
# retry_call
# ---------------------------------------------------------------------------


class TestRetry:
    def test_success_passes_through_without_retries(self):
        assert faults.retry_call(lambda: 41 + 1, site="t") == 42
        assert faults.retry_total() == 0

    def test_transient_failures_retried_to_success(self):
        obs.enable()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise faults.InjectedFault("transient")
            return "ok"

        assert faults.retry_call(flaky, site="t", retries=2,
                                 base_delay_s=0.0) == "ok"
        assert len(attempts) == 3
        assert faults.retry_total() == 2
        assert obs.get_registry().flatten()['repro_retry_total{site="t"}'] == 2

    def test_exhausted_budget_reraises_the_original(self):
        def always():
            raise faults.InjectedFault("still broken")

        with pytest.raises(faults.InjectedFault, match="still broken"):
            faults.retry_call(always, site="t", retries=1, base_delay_s=0.0)
        assert faults.retry_total() == 1

    def test_non_transient_propagates_immediately(self):
        def broken():
            raise ValueError("logic error")

        with pytest.raises(ValueError):
            faults.retry_call(broken, site="t", retries=5, base_delay_s=0.0)
        assert faults.retry_total() == 0

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            faults.retry_call(lambda: None, site="t", retries=-1)

    def test_reset_retry_stats(self):
        with pytest.raises(faults.InjectedFault):
            faults.retry_call(
                lambda: (_ for _ in ()).throw(faults.InjectedFault("x")),
                site="t", retries=1, base_delay_s=0.0)
        assert faults.retry_total() == 1
        faults.reset_retry_stats()
        assert faults.retry_total() == 0


# ---------------------------------------------------------------------------
# the store's crash contract: die between lock and append
# ---------------------------------------------------------------------------


class TestStoreCrashFault:
    def test_crash_between_lock_and_append_leaves_a_clean_store(self, tmp_path):
        """A planned crash fires inside the store's advisory lock, *before*
        the record is written: the surviving store must hold exactly the
        records committed before the death, and the lock must be free."""
        ctx = multiprocessing.get_context("fork")
        path = str(tmp_path / "victim.jsonl")
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="store.append", action="crash", index=1,
                               match={"store": "victim.jsonl"}),)))

        def child():
            store = ResultStore(path)
            store.add(small_result(nprocs=2))     # append 0: committed
            store.add(small_result(nprocs=4))     # append 1: dies in the lock

        proc = ctx.Process(target=child)
        proc.start()
        proc.join(30)
        assert proc.exitcode == -signal.SIGKILL
        faults.clear()

        survivor = ResultStore(path)
        results = survivor.results()
        assert [r.point.nprocs for r in results] == [2]
        # the dead process's flock died with it: appends still work
        survivor.add(small_result(nprocs=8))
        assert len(ResultStore(path).results()) == 2
        # a crash before the write is clean: nothing to quarantine
        from repro.explore import quarantine_path_for
        assert not os.path.exists(quarantine_path_for(path))


# ---------------------------------------------------------------------------
# chaos acceptance: the four-failure storm, end to end
# ---------------------------------------------------------------------------


class TestChaosAcceptance:
    def chaos_plan(self, store_path: str, ledger: str) -> faults.FaultPlan:
        """One failure of each kind, each at a distinct site, each pinned
        to a distinct shard so the deaths never compound into a poison
        chunk: shard 0 crashes, shard 1 hangs (stale heartbeat -> watchdog
        kill), shard 2 tears an append mid-record, and the live server's
        first compute throws a transient."""
        return faults.FaultPlan(seed=1994, ledger=ledger, actions=(
            faults.FaultAction(site="shard.chunk", action="crash", index=1,
                               match={"shard": "0"}),
            faults.FaultAction(site="checkpoint.write", action="delay",
                               delay_s=30.0, index=0,
                               match={"path": "*.shard-1.checkpoint.json"}),
            faults.FaultAction(site="store.append", action="torn_write",
                               index=2, match={"store": "*.shard-2.jsonl"}),
            faults.FaultAction(site="serve.compute", action="exception",
                               index=0, message="chaos transient"),
        ))

    def test_storm_campaign_and_live_server_survive(self, tmp_path):
        obs.enable()
        space = small_space()
        points = space.expand()

        # the fault-free reference: a serial sweep, before any plan exists
        clean_path = str(tmp_path / "clean.jsonl")
        run_campaign(space, name="chaos", mode="predict",
                     store=ResultStore(clean_path))

        store_path = str(tmp_path / "chaos.jsonl")
        ledger = str(tmp_path / "ledger.txt")
        faults.install(self.chaos_plan(store_path, ledger))

        # 4 shards, 2-point chunks, an aggressive watchdog: the crash and
        # the torn write kill their workers outright, the hang is detected
        # by heartbeat staleness; all three shards respawn and complete
        run = run_sharded_campaign(
            space, shards=4, chunk_size=2, name="chaos", store=store_path,
            heartbeat_timeout_s=0.6, max_restarts=2)
        assert len(run.results) == len(points)
        assert run.merge_diff is not None and run.merge_diff.drifted == []
        restarts = {o.shard: o.restarts for o in run.per_shard}
        assert restarts[0] >= 1 and restarts[1] >= 1 and restarts[2] >= 1
        assert restarts[3] == 0

        # the live server answers through the planned transient: the first
        # compute raises, the retry layer absorbs it, the client sees 200
        with ServerThread(ServeOptions(port=0)) as (host, port):
            status, payload = post(f"http://{host}:{port}/predict",
                                   {"app": "laplace_block_star", "size": 16,
                                    "nprocs": 4, "machine": "ipsc860"})
            assert status == 200 and payload["served_from"] == "computed"
            status, health = post_health(host, port)
            assert status == 200 and health["status"] == "ok"
            assert health["resilience"]["faults_active"] is True
            assert health["resilience"]["retry_total"] == 1

        # counters reconcile against the plan: all four actions fired
        # exactly once campaign-wide (the ledger is the proof), only the
        # serve transient executed in *this* process, and its retry is the
        # only retry here
        fired = faults.fired()
        assert len(fired) == 4
        assert {aid.split(":")[1] for aid in fired} == set(faults.SITES)
        assert {aid.split(":")[2] for aid in fired} == set(faults.ACTIONS)
        assert faults.injected_total() == 1
        assert faults.retry_total() == 1
        flat = obs.get_registry().flatten()
        assert flat['repro_fault_injected_total{action="exception",site="serve.compute"}'] == 1
        assert flat['repro_worker_stalled_total{shard="1"}'] == 1
        assert sum(v for k, v in flat.items()
                   if k.startswith("repro_worker_restart_total")) == 3

        # the merged store is byte-identical to the fault-free serial sweep
        faults.clear()
        diff = store_diff(ResultStore(clean_path).results(),
                          ResultStore(store_path).results())
        assert diff.drifted == [] and not diff.added and not diff.removed
        with open(clean_path, "rb") as a, open(store_path, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [7, 23])
    def test_seeded_storms_converge_byte_identical(self, seed, tmp_path):
        """The full ``FaultPlan.storm``: destructive actions land wherever
        the seed says (any shard), and the campaign must still converge to
        a byte-identical store with every action fired exactly once."""
        space = small_space()
        clean_path = str(tmp_path / "clean.jsonl")
        run_campaign(space, name=f"storm-{seed}", mode="predict",
                     store=ResultStore(clean_path))

        store_path = str(tmp_path / "storm.jsonl")
        faults.install(faults.FaultPlan.storm(
            seed, hang_s=30.0, ledger=str(tmp_path / "ledger.txt")))
        run = run_sharded_campaign(
            space, shards=4, chunk_size=2, name=f"storm-{seed}",
            store=store_path, heartbeat_timeout_s=0.8, max_restarts=3)
        assert run.merge_diff is not None and run.merge_diff.drifted == []

        # cover every possible serve.compute index the seed may have drawn
        with ServerThread(ServeOptions(port=0)) as (host, port):
            for size in (16, 32, 64, 128):
                status, _payload = post(
                    f"http://{host}:{port}/predict",
                    {"app": "laplace_block_star", "size": size, "nprocs": 4,
                     "machine": "ipsc860"})
                assert status == 200

        assert len(faults.fired()) == 4
        faults.clear()
        with open(clean_path, "rb") as a, open(store_path, "rb") as b:
            assert a.read() == b.read()


def post_health(host, port):
    with urllib.request.urlopen(f"http://{host}:{port}/healthz",
                                timeout=30) as resp:
        return resp.status, json.loads(resp.read())
