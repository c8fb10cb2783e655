"""Sharded campaigns: partition properties, checkpoint schema, fault
injection (planned SIGKILL/torn-write mid-shard + checkpointed resume,
via :mod:`repro.faults`), watchdog respawn, multi-fidelity successive
halving, and the UCB bandit strategy."""

import json
import os
import random

import pytest

from repro import faults, obs
from repro.explore import (
    CHECKPOINT_SCHEMA_VERSION,
    CampaignCheckpoint,
    CampaignInterrupted,
    CheckpointError,
    ResultStore,
    STRATEGIES,
    ScenarioError,
    ScenarioSpace,
    ShardCheckpoint,
    checkpoint_path_for,
    partition_key,
    partition_points,
    run_campaign,
    run_sharded_campaign,
    segment_path,
    shard_checkpoint_path_for,
    shard_of,
    space_fingerprint,
)
from repro.explore.checkpoint import (
    decode_metric_delta,
    encode_metric_delta,
    load_checkpoint_payload,
    write_json_atomic,
)


@pytest.fixture(autouse=True)
def quiet_obs():
    obs.disable()
    obs.reset()
    faults.clear()
    yield
    obs.disable()
    obs.reset()
    faults.clear()


def small_space() -> ScenarioSpace:
    return ScenarioSpace(
        apps=("laplace_block_star", "laplace_block_block"),
        sizes=(16, 32), proc_counts=(2, 4),
        machines=("ipsc860", "paragon"))


# ---------------------------------------------------------------------------
# partition properties
# ---------------------------------------------------------------------------


class TestPartitioning:
    def test_true_partition_any_shard_count(self):
        points = small_space().expand()
        for shards in (1, 2, 3, 5, 7, 16, 64):
            parts = partition_points(points, shards)
            assert len(parts) == shards
            flat = [p for part in parts for p in part]
            assert sorted(flat, key=partition_key) \
                == sorted(points, key=partition_key)
            assert len(flat) == len(points)         # exactly one shard each
            for k, part in enumerate(parts):
                assert all(shard_of(p, shards) == k for p in part)

    def test_assignment_is_order_independent(self):
        points = small_space().expand()
        shuffled = list(points)
        random.Random(7).shuffle(shuffled)
        for shards in (2, 4, 9):
            direct = {partition_key(p): shard_of(p, shards) for p in points}
            again = {partition_key(p): shard_of(p, shards) for p in shuffled}
            assert direct == again

    def test_partition_key_is_content_stable(self):
        a, b = small_space().expand()[:2]
        assert partition_key(a) == partition_key(a)
        assert partition_key(a) != partition_key(b)
        assert len(partition_key(a)) == 64              # sha256 hex

    def test_fingerprint_order_independent_and_mode_sensitive(self):
        points = small_space().expand()
        shuffled = list(points)
        random.Random(3).shuffle(shuffled)
        assert space_fingerprint(points, "predict") \
            == space_fingerprint(shuffled, "predict")
        assert space_fingerprint(points, "predict") \
            != space_fingerprint(points, "measure")
        assert space_fingerprint(points, "predict") \
            != space_fingerprint(points[:-1], "predict")

    def test_shard_of_rejects_bad_counts(self):
        point = small_space().expand()[0]
        for bad in (0, -1, True, 2.0, "4"):
            with pytest.raises(ScenarioError):
                shard_of(point, bad)

    def test_segment_path_layout(self):
        assert segment_path("/tmp/results.jsonl", 3) \
            == "/tmp/results.shard-3.jsonl"
        assert segment_path("/tmp/results.jsonl", 0, "/elsewhere") \
            == "/elsewhere/results.shard-0.jsonl"


class TestShardsOneIsPlainCampaign:
    def test_store_is_bit_for_bit_identical(self, tmp_path):
        space = small_space()
        plain_path = tmp_path / "plain.jsonl"
        run_campaign(space, store=ResultStore(plain_path))
        sharded_path = tmp_path / "sharded.jsonl"
        run = run_sharded_campaign(space, shards=1, chunk_size=4,
                                   store=str(sharded_path))
        assert plain_path.read_bytes() == sharded_path.read_bytes()
        assert len(run.results) == len(space.expand())
        assert run.merge_diff.drifted == []

    def test_random_strategy_matches_plain_sample(self, tmp_path):
        space = small_space()
        plain = run_campaign(space, strategy="random", samples=6, seed=11,
                             store=ResultStore(tmp_path / "p.jsonl"))
        sharded = run_sharded_campaign(
            space, shards=1, strategy="random", samples=6, seed=11,
            store=str(tmp_path / "s.jsonl"))
        assert [r.key for r in sharded.results] \
            == [r.key for r in plain.results]
        assert (tmp_path / "p.jsonl").read_bytes() \
            == (tmp_path / "s.jsonl").read_bytes()

    @pytest.mark.parametrize("mode", ["predict", "both", "measure"])
    def test_multi_shard_merge_matches_single_process_run(self, tmp_path,
                                                          mode):
        space = small_space()
        plain = run_campaign(space, mode=mode,
                             store=ResultStore(tmp_path / "p.jsonl"))
        run = run_sharded_campaign(space, mode=mode, shards=4, chunk_size=3,
                                   store=str(tmp_path / "s.jsonl"))
        # results come back in space-expansion order with identical records
        assert [r.key for r in run.results] == [r.key for r in plain.results]
        assert (tmp_path / "p.jsonl").read_bytes() \
            == (tmp_path / "s.jsonl").read_bytes()
        assert run.merge_diff.drifted == []
        assert sum(o.points_done for o in run.per_shard) == len(run.results)


# ---------------------------------------------------------------------------
# checkpoint schema
# ---------------------------------------------------------------------------


class TestCheckpointSchema:
    def test_atomic_write_and_load(self, tmp_path):
        path = str(tmp_path / "x.checkpoint.json")
        write_json_atomic(path, {"format": "repro-shard-checkpoint",
                                 "schema": 1, "shard": 0})
        payload = load_checkpoint_payload(path, "repro-shard-checkpoint")
        assert payload["shard"] == 0
        assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]

    def test_foreign_format_rejected(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json_atomic(path, {"format": "something-else", "schema": 1})
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint_payload(path, "repro-campaign-checkpoint")

    def test_future_schema_rejected(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json_atomic(path, {"format": "repro-campaign-checkpoint",
                                 "schema": CHECKPOINT_SCHEMA_VERSION + 1})
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint_payload(path, "repro-campaign-checkpoint")

    def test_unreadable_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint_payload(str(path), "repro-campaign-checkpoint")

    def test_shard_checkpoint_roundtrip(self, tmp_path):
        path = str(tmp_path / "seg.checkpoint.json")
        ckpt = ShardCheckpoint(campaign="c", fingerprint="f", shard=2,
                               shards=4, mode="predict", chunk_size=8,
                               total_points=100, chunks_done=3,
                               points_done=24, store_hits=5,
                               fresh_evaluations=19, wall_s=1.25)
        ckpt.write(path)
        back = ShardCheckpoint.load(path)
        assert back.shard == 2 and back.chunks_done == 3
        assert back.fresh_evaluations == 19
        assert back.status == "running"

    def test_validate_resume_lists_every_mismatch(self, tmp_path):
        ckpt = CampaignCheckpoint(name="c", mode="predict", strategy="grid",
                                  fingerprint="abc", shards=4, chunk_size=8,
                                  total_points=10)
        with pytest.raises(CheckpointError) as err:
            ckpt.validate_resume("p", fingerprint="xyz", shards=2,
                                 chunk_size=16, mode="measure")
        message = str(err.value)
        for fragment in ("fingerprint", "shards 4 != 2",
                         "chunk_size 8 != 16", "mode"):
            assert fragment in message
        # matching arguments pass
        ckpt.validate_resume("p", fingerprint="abc", shards=4,
                             chunk_size=8, mode="predict")

    def test_metric_delta_roundtrip(self):
        delta = {
            ("counter", "repro_x_total", (("mode", "predict"),)): {"value": 3},
            ("histogram", "repro_y_us", ()): {"count": 2, "sum": 10.5},
        }
        encoded = encode_metric_delta(delta)
        json.dumps(encoded)                          # JSON-able
        assert decode_metric_delta(encoded) == delta
        assert decode_metric_delta(None) == {}
        assert encode_metric_delta(None) == []

    def test_checkpoint_paths(self):
        assert checkpoint_path_for("/d/store.jsonl") \
            == "/d/store.checkpoint.json"
        assert shard_checkpoint_path_for("/d/store.shard-2.jsonl") \
            == "/d/store.shard-2.checkpoint.json"


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_rejects_bad_arguments(self, tmp_path):
        space = small_space()
        store = str(tmp_path / "s.jsonl")
        with pytest.raises(ScenarioError, match="mode"):
            run_sharded_campaign(space, mode="nope", store=store)
        with pytest.raises(ScenarioError, match="decompose"):
            run_sharded_campaign(space, strategy="hillclimb", store=store)
        with pytest.raises(ScenarioError, match="fidelity"):
            run_sharded_campaign(space, fidelity="bogus", store=store)
        with pytest.raises(ScenarioError, match="screen"):
            run_sharded_campaign(space, fidelity="screen+sim",
                                 mode="measure", store=store)
        with pytest.raises(ScenarioError, match="shards"):
            run_sharded_campaign(space, shards=0, store=store)
        with pytest.raises(ScenarioError, match="chunk_size"):
            run_sharded_campaign(space, chunk_size=0, store=store)

    def test_interrupted_resume_refuses_a_different_geometry(self, tmp_path):
        store = str(tmp_path / "s.jsonl")
        space = small_space()
        # kill shard 0's worker at the top of its first chunk
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="shard.chunk", action="crash", index=0,
                               match={"shard": "0"}),)))
        with pytest.raises(CampaignInterrupted):
            run_sharded_campaign(space, shards=2, store=store,
                                 chunk_size=2, max_restarts=0)
        faults.clear()
        # an *interrupted* campaign's segments are keyed to its geometry:
        # resuming with a different shard count or chunk size is refused
        with pytest.raises(CheckpointError, match="shards"):
            run_sharded_campaign(space, shards=3, store=store, chunk_size=2)
        with pytest.raises(CheckpointError, match="chunk_size"):
            run_sharded_campaign(space, shards=2, store=store, chunk_size=4)

    def test_merged_campaign_ignores_geometry_changes(self, tmp_path):
        store = str(tmp_path / "s.jsonl")
        space = small_space()
        run_sharded_campaign(space, shards=2, store=store)
        # merged + same fingerprint: the canonical store answers everything;
        # sharding geometry is segment bookkeeping the fast path never uses
        rerun = run_sharded_campaign(space, shards=3, store=store,
                                     chunk_size=7)
        assert rerun.resumed
        assert rerun.evaluated == 0
        assert rerun.store_hits == len(space.expand())

    def test_finished_campaign_of_other_space_is_replaced(self, tmp_path):
        store = str(tmp_path / "s.jsonl")
        run_sharded_campaign(small_space(), shards=2, store=store)
        other = ScenarioSpace(apps=("laplace_star_block",), sizes=(16,),
                              proc_counts=(2, 4))
        run = run_sharded_campaign(other, shards=2, store=store)
        assert len(run.results) == 2
        assert not run.resumed


# ---------------------------------------------------------------------------
# fault injection: SIGKILL a worker mid-shard, resume, byte-identity
# (planned through the repro.faults API; the plan rides the fork)
# ---------------------------------------------------------------------------


class TestFaultInjection:
    CHUNK = 2
    #: planned death mid-chunk-1, after one record of it was committed
    KEEP_RECORDS = 1

    def fault_setup(self):
        """A space plus the shard/chunk layout the fault will hit."""
        space = small_space()
        points = space.expand()
        parts = partition_points(points, 2)
        # kill the worker of the fuller shard on its second chunk
        shard = max(range(2), key=lambda k: len(parts[k]))
        assert len(parts[shard]) > 2 * self.CHUNK, "space too small for test"
        return space, points, parts, shard

    def kill_plan(self, store, shard, action="crash"):
        """Die at the victim shard's segment append number ``CHUNK + KEEP``:
        chunk 0 commits ``CHUNK`` records, then ``KEEP_RECORDS`` of chunk 1
        land before the worker dies mid-chunk."""
        return faults.FaultPlan(actions=(
            faults.FaultAction(
                site="store.append", action=action,
                index=self.CHUNK + self.KEEP_RECORDS,
                match={"store": os.path.basename(segment_path(store,
                                                              shard))}),))

    def test_sigkill_resume_recomputes_at_most_one_chunk(self, tmp_path):
        space, points, parts, shard = self.fault_setup()
        store = str(tmp_path / "campaign.jsonl")
        faults.install(self.kill_plan(store, shard))

        with pytest.raises(CampaignInterrupted) as err:
            run_sharded_campaign(space, shards=2, chunk_size=self.CHUNK,
                                 store=store, max_restarts=0)
        faults.clear()
        assert err.value.failed and err.value.failed[0][0] == shard
        assert os.path.exists(err.value.checkpoint_path)

        # the shard checkpoint survived at its last committed chunk
        seg = segment_path(store, shard)
        ckpt = ShardCheckpoint.load(shard_checkpoint_path_for(seg))
        assert ckpt.status == "running"              # died, never finalised
        assert ckpt.chunks_done == 1
        campaign_ckpt = CampaignCheckpoint.load(checkpoint_path_for(store))
        assert campaign_ckpt.status == "interrupted"

        # resume with identical arguments: committed points are store hits;
        # of the work actually done before the kill, at most one chunk
        # (the torn one) is recomputed
        run = run_sharded_campaign(space, shards=2, chunk_size=self.CHUNK,
                                   store=store)
        assert run.resumed
        outcome = run.per_shard[shard]
        committed = self.CHUNK + self.KEEP_RECORDS  # chunk 0 + kept records
        assert outcome.store_hits == committed
        assert outcome.fresh_evaluations == len(parts[shard]) - committed
        # the surviving shard was never re-run
        other = run.per_shard[1 - shard]
        assert other.skipped and other.fresh_evaluations == 0
        assert other.store_hits == len(parts[1 - shard])
        assert len(run.results) == len(points)
        assert run.merge_diff.drifted == []
        assert CampaignCheckpoint.load(
            checkpoint_path_for(store)).status == "merged"

    def test_merged_store_byte_identical_to_uninterrupted_run(self, tmp_path):
        space, _points, _parts, shard = self.fault_setup()
        clean = str(tmp_path / "clean" / "campaign.jsonl")
        run_sharded_campaign(space, shards=2, chunk_size=self.CHUNK,
                             store=clean)
        torn = str(tmp_path / "torn" / "campaign.jsonl")
        faults.install(self.kill_plan(torn, shard, action="torn_write"))
        with pytest.raises(CampaignInterrupted):
            run_sharded_campaign(space, shards=2, chunk_size=self.CHUNK,
                                 store=torn, max_restarts=0)
        faults.clear()
        # the torn segment really is torn (no trailing newline on a fragment)
        seg_bytes = open(segment_path(torn, shard), "rb").read()
        assert not seg_bytes.endswith(b"\n")
        run = run_sharded_campaign(space, shards=2, chunk_size=self.CHUNK,
                                   store=torn)
        assert open(clean, "rb").read() == open(torn, "rb").read()
        assert run.merge_diff.drifted == []

    def test_crash_respawn_completes_without_interruption(self, tmp_path):
        """With a restart budget and a shared fire-once ledger, a planned
        worker death is absorbed: the watchdog respawns the shard, the
        respawn resumes from the segment, and the campaign finishes."""
        space, points, _parts, shard = self.fault_setup()
        store = str(tmp_path / "campaign.jsonl")
        ledger = str(tmp_path / "faults.ledger")
        plan = self.kill_plan(store, shard)
        faults.install(faults.FaultPlan(actions=plan.actions, ledger=ledger))
        run = run_sharded_campaign(space, shards=2, chunk_size=self.CHUNK,
                                   store=store, max_restarts=2)
        assert len(run.results) == len(points)
        assert run.per_shard[shard].restarts == 1
        assert run.per_shard[1 - shard].restarts == 0
        assert run.merge_diff.drifted == []
        assert len(faults.fired()) == 1              # the ledger remembers

    def test_poison_chunk_quarantined_after_restart_budget(self, tmp_path):
        """A shard that dies at the same chunk through its whole restart
        budget gets that chunk quarantined to a sidecar instead of the
        coordinator looping forever."""
        space, _points, _parts, shard = self.fault_setup()
        store = str(tmp_path / "campaign.jsonl")
        # no ledger and index=None: *every* spawn of this shard's worker
        # crashes at its first chunk — a deterministic poison chunk
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="shard.chunk", action="crash",
                               match={"shard": str(shard)}),)))
        with pytest.raises(CampaignInterrupted) as err:
            run_sharded_campaign(space, shards=2, chunk_size=self.CHUNK,
                                 store=store, max_restarts=1)
        faults.clear()
        reason = dict(err.value.failed)[shard]
        assert "quarantined" in reason
        sidecar = os.path.splitext(segment_path(store, shard))[0] \
            + ".quarantine.json"
        assert os.path.exists(sidecar)
        payload = json.load(open(sidecar))
        assert payload["format"] == "repro-poison-chunk"
        assert payload["shard"] == shard
        assert payload["chunk"] == 0
        assert payload["failures"] == 2              # initial death + respawn
        assert payload["points"]                     # names the poison

    def test_rerun_after_merge_is_pure_store_hits(self, tmp_path):
        space = small_space()
        store = str(tmp_path / "c.jsonl")
        first = run_sharded_campaign(space, shards=2, store=store)
        assert first.evaluated == len(first.results)
        again = run_sharded_campaign(space, shards=2, store=store)
        assert again.resumed
        assert again.evaluated == 0
        assert again.store_hits == len(first.results)
        assert [r.key for r in again.results] \
            == [r.key for r in first.results]

    def test_segment_dir_keeps_artifacts_away_from_store(self, tmp_path):
        space = small_space()
        store = str(tmp_path / "canon" / "c.jsonl")
        segdir = str(tmp_path / "segments")
        run = run_sharded_campaign(space, shards=2, store=store,
                                   segment_dir=segdir)
        assert len(run.results) == len(space.expand())
        assert os.path.exists(os.path.join(segdir, "c.shard-0.jsonl"))
        assert not os.path.exists(segment_path(store, 0))
        assert run.checkpoint_path == os.path.join(segdir,
                                                   "c.checkpoint.json")

    def test_keep_segments_false_cleans_up(self, tmp_path):
        space = small_space()
        store = str(tmp_path / "c.jsonl")
        run_sharded_campaign(space, shards=2, store=store,
                             keep_segments=False)
        assert not os.path.exists(segment_path(store, 0))
        assert not os.path.exists(segment_path(store, 1))
        assert os.path.exists(store)
        # the campaign checkpoint remains as the record of the merge
        assert CampaignCheckpoint.load(
            checkpoint_path_for(store)).status == "merged"


# ---------------------------------------------------------------------------
# observability integration
# ---------------------------------------------------------------------------


class TestShardedObs:
    def test_per_shard_and_merged_manifests(self, tmp_path):
        obs.enable()
        space = small_space()
        store = str(tmp_path / "c.jsonl")
        run = run_sharded_campaign(space, shards=2, store=store)
        assert run.manifest is not None
        merged = json.loads(open(obs.manifest_path_for(store)).read())
        assert merged["executor"] == "sharded"
        assert merged["points_evaluated"] == len(run.results)
        for k in range(2):
            seg_manifest = obs.manifest_path_for(segment_path(store, k))
            if run.per_shard[k].total_points:
                assert os.path.exists(seg_manifest)

    def test_worker_metric_deltas_merge_into_parent(self, tmp_path):
        obs.enable()
        space = small_space()
        run = run_sharded_campaign(space, shards=2,
                                   store=str(tmp_path / "c.jsonl"))
        flat = obs.get_registry().flatten()
        evaluated = sum(
            value for name, value in flat.items()
            if name.startswith("repro_campaign_points_evaluated_total"))
        assert evaluated >= len(run.results)


# ---------------------------------------------------------------------------
# multi-fidelity: screen with predict, corroborate survivors with the sim
# ---------------------------------------------------------------------------


class TestMultiFidelity:
    def test_successive_halving_schedule(self, tmp_path):
        space = small_space()
        run = run_sharded_campaign(space, shards=2,
                                   store=str(tmp_path / "c.jsonl"),
                                   fidelity="screen+sim", sim_top=2, eta=2)
        assert run.fidelity == "screen+sim"
        kinds = [kind for kind, _cands, _keep in run.rungs]
        assert kinds[0] == "screen" and "sim" in kinds[1:]
        screen_kind, screened, opening = run.rungs[0]
        assert screened == len(run.results)
        assert opening == min(len(run.results), 2 * 2 * 2)  # sim_top*eta^2
        # rungs shrink monotonically down to sim_top
        sim_rungs = [(c, k) for kind, c, k in run.rungs[1:] if kind == "sim"]
        for candidates, keep in sim_rungs[:-1]:
            assert keep <= candidates
        assert len(run.corroborated) == 2
        assert all(r.mode == "measure" for r in run.corroborated)
        assert all(r.measured_us is not None for r in run.corroborated)
        assert run.best_corroborated().objective_us \
            == min(r.objective_us for r in run.corroborated)

    def test_screen_results_untouched_and_store_holds_both_modes(
            self, tmp_path):
        space = small_space()
        store_path = str(tmp_path / "c.jsonl")
        run = run_sharded_campaign(space, shards=1, store=store_path,
                                   fidelity="screen+sim", sim_top=2)
        assert all(r.mode == "predict" for r in run.results)
        store = ResultStore(store_path)
        modes = {r.mode for r in store.results()}
        assert modes == {"predict", "measure"}

    def test_plain_run_has_no_corroborated(self, tmp_path):
        run = run_sharded_campaign(small_space(), shards=2,
                                   store=str(tmp_path / "c.jsonl"))
        assert run.corroborated == [] and run.rungs == []
        with pytest.raises(ScenarioError, match="corroborated"):
            run.best_corroborated()


# ---------------------------------------------------------------------------
# the bandit strategy
# ---------------------------------------------------------------------------


class TestBanditStrategy:
    def test_registered_and_deterministic(self):
        assert "bandit" in STRATEGIES
        space = small_space()
        a = run_campaign(space, strategy="bandit", max_steps=8, seed=5)
        b = run_campaign(space, strategy="bandit", max_steps=8, seed=5)
        assert [r.key for r in a.trajectory] == [r.key for r in b.trajectory]
        assert len(a.trajectory) == 8

    def test_warm_up_covers_every_arm(self):
        space = small_space()
        run = run_campaign(space, strategy="bandit", max_steps=6, seed=1)
        pulled_apps = {r.point.app for r in run.results}
        assert pulled_apps == set(space.apps)

    def test_trajectory_is_best_so_far(self):
        run = run_campaign(small_space(), strategy="bandit", max_steps=10,
                           seed=2)
        objectives = [r.objective_us for r in run.trajectory]
        assert objectives == sorted(objectives, reverse=True) \
            or all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_exploration_constant_zero_is_greedy(self):
        run = run_campaign(small_space(), strategy="bandit", max_steps=8,
                           seed=4, ucb_c=0.0)
        assert len(run.trajectory) == 8
        assert run.best().objective_us \
            == min(r.objective_us for r in run.results)
