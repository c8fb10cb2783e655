"""Tests for the design-space exploration subsystem (`repro.explore`):
scenario spaces with validity filtering, the persistent content-addressed
result store (round-trip, resume, hash stability, schema rejection), the
campaign strategies (grid / random / hill-climb) with store memoisation, the
report renderers, and the campaign-backed workbench presets."""

import json
import math

import pytest

from repro.explore import (
    Campaign,
    ProgramSpec,
    ResultStore,
    ScenarioError,
    ScenarioPoint,
    ScenarioSpace,
    ScenarioResult,
    StoreError,
    StoreSchemaError,
    best_config_table,
    campaign_report,
    error_table,
    evaluate_point,
    laplace_design_space,
    pareto_frontier,
    pareto_table,
    quarantine_path_for,
    run_campaign,
    run_sharded_campaign,
    scenario_key,
)
from repro.explore.store import STORE_FORMAT, STORE_SCHEMA_VERSION, prediction_error_pct
from repro.workbench import (
    AblationPoint,
    AccuracyPoint,
    LaplacePoint,
    MachinePoint,
    forall_scaling_campaign,
    laplace_study_campaign,
    machine_comparison_campaign,
    run_forall_scaling,
    run_laplace_study,
    run_machine_comparison,
)

SMALL_SPACE = ScenarioSpace(
    apps=("laplace_block_star",),
    sizes=(16,),
    proc_counts=(2, 4),
    machines=("ipsc860",),
)


def small_result(nprocs=2, estimated=1000.0, measured=None) -> ScenarioResult:
    return ScenarioResult(
        point=ScenarioPoint(app="laplace_block_star", size=16, nprocs=nprocs),
        mode="predict" if measured is None else "both",
        estimated_us=estimated, measured_us=measured,
        comp_us=600.0, comm_us=300.0, ovhd_us=100.0, grid_shape=(nprocs,),
    )


class TestScenarioSpace:
    def test_cardinality_and_expansion(self):
        space = ScenarioSpace(apps=("lfk1", "lfk3"), sizes=(128, 512),
                              proc_counts=(2, 4, 8), machines=("ipsc860", "paragon"))
        assert space.cardinality() == 24
        points = space.expand()
        assert len(points) == 24
        assert len(set(points)) == 24          # hashable and distinct

    def test_scalar_axes_coerced(self):
        space = ScenarioSpace(apps="lfk1", sizes=128, proc_counts=4)
        assert space.expand() == [
            ScenarioPoint(app="lfk1", size=128, nprocs=4, machine="ipsc860")]

    def test_single_shape_pair_coerced(self):
        space = ScenarioSpace(apps=("lfk1",), sizes=(128,), proc_counts=(8,),
                              machines=("paragon",), topology_shapes=(2, 4))
        assert space.topology_shapes == ((2, 4),)

    def test_malformed_param_sets_get_a_clear_error(self):
        with pytest.raises(ScenarioError, match="param_sets"):
            ScenarioSpace(apps=("lfk1",), sizes=(128,), proc_counts=(4,),
                          param_sets=(("maxiter", 3.0),))

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpace(apps=(), sizes=(16,), proc_counts=(2,))

    def test_unknown_app_rejected_up_front(self):
        with pytest.raises(KeyError):
            ScenarioSpace(apps=("nosuch",), sizes=(16,), proc_counts=(2,)).expand()

    def test_laplace_points_carry_paper_grid_shapes(self):
        space = ScenarioSpace(apps=("laplace_block_star",), sizes=(16,),
                              proc_counts=(8,))
        [point] = space.expand()
        assert point.grid_shape == (8,)

    def test_shape_filtering(self):
        space = ScenarioSpace(
            apps=("lfk1",), sizes=(128,), proc_counts=(4, 8),
            machines=("paragon", "cluster"),
            topology_shapes=(None, (2, 4)),
        )
        valid, rejects = space.expand_with_rejects()
        # shapes only attach to the mesh machine at nprocs=8
        shaped = [p for p in valid if p.topology_shape is not None]
        assert [(p.machine, p.nprocs) for p in shaped] == [("paragon", 8)]
        reasons = {reason for _, reason in rejects}
        assert any("does not hold" in reason for reason in reasons)
        assert any("takes no (rows, cols) shape" in reason for reason in reasons)

    def test_where_predicate_records_rejects(self):
        valid, rejects = SMALL_SPACE.expand_with_rejects(
            where=lambda p: p.nprocs > 2)
        assert [p.nprocs for p in valid] == [4]
        assert rejects[0][1] == "excluded by where-predicate"

    def test_neighbors_differ_in_exactly_one_axis(self):
        space = laplace_design_space(sizes=(64, 128), proc_counts=(2, 4),
                                     machines=("ipsc860", "paragon"))
        points = space.expand()
        point = points[0]
        for other in space.neighbors(point, points):
            differing = sum((other.app != point.app, other.size != point.size,
                             other.nprocs != point.nprocs,
                             other.machine != point.machine))
            assert differing == 1

    def test_point_round_trips_through_scenario_dict(self):
        point = ScenarioPoint(app="lfk1", size=128, nprocs=8, machine="paragon",
                              topology_shape=(2, 4), params=(("maxiter", 5.0),))
        assert ScenarioPoint.from_scenario_dict(point.scenario_dict()) == point


class TestScenarioKey:
    def test_stable_across_processes_and_runs(self):
        # pinned golden: the canonicalisation (sort_keys, separators, sha256
        # prefix) is a persistence contract — changing it orphans every
        # existing store file, so a change here must be deliberate
        point = ScenarioPoint(app="lfk1", size=128, nprocs=4)
        assert scenario_key(point.scenario_dict(), "predict") == \
            "63a698444328e432d0e3"

    def test_mode_and_shape_and_params_change_the_key(self):
        point = ScenarioPoint(app="lfk1", size=128, nprocs=4)
        base = scenario_key(point.scenario_dict(), "predict")
        assert scenario_key(point.scenario_dict(), "both") != base
        shaped = ScenarioPoint(app="lfk1", size=128, nprocs=4,
                               machine="paragon", topology_shape=(2, 2))
        assert scenario_key(shaped.scenario_dict(), "predict") != base
        assert scenario_key(point.scenario_dict(), "predict",
                            program_source="x = 1") != base

    def test_key_is_independent_of_result_values(self):
        a = small_result(estimated=1.0)
        b = small_result(estimated=99.0)
        assert a.key == b.key


class TestPredictionError:
    def test_definition_and_nan_rule(self):
        assert prediction_error_pct(1100.0, 1000.0) == abs(1100.0 - 1000.0) / 1000.0 * 100.0
        assert prediction_error_pct(900.0, 1000.0) == prediction_error_pct(1100.0, 1000.0)
        assert prediction_error_pct(1000.0, 1000.0) == 0.0
        for estimated, measured in [(None, 1000.0), (1000.0, None),
                                    (1000.0, 0.0), (1000.0, -5.0)]:
            assert math.isnan(prediction_error_pct(estimated, measured))

    def test_every_point_type_shares_the_definition(self):
        def points(estimated, measured):
            return [
                small_result(estimated=estimated, measured=measured),
                AccuracyPoint("lfk1", 128, 4, estimated, measured),
                AblationPoint("full", "lfk1", 128, 4, estimated, measured),
                MachinePoint("ipsc860", "lfk1", 128, 4, estimated, measured),
                LaplacePoint("block_star", 64, 4, (2, 2), estimated, measured),
            ]

        for point in points(1234.5, 1111.1):
            assert point.abs_error_pct == prediction_error_pct(1234.5, 1111.1)
        for point in points(1234.5, 0.0):
            assert math.isnan(point.abs_error_pct)


class TestResultStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        result = small_result(measured=1100.0)
        assert store.add(result)
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        got = reloaded.get_point(result.point, "both")
        assert got.estimated_us == result.estimated_us
        assert got.measured_us == result.measured_us
        assert got.point == result.point
        assert got.grid_shape == result.grid_shape

    def test_add_is_idempotent_unless_replace(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.add(small_result(estimated=1.0))
        assert not store.add(small_result(estimated=2.0))
        assert store.get_point(small_result().point, "predict").estimated_us == 1.0
        assert store.add(small_result(estimated=3.0), replace=True)
        assert ResultStore(store.path).get_point(
            small_result().point, "predict").estimated_us == 3.0

    def test_resume_after_partial_campaign(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add(small_result(nprocs=2))
        # interruption mid-append leaves a torn trailing line
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn-rec')
        resumed = ResultStore(path)
        assert len(resumed) == 1
        run = run_campaign(SMALL_SPACE, store=resumed, mode="predict")
        assert run.store_hits + run.evaluated == 2

    def test_torn_tail_is_repaired_so_later_appends_stay_clean(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add(small_result(nprocs=2))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn-rec')
        resumed = ResultStore(path)
        resumed.add(small_result(nprocs=4))     # must not land on the torn line
        reloaded = ResultStore(path)            # and the file must stay loadable
        assert len(reloaded) == 2
        assert reloaded.get_point(small_result(nprocs=4).point, "predict")

    def test_append_repairs_a_lost_final_newline(self, tmp_path):
        # a complete final record missing only its newline must not have the
        # next append concatenated onto it (which would read as a torn tail
        # on the following load and silently drop both records)
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add(small_result(nprocs=2))
        with open(path, "rb+") as fh:
            fh.seek(-1, 2)
            fh.truncate()                       # strip the trailing "\n"
        fresh = ResultStore(path)
        assert len(fresh) == 1
        fresh.add(small_result(nprocs=4))
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.get_point(small_result(nprocs=2).point, "predict")
        assert reloaded.get_point(small_result(nprocs=4).point, "predict")

    def test_corrupt_mid_file_quarantined_and_compacted(self, tmp_path):
        # a bad *mid-file* line (not a torn tail) must not poison the store:
        # it is moved verbatim to the quarantine sidecar, the main file is
        # compacted, and every good record survives
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        store.add(small_result())
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get_point(small_result().point, "predict")
        sidecar = quarantine_path_for(path)
        assert open(sidecar).read() == "not json\n"
        # the compacted file is clean: loading again quarantines nothing new
        again = ResultStore(path)
        assert len(again) == 1
        assert open(sidecar).read() == "not json\n"
        assert "not json" not in open(path).read()

    def test_json_but_not_a_record_is_quarantined(self, tmp_path):
        # structurally valid JSON that is not a result record (missing
        # scenario) is just as poisonous and goes the same way
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.add(small_result())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "not-a-record"}\n')
        store.add(small_result(nprocs=4))
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert '"not-a-record"' in open(quarantine_path_for(path)).read()

    def test_schema_version_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"format": STORE_FORMAT,
                                 "schema": STORE_SCHEMA_VERSION + 1}) + "\n")
        with pytest.raises(StoreSchemaError):
            ResultStore(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(StoreError):
            ResultStore(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(StoreError):
            ResultStore(empty)


class TestEvaluatePoint:
    def test_predict_only(self):
        result = evaluate_point(ScenarioPoint(app="lfk1", size=128, nprocs=4))
        assert result.estimated_us > 0
        assert result.measured_us is None
        assert result.comp_us > 0
        assert result.grid_shape == (4,)

    def test_both_matches_direct_pipeline(self):
        from repro import interpret, simulate
        from repro.suite import get_entry
        from repro.system import get_machine

        point = ScenarioPoint(app="lfk3", size=128, nprocs=4, machine="paragon")
        result = evaluate_point(point, mode="both")
        entry = get_entry("lfk3")
        compiled = entry.compile(128, 4)
        machine = get_machine("paragon", 4)
        est = interpret(compiled, machine, options=entry.interpreter_options(128))
        sim = simulate(compiled, machine)
        assert result.estimated_us == pytest.approx(est.predicted_time_us)
        assert result.measured_us == pytest.approx(sim.measured_time_us)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            evaluate_point(ScenarioPoint(app="lfk1", size=128, nprocs=4),
                           mode="guess")

    def test_topology_shape_reaches_the_machine(self):
        shaped = evaluate_point(ScenarioPoint(
            app="laplace_block_block", size=16, nprocs=8,
            machine="paragon", topology_shape=(1, 8)))
        default = evaluate_point(ScenarioPoint(
            app="laplace_block_block", size=16, nprocs=8, machine="paragon"))
        assert shaped.estimated_us != default.estimated_us


class TestCampaignAcceptance:
    """The acceptance scenario: one run_campaign call sweeping
    (3 machines x 2 distributions x 3 sizes x 3 nprocs), with every point
    persisted and a re-run served entirely from the store."""

    SPACE = ScenarioSpace(
        apps=("laplace_block_star", "laplace_star_block"),
        sizes=(16, 32, 64),
        proc_counts=(2, 4, 8),
        machines=("ipsc860", "paragon", "torus-cluster"),
    )

    def test_full_sweep_persists_and_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run = run_campaign(self.SPACE, store=store, mode="predict")
        total = 2 * 3 * 3 * 3
        assert len(run.results) == total
        assert run.evaluated == total and run.store_hits == 0
        assert len(store) == total                   # every point persisted

        rerun = run_campaign(self.SPACE, store=ResultStore(store.path),
                             mode="predict")
        assert rerun.store_hits == total             # 100% hits...
        assert rerun.evaluated == 0                  # ...no re-evaluation
        for first, second in zip(run.results, rerun.results):
            assert first.point == second.point
            assert first.estimated_us == second.estimated_us

    def test_parallel_matches_serial(self, tmp_path):
        # run_sharded_campaign is the one parallel path; its forked workers
        # must price every point exactly as the in-process run does
        space = ScenarioSpace(apps=("lfk3",), sizes=(128, 512),
                              proc_counts=(2, 4), machines=("ipsc860", "cluster"))
        parallel = run_sharded_campaign(space, shards=2,
                                        store=str(tmp_path / "s.jsonl"))
        serial = run_campaign(space)
        assert len(parallel.results) == len(serial.results) == 8
        for a, b in zip(parallel.results, serial.results):
            assert a.point == b.point
            assert a.estimated_us == b.estimated_us

    def test_duplicate_points_evaluated_once(self):
        run = run_campaign(SMALL_SPACE)
        rerun_same_memo = run_campaign(SMALL_SPACE)
        assert run.evaluated == rerun_same_memo.evaluated == 2


class TestStrategies:
    SPACE = laplace_design_space(sizes=(16, 32), proc_counts=(2, 4, 8),
                                 machines=("ipsc860", "paragon", "torus-cluster"))

    def test_random_sampling_is_seeded_subset(self):
        first = run_campaign(self.SPACE, strategy="random", samples=6, seed=11)
        second = run_campaign(self.SPACE, strategy="random", samples=6, seed=11)
        assert len(first.results) == 6
        assert [r.point for r in first.results] == [r.point for r in second.results]
        pool = set(self.SPACE.expand())
        assert all(r.point in pool for r in first.results)

    def test_hillclimb_improves_monotonically(self):
        run = run_campaign(self.SPACE, strategy="hillclimb", seed=7)
        objectives = [r.objective_us for r in run.trajectory]
        assert objectives == sorted(objectives, reverse=True)
        assert run.trajectory[-1].objective_us <= run.trajectory[0].objective_us
        # hill-climb explores a subset of the grid
        assert run.evaluated <= len(self.SPACE.expand())

    def test_store_hits_mean_the_store_not_memo_revisits(self, tmp_path):
        # without a store, re-encountered neighbours are free memo dedup
        run = run_campaign(self.SPACE, strategy="hillclimb", seed=7)
        assert run.store_hits == 0
        # with a pre-populated store, hits reflect persistent lookups
        store = ResultStore(tmp_path / "hc.jsonl")
        run_campaign(self.SPACE, store=store)
        climb = run_campaign(self.SPACE, strategy="hillclimb", seed=7,
                             store=ResultStore(store.path))
        assert climb.evaluated == 0
        assert climb.store_hits == len(climb.results)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ScenarioError):
            run_campaign(SMALL_SPACE, strategy="annealing")

    @pytest.mark.parametrize("executor",
                             ["thread", "process", "auto", "processes"])
    def test_unknown_executor_rejected(self, executor):
        from repro.explore import evaluate_points
        with pytest.raises(ScenarioError, match="run_sharded_campaign"):
            evaluate_points(SMALL_SPACE.expand(), executor=executor)


class TestReports:
    def run(self):
        return run_campaign(ScenarioSpace(
            apps=("laplace_block_star",), sizes=(16,), proc_counts=(2, 4, 8),
            machines=("ipsc860", "torus-cluster")), mode="predict")

    def test_best_config_table_renders(self):
        run = self.run()
        table = best_config_table(run.results)
        assert "laplace_block_star" in table
        assert "best config" in table

    def test_pareto_frontier_is_undominated(self):
        run = self.run()
        frontier = pareto_frontier(run.results)
        assert frontier
        for member in frontier:
            for other in run.results:
                assert not (other.point.nprocs < member.point.nprocs
                            and other.objective_us < member.objective_us)
        assert "Pareto" in pareto_table(run.results)

    def test_error_table_needs_simulated_points(self):
        run = self.run()
        assert "(no simulated points)" in error_table(run.results)
        both = run_campaign(SMALL_SPACE, mode="both")
        table = error_table(both.results)
        assert "laplace_block_star" in table and "%" in table

    def test_campaign_report_composes(self):
        run = self.run()
        report = campaign_report(run)
        assert "strategy=grid" in report
        assert "Best configuration" in report


class TestAdHocPrograms:
    def test_forall_scaling_runs_without_suite_entry(self):
        run = run_forall_scaling(ns=(32,), proc_counts=(2, 4),
                                 machines=("ipsc860",))
        assert len(run.results) == 2
        assert all(r.estimated_us > 0 for r in run.results)

    def test_program_source_feeds_the_content_hash(self, tmp_path):
        campaign = forall_scaling_campaign(ns=(32,), proc_counts=(2,),
                                           machines=("ipsc860",))
        store = ResultStore(tmp_path / "adhoc.jsonl")
        first = campaign.run(store=store)
        assert first.evaluated == 1
        second = campaign.run(store=ResultStore(store.path))
        assert second.store_hits == 1 and second.evaluated == 0

    def test_adhoc_results_keep_their_key_through_a_reload(self, tmp_path):
        # the program sha is persisted, so a loaded record's recomputed .key
        # matches the key it is stored under (campaign_smoke relies on this)
        campaign = forall_scaling_campaign(ns=(32,), proc_counts=(2,),
                                           machines=("ipsc860",))
        store = ResultStore(tmp_path / "adhoc.jsonl")
        campaign.run(store=store)
        reloaded = ResultStore(store.path)
        for key, result in zip(reloaded.keys(), reloaded.results()):
            assert result.key == key


class TestWorkbenchPresets:
    def test_machine_comparison_preset_shape(self):
        campaign = machine_comparison_campaign("laplace_block_star", 64,
                                               proc_counts=(2, 4))
        assert campaign.mode == "predict"
        assert campaign.space.proc_counts == (2, 4)
        comparison = run_machine_comparison(
            "laplace_block_star", 64, proc_counts=(2, 4),
            machines=("ipsc860", "paragon"))
        assert comparison.machines() == ["ipsc860", "paragon"]
        assert comparison.best_machine(4) in ("ipsc860", "paragon")

    def test_laplace_preset_carries_maxiter_param(self):
        campaign = laplace_study_campaign(nprocs=4, sizes=(16,), maxiter=3)
        assert campaign.space.param_sets == ((("maxiter", 3.0),),)

    def test_study_results_flow_through_store(self, tmp_path):
        store = ResultStore(tmp_path / "study.jsonl")
        first = run_laplace_study(nprocs=4, sizes=(16,), store=store)
        assert len(store) == 3
        again = run_laplace_study(nprocs=4, sizes=(16,),
                                  store=ResultStore(store.path))
        for a, b in zip(first.points, again.points):
            assert a.estimated_s == b.estimated_s
            assert a.measured_s == b.measured_s


class TestNewStrategies:
    """Genetic and annealing strategies: registered, seed-deterministic,
    closed over the valid pool, and competitive with the grid optimum."""

    SPACE = laplace_design_space(sizes=(16, 32), proc_counts=(2, 4, 8),
                                 machines=("ipsc860", "paragon", "torus-cluster"))

    def test_registered_in_strategies(self):
        from repro.explore import STRATEGIES
        assert "genetic" in STRATEGIES and "anneal" in STRATEGIES

    @pytest.mark.parametrize("strategy", ["genetic", "anneal"])
    def test_deterministic_under_fixed_seed(self, strategy):
        first = run_campaign(self.SPACE, strategy=strategy, seed=13)
        second = run_campaign(self.SPACE, strategy=strategy, seed=13)
        assert [r.point for r in first.trajectory] == \
            [r.point for r in second.trajectory]
        assert {r.point for r in first.results} == \
            {r.point for r in second.results}
        assert first.best().point == second.best().point

    @pytest.mark.parametrize("strategy", ["genetic", "anneal"])
    def test_seed_changes_the_search(self, strategy):
        runs = [run_campaign(self.SPACE, strategy=strategy, seed=s)
                for s in (1, 2, 3)]
        trajectories = [tuple(r.point for r in run.trajectory) for run in runs]
        assert len(set(trajectories)) > 1, "seed never changed the search"

    @pytest.mark.parametrize("strategy", ["genetic", "anneal"])
    def test_stays_inside_the_valid_pool(self, strategy):
        pool = set(self.SPACE.expand())
        run = run_campaign(self.SPACE, strategy=strategy, seed=5)
        assert all(r.point in pool for r in run.results)
        assert 0 < run.evaluated <= len(pool)

    def test_genetic_trajectory_is_monotone_best_so_far(self):
        run = run_campaign(self.SPACE, strategy="genetic", seed=3,
                           population=6, generations=4)
        objectives = [r.objective_us for r in run.trajectory]
        assert objectives == sorted(objectives, reverse=True)

    def test_genetic_finds_the_grid_optimum_on_a_small_space(self):
        space = ScenarioSpace(apps=("laplace_block_star", "laplace_star_block"),
                              sizes=(16,), proc_counts=(2, 4, 8),
                              machines=("ipsc860", "paragon"))
        grid_best = run_campaign(space).best()
        genetic = run_campaign(space, strategy="genetic", seed=0,
                               population=6, generations=6)
        assert genetic.best().objective_us == grid_best.objective_us

    def test_anneal_best_no_worse_than_its_start(self):
        run = run_campaign(self.SPACE, strategy="anneal", seed=9, max_steps=20)
        assert run.best().objective_us <= run.trajectory[0].objective_us

    def test_strategies_share_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "strategies.jsonl")
        run_campaign(self.SPACE, store=store)                       # fill
        genetic = run_campaign(self.SPACE, strategy="genetic", seed=2,
                               store=ResultStore(store.path))
        assert genetic.evaluated == 0
        assert genetic.store_hits == len(genetic.results)


class TestExecutors:
    """run_campaign and evaluate_points evaluate fresh points in the calling
    process; run_sharded_campaign is the only way to fan them out."""

    def test_serial_executor_accepted(self):
        # callers may still name the one executor explicitly
        from repro.explore import evaluate_points
        points = SMALL_SPACE.expand()
        named, _, fresh = evaluate_points(points, mode="both",
                                          executor="serial")
        default, _, _ = evaluate_points(points, mode="both")
        assert fresh == len(points) == 2
        assert [(r.point, r.estimated_us, r.measured_us) for r in named] \
            == [(r.point, r.estimated_us, r.measured_us) for r in default]

    def test_pool_options_are_gone(self):
        import inspect

        from repro.advisor import advise
        from repro.explore import evaluate_points
        with pytest.raises(TypeError):
            run_campaign(SMALL_SPACE, executor="serial")
        with pytest.raises(TypeError):
            run_campaign(SMALL_SPACE, max_workers=2)
        with pytest.raises(TypeError):
            evaluate_points([], max_workers=2)
        assert "max_workers" not in inspect.signature(advise).parameters

    def test_machine_resolver_changes_no_number(self):
        # mode "both" runs the predict and the measure branch; rebuilding
        # the registry's machine through a resolver must change no number
        from repro import get_machine
        resolved = run_campaign(
            SMALL_SPACE, mode="both",
            machine_resolver=lambda p: get_machine(p.machine, p.nprocs))
        named = run_campaign(SMALL_SPACE, mode="both")
        assert len(resolved.results) == 2
        assert [(r.point, r.estimated_us, r.measured_us)
                for r in resolved.results] \
            == [(r.point, r.estimated_us, r.measured_us)
                for r in named.results]


class TestEvaluatePoints:
    """The space-less public face the advisor drives candidates through."""

    def test_evaluates_and_memoises_through_the_store(self, tmp_path):
        from repro.explore import evaluate_points
        points = [ScenarioPoint(app="laplace_block_star", size=16, nprocs=p)
                  for p in (2, 4)]
        store = ResultStore(tmp_path / "points.jsonl")
        results, hits, fresh = evaluate_points(points, store=store)
        assert (hits, fresh) == (0, 2)
        assert [r.point for r in results] == points
        again, hits, fresh = evaluate_points(points,
                                             store=ResultStore(store.path))
        assert (hits, fresh) == (2, 0)
        assert [r.estimated_us for r in again] == \
            [r.estimated_us for r in results]

    def test_duplicates_are_free(self):
        from repro.explore import evaluate_points
        point = ScenarioPoint(app="laplace_block_star", size=16, nprocs=2)
        results, hits, fresh = evaluate_points([point, point, point])
        assert (hits, fresh) == (0, 1)
        assert len(results) == 3

    def test_memo_entries_only_satisfy_their_own_mode(self):
        from repro.explore import evaluate_points
        point = ScenarioPoint(app="laplace_block_star", size=16, nprocs=2)
        [predicted], _, _ = evaluate_points([point])
        # a predict-mode seed must not answer a measure-mode request
        [measured], _, fresh = evaluate_points([point], mode="measure",
                                               memo={point: predicted})
        assert fresh == 1
        assert measured.mode == "measure"
        assert measured.measured_us is not None

    def test_bad_mode_rejected(self):
        from repro.explore import evaluate_points
        with pytest.raises(ScenarioError):
            evaluate_points([], mode="guess")


class TestStoreDiff:
    def _results(self, estimates):
        return [small_result(nprocs=p, estimated=e)
                for p, e in zip((2, 4, 8), estimates)]

    def test_identical_sides_do_not_drift(self):
        from repro.explore import store_diff
        old = self._results([100.0, 200.0, 300.0])
        diff = store_diff(old, self._results([100.0, 200.0, 300.0]))
        assert not diff.drifted
        assert diff.unchanged == diff.compared == 3
        assert not diff.added and not diff.removed

    def test_drift_detected_and_sorted_worst_first(self):
        from repro.explore import store_diff
        old = self._results([100.0, 200.0, 300.0])
        new = self._results([110.0, 200.0, 390.0])
        diff = store_diff(old, new)
        assert len(diff.drifted) == 2 and diff.unchanged == 1
        assert diff.drifted[0][2] == pytest.approx(30.0)   # worst first
        assert diff.drifted[1][2] == pytest.approx(10.0)

    def test_added_and_removed_records(self):
        from repro.explore import store_diff
        old = self._results([100.0, 200.0])[:2]
        new = self._results([100.0, 200.0, 300.0])
        diff = store_diff(old, new)
        assert len(diff.added) == 1 and diff.added[0].point.nprocs == 8
        diff_back = store_diff(new, old)
        assert len(diff_back.removed) == 1

    def test_lost_values_count_as_drift(self):
        # a regression that nulls a previously-present number must not pass
        # the gate as "unchanged"
        from repro.explore import store_diff, store_diff_table
        old = self._results([100.0, 200.0, 300.0])
        new = [small_result(nprocs=2, estimated=100.0),
               small_result(nprocs=4, estimated=None),
               small_result(nprocs=8, estimated=0.0)]
        diff = store_diff(old, new)
        assert len(diff.drifted) == 2
        assert all(pct == float("inf") for _, _, pct in diff.drifted)
        assert "value lost" in store_diff_table(old, new)

    def test_drift_table_shows_the_field_that_drifted(self):
        from repro.explore import store_diff_table
        old = [small_result(nprocs=2, estimated=100.0, measured=120.0)]
        new = [small_result(nprocs=2, estimated=100.0, measured=180.0)]
        table = store_diff_table(old, new)
        assert "sim" in table and "120.0" in table and "180.0" in table

    def test_simulator_only_drift_detected(self):
        # measured_us moving while estimates stay put (a simulator change)
        # must still count as drift
        from repro.explore import store_diff
        old = [small_result(nprocs=p, estimated=100.0, measured=m)
               for p, m in zip((2, 4, 8), (120.0, 120.0, 120.0))]
        new = [small_result(nprocs=p, estimated=100.0, measured=m)
               for p, m in zip((2, 4, 8), (120.0, 180.0, 120.0))]
        diff = store_diff(old, new)
        assert len(diff.drifted) == 1
        assert diff.drifted[0][2] == pytest.approx(50.0)

    def test_tolerance_gates_the_drift(self):
        from repro.explore import store_diff
        old = self._results([100.0, 200.0, 300.0])
        new = self._results([100.5, 200.0, 300.0])
        assert store_diff(old, new, tolerance_pct=1.0).drifted == []
        assert len(store_diff(old, new, tolerance_pct=0.1).drifted) == 1

    def test_table_renders_and_summarises(self):
        from repro.explore import store_diff_table
        old = self._results([100.0, 200.0, 300.0])
        new = self._results([150.0, 200.0, 300.0])
        table = store_diff_table(old, new)
        assert "50.000%" in table and "drifted" in table
        clean = store_diff_table(old, old)
        assert "0 drifted" in clean

    def test_diff_joins_across_store_files(self, tmp_path):
        from repro.explore import store_diff
        old_store = ResultStore(tmp_path / "old.jsonl")
        new_store = ResultStore(tmp_path / "new.jsonl")
        for r in self._results([100.0, 200.0, 300.0]):
            old_store.add(r)
        for r in self._results([100.0, 260.0, 300.0]):
            new_store.add(r)
        diff = store_diff(ResultStore(old_store.path),
                          ResultStore(new_store.path))
        assert len(diff.drifted) == 1
        assert diff.drifted[0][2] == pytest.approx(30.0)
