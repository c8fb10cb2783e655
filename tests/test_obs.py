"""repro.obs tests: no-op fast path, span semantics, metrics, exports,
shard-worker metric transport, and the campaign run-manifest contract."""

import json
import threading

import pytest

from repro import obs
from repro.explore import (
    ResultStore,
    ScenarioSpace,
    run_campaign,
    run_sharded_campaign,
)
from repro.simulator import SimulatorOptions, simulate


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends disabled with empty tracer/registry, so
    obs state cannot leak between tests (or into the rest of the suite)."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


SMALL_SPACE = ScenarioSpace(
    apps=("laplace_block_star",),
    sizes=(16,),
    proc_counts=(2, 4),
    machines=("ipsc860",),
)


class TestDisabledNoop:
    def test_span_returns_shared_singleton(self):
        assert obs.span("anything", nprocs=4) is obs.NOOP_SPAN
        assert obs.span("other") is obs.NOOP_SPAN

    def test_metrics_return_shared_singleton(self):
        assert obs.counter("c_total") is obs.NOOP_METRIC
        assert obs.gauge("g") is obs.NOOP_METRIC
        assert obs.histogram("h_us") is obs.NOOP_METRIC

    def test_noop_span_is_a_working_context_manager(self):
        with obs.span("x") as span:
            span.set(result=1)   # must be callable, must do nothing

    def test_nothing_is_recorded(self):
        with obs.span("invisible"):
            obs.counter("invisible_total").inc()
            obs.histogram("invisible_us").observe(5.0)
        assert obs.get_tracer().spans() == []
        assert obs.get_registry().instruments() == []

    def test_noop_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with obs.span("x"):
                raise RuntimeError("boom")

    def test_env_var_parsing(self):
        assert obs._env_enabled({"REPRO_OBS": "1"})
        assert obs._env_enabled({"REPRO_OBS": "true"})
        assert obs._env_enabled({"REPRO_OBS": " ON "})
        assert not obs._env_enabled({"REPRO_OBS": "0"})
        assert not obs._env_enabled({"REPRO_OBS": ""})
        assert not obs._env_enabled({})


class TestSpans:
    def test_nesting_depths_and_order(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = obs.get_tracer().spans()
        # children finish (and record) before the parent
        assert [s.name for s in spans] == ["inner", "inner", "outer"]
        by_name = {s.name: s for s in spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        outer = by_name["outer"]
        for inner in spans[:2]:
            assert inner.start_us >= outer.start_us
            assert inner.start_us + inner.dur_us \
                <= outer.start_us + outer.dur_us + 1.0

    def test_exception_unwinds_depth_and_records_error(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("failing", task="t"):
                raise ValueError("boom")
        (span,) = obs.get_tracer().spans()
        assert span.name == "failing"
        assert span.attrs["error"] == "ValueError"
        assert span.attrs["task"] == "t"
        # depth fully unwound: a follow-up span is top-level again
        with obs.span("after"):
            pass
        assert obs.get_tracer().spans()[-1].depth == 0

    def test_attrs_and_set(self):
        obs.enable()
        with obs.span("s", a=1) as span:
            span.set(b=2)
        (record,) = obs.get_tracer().spans()
        assert record.attrs == {"a": 1, "b": 2}

    def test_mark_and_spans_since(self):
        obs.enable()
        with obs.span("before"):
            pass
        mark = obs.get_tracer().mark()
        with obs.span("after"):
            pass
        assert [s.name for s in obs.get_tracer().spans_since(mark)] \
            == ["after"]

    def test_phase_shares_cover_the_total(self, laplace_compiled, machine4):
        obs.enable()
        simulate(laplace_compiled, machine4)
        shares = obs.phase_shares(obs.get_tracer().spans())
        assert set(shares) == {"node_cost", "noise", "network", "dataplane",
                               "other"}
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 <= share <= 1.0 for share in shares.values())


class TestMetrics:
    def test_counter_labels_are_independent_series(self):
        obs.enable()
        obs.counter("sims_total", engine="vector").inc()
        obs.counter("sims_total", engine="vector").inc(2.0)
        obs.counter("sims_total", engine="loop").inc()
        flat = obs.get_registry().flatten()
        assert flat['sims_total{engine="vector"}'] == 3.0
        assert flat['sims_total{engine="loop"}'] == 1.0

    def test_counter_rejects_negative(self):
        obs.enable()
        with pytest.raises(ValueError):
            obs.counter("c_total").inc(-1.0)

    def test_kind_collision_raises(self):
        obs.enable()
        obs.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            obs.gauge("thing")

    def test_histogram_bucket_boundaries_are_le_inclusive(self):
        obs.enable()
        hist = obs.histogram("lat_us", buckets=(10.0, 100.0, 1000.0))
        hist.observe(10.0)     # == bound -> bucket le=10
        hist.observe(10.1)     # just over -> bucket le=100
        hist.observe(100.0)    # == bound -> bucket le=100
        hist.observe(1000.1)   # over the top -> +Inf
        assert hist.counts == [1, 2, 0, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(1120.2)

    def test_histogram_quantiles(self):
        obs.enable()
        hist = obs.histogram("q_us", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 100.0

    def test_concurrent_counter_increments_are_exact(self):
        obs.enable()
        counter = obs.counter("bump_total")
        threads = [threading.Thread(
            target=lambda: [counter.inc() for _ in range(1000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000.0

    def test_snapshot_delta_merge_round_trip(self):
        obs.enable()
        registry = obs.get_registry()
        registry.counter("c_total").inc(2.0)
        registry.histogram("h_us", buckets=(1.0, 10.0)).observe(5.0)
        before = registry.collect()
        registry.counter("c_total").inc(3.0)
        registry.gauge("g").set(7.0)
        registry.histogram("h_us", buckets=(1.0, 10.0)).observe(0.5)
        delta = registry.delta_since(before)
        # unchanged-from-before entries are dropped from the delta
        assert all(key[1] != "c_total" or state["value"] == 3.0
                   for key, state in delta.items())
        other = obs.MetricRegistry()
        other.counter("c_total").inc(10.0)
        other.merge(delta)
        assert other.counter("c_total").value == 13.0
        assert other.gauge("g").value == 7.0
        assert other.histogram("h_us", buckets=(1.0, 10.0)).count == 1

    def test_merge_rejects_mismatched_histogram_bounds(self):
        obs.enable()
        registry = obs.get_registry()
        registry.histogram("h_us", buckets=(1.0, 10.0)).observe(5.0)
        snapshot = registry.collect()
        other = obs.MetricRegistry()
        other.histogram("h_us", buckets=(2.0, 20.0)).observe(5.0)
        with pytest.raises(ValueError, match="bounds differ"):
            other.merge(snapshot)


class TestExports:
    def _record_some_spans(self):
        obs.enable()
        with obs.span("outer", kind="demo"):
            with obs.span("inner"):
                pass
        return obs.get_tracer().spans()

    def test_chrome_trace_is_valid_json_with_complete_events(self):
        spans = self._record_some_spans()
        trace = json.loads(json.dumps(obs.chrome_trace(spans)))
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(spans) == 2
        for event in complete:
            assert event["cat"] == "repro"
            assert isinstance(event["ts"], (int, float))
            assert event["dur"] >= 0
        outer = next(e for e in complete if e["name"] == "outer")
        inner = next(e for e in complete if e["name"] == "inner")
        assert outer["args"]["kind"] == "demo"
        # nesting by timestamp containment, the Chrome-trace contract
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1.0

    def test_write_chrome_trace_round_trips(self, tmp_path):
        spans = self._record_some_spans()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), spans)
        assert json.loads(path.read_text()) == obs.chrome_trace(spans)

    def test_prometheus_text_exposition(self):
        obs.enable()
        obs.counter("c_total", mode="x").inc(2.0)
        obs.gauge("g").set(1.5)
        obs.histogram("h_us", buckets=(1.0, 10.0)).observe(5.0)
        text = obs.prometheus_text(obs.get_registry())
        assert "# TYPE c_total counter" in text
        assert 'c_total{mode="x"} 2' in text
        assert "# TYPE g gauge" in text
        assert "g 1.5" in text
        assert 'h_us_bucket{le="1"} 0' in text
        assert 'h_us_bucket{le="10"} 1' in text
        assert 'h_us_bucket{le="+Inf"} 1' in text
        assert "h_us_sum 5" in text
        assert "h_us_count 1" in text

    def test_spans_jsonl_lines_parse(self):
        spans = self._record_some_spans()
        lines = obs.spans_jsonl(spans).strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert {"name", "start_us", "dur_us", "tid", "depth"} \
                <= set(record)


class TestSimulationUnaffected:
    def test_simulate_results_identical_obs_on_and_off(self, laplace_compiled,
                                                       machine4):
        baseline = simulate(laplace_compiled, machine4)
        obs.enable()
        traced = simulate(laplace_compiled, machine4)
        assert obs.get_tracer().spans(), "no spans from an enabled simulate"
        assert traced.per_rank_us == baseline.per_rank_us
        assert traced.measured_time_us == baseline.measured_time_us
        assert traced.array_checksum == baseline.array_checksum

    def test_both_engines_emit_the_same_phase_names(self, laplace_compiled,
                                                    machine4):
        names = {}
        for engine in ("vector", "loop"):
            obs.reset()
            obs.enable()
            simulate(laplace_compiled, machine4,
                     options=SimulatorOptions(engine=engine))
            names[engine] = {s.name for s in obs.get_tracer().spans()}
        for engine, seen in names.items():
            assert {"simulate", "node_cost", "noise", "network",
                    "dataplane"} <= seen, \
                f"{engine} engine spans: {seen}"


class TestCampaignManifest:
    def test_manifest_cross_checked_against_store(self, tmp_path):
        obs.enable()
        store_path = str(tmp_path / "run.jsonl")
        run = run_campaign(SMALL_SPACE, name="obs-test", mode="both",
                           store=ResultStore(store_path))
        manifest = run.manifest
        assert manifest is not None
        store = ResultStore(store_path)
        assert manifest.points_evaluated == len(run.results) == 2
        assert manifest.fresh_evaluations == run.evaluated == 2
        assert manifest.store_hits == run.store_hits == 0
        assert manifest.store_records == len(store) == 2
        assert manifest.store_path == store.path
        assert manifest.mode == "both" and manifest.strategy == "grid"
        assert manifest.wall_time_s > 0.0
        assert manifest.point_latency_us["count"] == 2
        assert manifest.point_latency_us["worst"] \
            >= manifest.point_latency_us["median"]
        assert sum(manifest.engine_shares.values()) \
            == pytest.approx(1.0, abs=1e-3)

    def test_manifest_written_next_to_store_and_reloads(self, tmp_path):
        obs.enable()
        store_path = str(tmp_path / "run.jsonl")
        run = run_campaign(SMALL_SPACE, name="obs-test", mode="predict",
                           store=ResultStore(store_path))
        path = obs.manifest_path_for(store_path)
        loaded = obs.RunManifest.load(path)
        assert loaded.points_evaluated == run.manifest.points_evaluated
        assert loaded.schema == obs.MANIFEST_SCHEMA_VERSION

    def test_manifest_records_the_executor_that_ran(self, tmp_path):
        obs.enable()
        serial = run_campaign(SMALL_SPACE, mode="predict")
        sharded = run_sharded_campaign(SMALL_SPACE, mode="predict", shards=2,
                                       store=str(tmp_path / "s.jsonl"))
        assert serial.manifest.executor == "serial"
        assert sharded.manifest.executor == "sharded"

    def test_rerun_manifest_records_all_hits(self, tmp_path):
        obs.enable()
        store_path = str(tmp_path / "run.jsonl")
        run_campaign(SMALL_SPACE, mode="predict",
                     store=ResultStore(store_path))
        rerun = run_campaign(SMALL_SPACE, mode="predict",
                             store=ResultStore(store_path))
        assert rerun.manifest.store_hits == 2
        assert rerun.manifest.fresh_evaluations == 0
        flat = obs.get_registry().flatten()
        assert flat['repro_campaign_store_hits_total{mode="predict"}'] == 2.0

    def test_no_manifest_when_disabled(self, tmp_path):
        run = run_campaign(SMALL_SPACE, mode="predict",
                           store=ResultStore(str(tmp_path / "run.jsonl")))
        assert run.manifest is None
        assert obs.get_tracer().spans() == []

    def test_manifest_load_rejects_bad_payloads(self, tmp_path):
        bad_format = tmp_path / "bad.json"
        bad_format.write_text(json.dumps({"format": "other", "schema": 1}))
        with pytest.raises(obs.ManifestError, match="not a"):
            obs.RunManifest.load(str(bad_format))
        future = tmp_path / "future.json"
        future.write_text(json.dumps(
            {"format": obs.MANIFEST_FORMAT,
             "schema": obs.MANIFEST_SCHEMA_VERSION + 1}))
        with pytest.raises(obs.ManifestError, match="unsupported"):
            obs.RunManifest.load(str(future))
        truncated = tmp_path / "trunc.json"
        truncated.write_text("{not json")
        with pytest.raises(obs.ManifestError, match="invalid JSON"):
            obs.RunManifest.load(str(truncated))


class TestShardWorkerMetricTransport:
    def test_worker_metrics_merge_into_the_parent(self):
        obs.enable()
        run = run_sharded_campaign(SMALL_SPACE, mode="measure", shards=2)
        assert len(run.results) == 2
        flat = obs.get_registry().flatten()
        # the simulations ran in shard worker processes; without the delta
        # transport these counters would vanish with the workers
        assert flat['repro_simulations_total{engine="vector"}'] == 2.0
        assert flat['repro_campaign_points_evaluated_total{mode="measure"}'] \
            == 2.0
        assert flat['repro_point_latency_us_count{mode="measure"}'] == 2

    def test_manifest_latency_falls_back_to_histogram(self):
        obs.enable()
        run = run_sharded_campaign(SMALL_SPACE, mode="measure", shards=2)
        latency = run.manifest.point_latency_us
        # point spans stayed in the workers; the merged histogram answers
        assert latency["source"] == "histogram"
        assert latency["count"] == 2
        assert latency["worst"] >= latency["median"] > 0.0
