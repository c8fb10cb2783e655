"""CI observability smoke: spans, metrics and a manifest, end to end.

Runs one small measure+predict campaign with ``repro.obs`` enabled and a
scratch :class:`ResultStore`, then asserts the telemetry pipeline against
ground truth:

* the auto-written :class:`RunManifest` agrees with the store and the
  campaign (points evaluated, fresh evaluations, store hits, record count),
* a re-run of the same space is served entirely from the store and its
  manifest says so (all hits, zero fresh evaluations),
* the recorded spans export to structurally valid Chrome-trace JSON (load
  ``chrome://tracing`` / Perfetto) and the metric registry to Prometheus
  text exposition,
* engine phase shares (node cost / noise / network / data plane / other)
  cover the ``simulate`` spans exactly, and
* the committed schema example, ``benchmarks/results/RUN_MANIFEST_example.json``,
  still loads under the current schema version.

Everything runs against a scratch store in a temp directory — the committed
``smoke_campaign.jsonl`` store is not touched (obs stays off in
``campaign_smoke.py``, which keeps that store byte-identical).

Usage:  PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs  # noqa: E402
from repro.explore import ResultStore, ScenarioSpace, run_campaign  # noqa: E402

EXAMPLE_MANIFEST = os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks", "results",
                                "RUN_MANIFEST_example.json")

SMOKE_SPACE = ScenarioSpace(
    apps=("laplace_block_star",),
    sizes=(16,),
    proc_counts=(2, 4),
    machines=("ipsc860",),
)


def check_chrome_trace(spans) -> dict:
    """Export *spans* and validate the Chrome-trace envelope and events."""
    trace = obs.chrome_trace(spans)
    # must survive a JSON round-trip (the file chrome://tracing loads)
    trace = json.loads(json.dumps(trace))
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    complete = [e for e in events if e.get("ph") == "X"]
    assert len(complete) == len(spans), \
        f"{len(complete)} complete events for {len(spans)} spans"
    for event in complete:
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
        assert "pid" in event and "tid" in event
    names = {e["name"] for e in complete}
    for expected in ("point", "simulate", "price"):
        assert expected in names, f"no {expected!r} span in the trace"
    return trace


def check_prometheus_text(registry) -> str:
    text = obs.prometheus_text(registry)
    assert "# TYPE repro_campaign_points_evaluated_total counter" in text
    assert "# TYPE repro_point_latency_us histogram" in text
    assert 'le="+Inf"' in text
    for line in text.splitlines():
        assert line.startswith("#") or " " in line, f"malformed line: {line!r}"
    return text


def check_manifest_against_store(manifest, store_path, *, expected_points,
                                 expected_fresh, expected_hits) -> None:
    """The acceptance cross-check: manifest numbers vs the store itself."""
    store = ResultStore(store_path)
    assert manifest.schema == obs.MANIFEST_SCHEMA_VERSION
    assert manifest.points_evaluated == expected_points
    assert manifest.fresh_evaluations == expected_fresh
    assert manifest.store_hits == expected_hits
    assert manifest.store_records == len(store)
    assert manifest.store_path == store.path
    assert manifest.wall_time_s > 0.0
    # reload from disk: the written file carries the same numbers
    on_disk = obs.RunManifest.load(obs.manifest_path_for(store_path))
    assert on_disk.points_evaluated == manifest.points_evaluated
    assert on_disk.fresh_evaluations == manifest.fresh_evaluations
    assert on_disk.store_hits == manifest.store_hits
    assert on_disk.store_records == manifest.store_records


def main() -> int:
    obs.enable()
    obs.reset()

    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as scratch:
        store_path = os.path.join(scratch, "obs_smoke.jsonl")
        expected = len(SMOKE_SPACE.expand())

        run = run_campaign(SMOKE_SPACE, name="obs-smoke", mode="both",
                           store=ResultStore(store_path))
        assert len(run.results) == expected
        assert run.manifest is not None, "campaign did not attach a manifest"
        check_manifest_against_store(
            run.manifest, store_path, expected_points=expected,
            expected_fresh=expected, expected_hits=0)

        spans = obs.get_tracer().spans()
        trace = check_chrome_trace(spans)
        shares = obs.phase_shares(spans)
        assert shares and abs(sum(shares.values()) - 1.0) <= 1e-6
        text = check_prometheus_text(obs.get_registry())

        # write the artifacts where a CI run could collect them
        trace_path = os.path.join(scratch, "obs_smoke_trace.json")
        obs.write_chrome_trace(trace_path, spans)
        assert json.load(open(trace_path)) == trace
        prom_path = os.path.join(scratch, "obs_smoke_metrics.prom")
        with open(prom_path, "w") as fh:
            fh.write(text)

        # a re-run is all store hits, and its manifest records that
        rerun = run_campaign(SMOKE_SPACE, name="obs-smoke-rerun", mode="both",
                             store=ResultStore(store_path))
        assert rerun.evaluated == 0 and rerun.store_hits == expected
        check_manifest_against_store(
            rerun.manifest, store_path, expected_points=expected,
            expected_fresh=0, expected_hits=expected)

        print(f"obs smoke: {expected} points, {len(spans)} spans, "
              f"manifest + re-run manifest cross-checked against the store")
        print("phase shares: " + ", ".join(
            f"{name} {share:.1%}" for name, share in sorted(shares.items())))

    # committed schema example still loads under the current schema
    example = obs.RunManifest.load(os.path.normpath(EXAMPLE_MANIFEST))
    assert example.schema <= obs.MANIFEST_SCHEMA_VERSION
    assert example.points_evaluated >= 1
    print(f"schema example OK: {os.path.basename(EXAMPLE_MANIFEST)} "
          f"(schema {example.schema})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
