"""The benchmark's workloads and metrics, in one place.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/catalogue.py > BENCHMARK.json``); ``README.md`` next to
it explains each entry.  A per-layer metric that a workload does not
exercise reads 0 on that workload.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: (name, why)
WORKLOADS = [
    ("predict-sweep",
     "The paper's design-tuning sweep: 768 cold predict-mode points, then a "
     "re-run from the reloaded store. Parse, compile and price do the work; "
     "no simulator."),
    ("table2-accuracy",
     "The paper's headline Table 2 sweep in mode=both (128 points, p<=8). "
     "Simulator noise, node costing and the data plane dominate; accuracy "
     "is checked."),
    ("sim-scale",
     "Vector-engine simulate at p=1024 (hypercube, contention) and p=8192 "
     "(switched). The only workload where network and per-rank node "
     "costing dominate."),
    ("serve-mixed",
     "The only workload that reaches python -m repro.serve. Assumed mix, not "
     "measured traffic: ~90/5/5% memory/store/compute tier. p50 reads the "
     "memory tier; p99 and ops/s the compute tier."),
]

#: workload name -> the module under perfbench/ that runs it
MODULES = {
    "predict-sweep": "predict_sweep",
    "table2-accuracy": "table2_accuracy",
    "sim-scale": "sim_scale",
    "serve-mixed": "serve_mixed",
}

#: (name, unit, better, bound) -- reported by every workload with tracing off
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_tail_us", "us", "lower", 0.25),
]

#: What one "op" is on each workload, and which percentile ``op_tail_us``
#: reads (the highest one with enough samples beyond it).
OPS = {
    "predict-sweep": "one cold predict-mode point; tail = p99",
    "table2-accuracy": "one mode=both point (predict + simulate); tail = p90",
    "sim-scale": "one round: simulate config (a) then (b); tail = max",
    "serve-mixed": "one POST /predict request; tail = p99",
}

#: The workload's own end-to-end numbers under their names: (name, unit,
#: better, workloads).  They are printed by every run and recorded as
#: per-layer metrics of the traced run.
NAMED = [
    ("points_per_s", "points/s", "higher",
     ("predict-sweep", "table2-accuracy")),
    ("rerun_points_per_s", "points/s", "higher", ("predict-sweep",)),
    ("error_pct_median", "%", "lower", ("table2-accuracy",)),
    ("error_pct_max", "%", "lower", ("table2-accuracy",)),
    ("sim_hypercube_p1024_s", "s", "lower", ("sim-scale",)),
    ("sim_switched_p8192_s", "s", "lower", ("sim-scale",)),
    ("requests_per_s", "req/s", "higher", ("serve-mixed",)),
    ("p99_us", "us", "lower", ("serve-mixed",)),
    ("memory_p50_us", "us", "lower", ("serve-mixed",)),
    ("store_p50_us", "us", "lower", ("serve-mixed",)),
    ("compute_p50_us", "us", "lower", ("serve-mixed",)),
]

SUITE_APPS = ("lfk1", "lfk2", "lfk3", "lfk9", "lfk14", "lfk22", "pbs1",
              "pbs2", "pbs3", "pbs4", "pi", "nbody", "finance",
              "laplace_block_block", "laplace_block_star",
              "laplace_star_block")

#: sim-scale's two configurations, as per-layer metric prefixes
SIM_CONFIGS = ("hypercube_p1024", "switched_p8192")
SIM_FIELDS = [
    ("simulate_s", "s"), ("node_cost_s", "s"), ("noise_s", "s"),
    ("network_s", "s"), ("other_s", "s"), ("messages", "count"),
    ("statements", "count"), ("simulated_us", "us"),
]

#: (name, unit, better, target end-to-end metric, workload where it
#: dominates)
LAYERS = [
    ("frontend.parse_calls", "count", "lower", "ops_per_s", "predict-sweep"),
    ("frontend.parse_s", "s", "lower", "ops_per_s", "predict-sweep"),
    ("compiler.compile_calls", "count", "lower", "ops_per_s",
     "predict-sweep"),
    ("compiler.compile_s", "s", "lower", "ops_per_s", "predict-sweep"),
    ("stages.compile_hit_ratio", "ratio", "higher", "ops_per_s",
     "predict-sweep"),
    ("stages.price_hit_ratio", "ratio", "higher", "ops_per_s",
     "predict-sweep"),
    ("interpreter.interpret_calls", "count", "lower", "ops_per_s",
     "predict-sweep"),
    ("interpreter.interpret_s", "s", "lower", "ops_per_s", "predict-sweep"),
    ("simulator.simulate_calls", "count", "lower", "ops_per_s",
     "table2-accuracy"),
] + [
    (f"simulator.{field}", unit, "lower", "ops_per_s", "table2-accuracy")
    for field, unit in SIM_FIELDS
] + [
    (f"simulator.{config}.{field}", unit, "lower", "op_p50_us", "sim-scale")
    for config in SIM_CONFIGS for field, unit in SIM_FIELDS
] + [
    ("explore.store.append_s", "s", "lower", "ops_per_s", "predict-sweep"),
    ("explore.store.load_s", "s", "lower", "rerun_points_per_s",
     "predict-sweep"),
    ("explore.store.lookup_s", "s", "lower", "rerun_points_per_s",
     "predict-sweep"),
    ("explore.campaign.self_s", "s", "lower", "ops_per_s", "predict-sweep"),
    ("serve.request_s", "s", "lower", "ops_per_s", "serve-mixed"),
    ("serve.tier_requests.memory", "count", "higher", "ops_per_s",
     "serve-mixed"),
    ("serve.tier_requests.store", "count", "higher", "ops_per_s",
     "serve-mixed"),
    ("serve.tier_requests.computed", "count", "lower", "ops_per_s",
     "serve-mixed"),
    ("serve.failed", "count", "lower", "ops_per_s", "serve-mixed"),
    ("serve.batches", "count", "lower", "compute_p50_us", "serve-mixed"),
    ("serve.batch_size_mean", "count", "higher", "compute_p50_us",
     "serve-mixed"),
    ("serve.singleflight_followers", "count", "higher", "compute_p50_us",
     "serve-mixed"),
    ("serve.point_eval_mean_us", "us", "lower", "compute_p50_us",
     "serve-mixed"),
    ("serve.server_p50_us", "us", "lower", "op_p50_us", "serve-mixed"),
    ("serve.tier_p99_us.memory", "us", "lower", "op_tail_us",
     "serve-mixed"),
    ("serve.tier_p99_us.store", "us", "lower", "op_tail_us", "serve-mixed"),
    ("serve.tier_p99_us.computed", "us", "lower", "op_tail_us",
     "serve-mixed"),
] + [
    (f"accuracy.{app}.error_pct_max", "%", "lower", "error_pct_max",
     "table2-accuracy")
    for app in SUITE_APPS
] + [
    ("obs.tracing_overhead_pct", "%", "lower", "none", "all"),
    ("trace.wall_s", "s", "lower", "none", "all"),
    ("trace.other_s", "s", "lower", "none", "all"),
] + [
    (name, unit, better, name, workloads[0])
    for name, unit, better, workloads in NAMED
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _target, _where in LAYERS],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
