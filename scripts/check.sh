#!/usr/bin/env bash
# CI / local verification: unit + integration tests plus a fast benchmark and
# example smoke.  (The full tier-1 command, `PYTHONPATH=src python -m pytest
# -x -q` from the repo root, additionally collects every benchmark in
# benchmarks/; here the benchmark step is deliberately restricted to the fast
# figure regenerations so CI stays quick.)
#
# Usage:  bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== unit + integration tests (and they leave the working tree as they found it)"
in_git=false
git rev-parse --is-inside-work-tree > /dev/null 2>&1 && in_git=true
if $in_git; then tree_before=$(git status --porcelain); fi
python -m pytest tests -x -q
if $in_git; then
    tree_after=$(git status --porcelain)
    if [ "$tree_before" != "$tree_after" ]; then
        echo "tier-1 tests changed the working tree (git status --porcelain):"
        diff <(echo "$tree_before") <(echo "$tree_after") || true
        exit 1
    fi
fi

echo "== benchmark smoke: regenerate Figure 2 (forall) and Figure 3 (distributions)"
python -m pytest benchmarks -x -q -k "fig2 or fig3"

echo "== simulator-scale smoke: loop/vector engine parity at p=64"
python -m pytest benchmarks/test_bench_simulator_scale.py -x -q -k "parity and p64"

echo "== simulator-scale smoke: p=1024 contention-free run inside the wall-clock budget"
python -m pytest benchmarks/test_bench_simulator_scale.py -x -q -k "p1024_contention_free"

echo "== simulator-scale smoke: p=4096 vector run inside the wall-clock budget"
python -m pytest benchmarks/test_bench_simulator_scale.py -x -q -k "p4096_vector_smoke"

echo "== noise-engine retirement note: archived counter-engine times verified"
python scripts/noise_drift_report.py

echo "== docs check: markdown links + public-API doctests"
python scripts/docs_check.py

echo "== example smoke: cross-machine sweep"
python examples/machine_comparison.py > /dev/null

echo "== campaign smoke: design-space sweep + persistent store"
python scripts/campaign_smoke.py

echo "== perfbench smoke: traced predict-sweep, correct, one parse per suite source"
perfbench_last=$(python3 perfbench/run.py --workload predict-sweep --seed 1 \
    --seconds 2 --trace 1 | tail -n 1)
python3 - "$perfbench_last" <<'EOF'
import json
import sys

last = json.loads(sys.argv[1])
parses = last["metrics"]["frontend.parse_calls"]["value"]
problems = [message for bad, message in (
    (last["correct"] is not True, "outputs are not correct"),
    (last["failed"] != 0, f"{last['failed']} points failed"),
    (parses != 16, f"frontend.parse_calls is {parses}, expected 16"),
) if bad]
if problems:
    sys.exit("perfbench predict-sweep smoke: " + "; ".join(problems))
print(f"perfbench predict-sweep smoke: correct, 0 failed, {parses} parses")
EOF

echo "== perfbench smoke: traced table2-accuracy, correct, prediction errors unchanged"
perfbench_last=$(python3 perfbench/run.py --workload table2-accuracy --seed 1 \
    --seconds 2 --trace 1 | tail -n 1)
python3 - "$perfbench_last" <<'EOF'
import json
import sys

# Exact: the simulator's "measured" times are deterministic, so any change
# to these errors is a change to a simulated number.
EXPECTED = {"error_pct_median": 0.5621533065772482,
            "error_pct_max": 10.419545075841617}

last = json.loads(sys.argv[1])
errors = {name: last["metrics"][name]["value"] for name in EXPECTED}
problems = [message for bad, message in (
    (last["correct"] is not True, "outputs are not correct"),
    (last["failed"] != 0, f"{last['failed']} points failed"),
) if bad] + [f"{name} is {errors[name]!r}, expected {value!r}"
             for name, value in EXPECTED.items() if errors[name] != value]
if problems:
    sys.exit("perfbench table2-accuracy smoke: " + "; ".join(problems))
print("perfbench table2-accuracy smoke: correct, 0 failed, errors unchanged")
EOF

echo "== perfbench smoke: traced sim-scale, correct, simulated counts unchanged"
perfbench_last=$(python3 perfbench/run.py --workload sim-scale --seed 1 \
    --seconds 2 --trace 1 | tail -n 1)
python3 - "$perfbench_last" <<'EOF'
import json
import sys

# Exact: simulated time, messages and statements are deterministic, so any
# change here is a change to a simulated number.
EXPECTED = {
    f"simulator.{config}.{metric}": value
    for config, values in {
        "hypercube_p1024": {"simulated_us": 35932, "messages": 102400,
                            "statements": 172},
        "switched_p8192": {"simulated_us": 4435, "messages": 491520,
                           "statements": 172},
    }.items()
    for metric, value in values.items()
}

last = json.loads(sys.argv[1])
values = {name: last["metrics"][name]["value"] for name in EXPECTED}
problems = [message for bad, message in (
    (last["correct"] is not True, "outputs are not correct"),
    (last["failed"] != 0, f"{last['failed']} calls failed"),
) if bad] + [f"{name} is {values[name]!r}, expected {value!r}"
             for name, value in EXPECTED.items() if values[name] != value]
if problems:
    sys.exit("perfbench sim-scale smoke: " + "; ".join(problems))
print("perfbench sim-scale smoke: correct, 0 failed, simulated counts unchanged")
EOF

echo "== sharding smoke: interrupt a sharded campaign, resume, verify the merge"
python scripts/sharding_smoke.py

echo "== advisor smoke: bounded advise() run against the persistent store"
python scripts/advisor_smoke.py

echo "== obs smoke: spans, metrics and run manifest cross-checked end to end"
python scripts/obs_smoke.py

echo "== serve smoke: live HTTP server under a mixed hit/miss burst"
python scripts/serve_smoke.py

echo "== chaos smoke: crash + hang + torn write + transient across a 4-shard campaign and a live server"
python scripts/chaos_smoke.py

echo "== serve benchmark: cached latency percentiles + the 10k/s floor"
python -m pytest benchmarks/test_bench_serve.py -x -q

echo "== slow tier: stress tests (8-way writer contention, live-server mix)"
REPRO_SLOW=1 python -m pytest tests -x -q -m slow

echo "check.sh: all green"
