"""The repository benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload predict-sweep --seed 1 \\
        --seconds 20 --trace 0

Run it from the repository root.  It drives the program in ``src/``
through its public API, measures for about ``--seconds`` seconds, checks the
outputs, and prints a readable report followed, on the last line, by one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run also repeats one unit of the workload with spans on, and the metrics
are the per-layer ones.  End-to-end times and rates are scaled to the
reference host's speed (``common.HostSpeed``); the report also prints them
as timed.  ``perfbench/README.md`` describes the workloads and every
metric; ``catalogue.py`` lists them.

A copy of each report (and, for traced runs, the span log) is written to
``perfbench/out/``.  Exit status 0 means the run finished; whether its
outputs were right is ``correct`` in the last line.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402

from catalogue import (END_TO_END, LAYERS, MODULES, NAMED, OPS,  # noqa: E402
                       RUN_SECONDS)
from common import (OUT_DIR, SPEED_WARMUP, SRC, HostSpeed,  # noqa: E402
                    Measured, WorkDir, host_fingerprint, host_steal_s, median,
                    probe_setup)
from tracing import layer_metrics, write_spans  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _handle_signals() -> None:
    # a run started in the background can inherit an ignored SIGINT, and
    # children would inherit it too; the servers are stopped with SIGINT
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # a terminated run unwinds, so the servers it started are stopped
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _handle_signals()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(MODULES[args.workload])

    host = host_fingerprint()
    steal_before, started = host_steal_s(), time.perf_counter()
    speed = HostSpeed()
    speed.sample(SPEED_WARMUP)
    with WorkDir(args.workload) as workdir:
        setup = probe_setup(args.workload, args.seed, args.seconds, workdir,
                            speed) if module.SETUP_BY_PROBE else None
        inputs = module.prepare(args.seed, args.seconds)
        outcome, recorder, wall = module.run(inputs, args.seconds,
                                             bool(args.trace), workdir, speed)
    if setup is not None:
        taken, scaled = setup
        outcome.metrics["setup_s"] = Measured(median(scaled), "s", len(scaled))
        outcome.raw["setup_s"] = Measured(median(taken), "s", len(taken))
    host["slowdown"] = speed.slowdown
    host["speed_samples"] = len(speed.samples)
    steal_after = host_steal_s()
    if steal_before is not None and steal_after is not None:
        # the share of this machine's CPU time the hypervisor took while the
        # run went on: high values mean the timings measure the neighbours
        host["steal_pct"] = round(100 * (steal_after - steal_before) / (
            (time.perf_counter() - started) * (os.cpu_count() or 1)), 2)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        layers = layer_metrics(recorder.spans, wall)
        layers.update(outcome.layers)
        outcome.layers = layers
        write_spans(OUT_DIR / f"{stem}.spans.jsonl", recorder.spans)

    if args.trace:
        units = {name: unit for name, unit, *_ in LAYERS}
        reported = {name: outcome.layers.get(name) or outcome.named.get(name)
                    or Measured(0, units[name], 0) for name in units}
    else:
        reported = {name: outcome.metrics[name] for name, *_ in END_TO_END}

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "op": OPS[args.workload],
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "checks": outcome.checks,
        "end_to_end": _samples(outcome.metrics),
        "end_to_end_raw": _samples(outcome.raw),
        "named": _samples(outcome.named),
        "per_layer": _samples(outcome.layers),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    _print_report(report, args)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: m.as_json() for name, m in reported.items()},
    }), flush=True)
    return 0


def _samples(metrics: dict[str, Measured]) -> dict:
    return {name: {"value": m.value, "unit": m.unit, "samples": m.samples}
            for name, m in metrics.items()}


def _print_report(report: dict, args: argparse.Namespace) -> None:
    def rows(title: str, metrics: dict, notes: dict | None = None) -> None:
        if metrics:
            print(title)
        for name, m in metrics.items():
            note = (notes or {}).get(name, "")
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<9} "
                  f"n={m['samples']:<7} {note}".rstrip())

    host = report["host"]
    print(f"perfbench {args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print("host  " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print(f"op    {report['op']}")
    rows("end-to-end (gated; at the reference host's speed):",
         report["end_to_end"])
    rows(f"end-to-end as timed here (slowdown {host['slowdown']:.4f}):",
         report["end_to_end_raw"])
    own = {name for name, _u, _b, where in NAMED if args.workload in where}
    rows(f"{args.workload} metrics:", {k: v for k, v in report["named"].items()
                                       if k in own})
    targets = {name: f"-> {target} @ {where}"
               for name, _u, _b, target, where in LAYERS}
    rows("per-layer (-> the end-to-end metric it should move, where):",
         report["per_layer"], targets)
    print("checks:")
    for name, status in report["checks"].items():
        print(f"  {status:<6} {name}" if status == "ok"
              else f"  {status}: {name}")
    print(f"attempted={report['attempted']}  failed={report['failed']}  "
          f"correct={report['correct']}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
