"""Cross-machine sweep: the Laplace solver on every registered machine.

The Systems Module is the only machine-specific part of the framework, so
retargeting a study is a one-word change: ``get_machine("paragon", 8)``.
This example sweeps the (BLOCK,*) Laplace solver across all six built-in
targets — the iPSC/860 hypercube, a Paragon-class 2-D mesh, a switched
workstation cluster, a T3D-class torus, a CM-5-class fat tree and a modern
commodity cluster — at p = 2, 4, 8, 16 and prints the predicted-time table
(the interpretation parse costs milliseconds per cell; no simulation runs).

Run with:  PYTHONPATH=src python examples/machine_comparison.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.system import get_machine, machine_names, machine_specs  # noqa: E402
from repro.workbench import run_machine_comparison  # noqa: E402


def main() -> None:
    print("Registered machine targets:")
    for spec in machine_specs():
        machine = get_machine(spec.name, 8)
        topo = machine.topology()
        print(f"  {spec.name:10s} {machine.name:12s} "
              f"topology={topo.kind:9s} diameter={topo.diameter()} "
              f"bisection={topo.bisection_links()}  {spec.description}")
    print()

    comparison = run_machine_comparison(
        key="laplace_block_star",
        size=64,
        proc_counts=(2, 4, 8, 16),
        machines=machine_names(),
    )
    print(comparison.to_table())
    print()
    for nprocs in comparison.proc_counts():
        print(f"  fastest predicted machine at p={nprocs:2d}: "
              f"{comparison.best_machine(nprocs)}")


if __name__ == "__main__":
    main()
