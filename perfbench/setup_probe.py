"""Set-up probe: in a fresh interpreter, import one workload (and with it
the program) and build its inputs, then print ``ready`` and exit.

    python3 perfbench/setup_probe.py <workload> <seed> <seconds>

``run.py`` times this from spawn to the ``ready`` line; the program is found
through the ``PYTHONPATH`` that :func:`common.child_env` sets.
"""

import sys

sys.dont_write_bytecode = True

import importlib  # noqa: E402

from catalogue import MODULES  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, seconds = argv[1], int(argv[2]), int(argv[3])
    importlib.import_module(MODULES[workload]).prepare(seed, seconds)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
