"""repro — a reproduction of "Interpreting the Performance of HPF/Fortran 90D".

The package implements, from scratch, the source-driven interpretive
performance-prediction framework of Parashar, Hariri, Haupt and Fox
(Supercomputing '94) together with every substrate it needs:

* an HPF/Fortran 90D frontend and Phase-1 compiler (parse → normalise →
  partition → sequentialise → communication detection → loosely-synchronous
  SPMD node program),
* the Systems Module (SAG/SAU machine characterisation, with the iPSC/860
  abstraction of §4.4),
* the Application Module (AAU / AAG / SAAG, communication table, critical
  variables),
* the Interpretation Engine (per-AAU interpretation functions + the recursive
  interpretation algorithm) and the Output Module (profiles, per-line queries,
  ParaGraph-style traces),
* a functional interpreter (correctness oracle) and an iPSC/860 execution
  simulator (hypercube network + dynamic node cost model) that stands in for
  the real machine as the source of "measured" times,
* the NPAC benchmark suite of Table 1 and a workbench regenerating every table
  and figure of the paper's evaluation.

Quick start
-----------

>>> import repro
>>> SOURCE = '''
...       program demo
...       integer, parameter :: n = 16
...       real, dimension(n) :: x
...       real :: total
... !HPF$ PROCESSORS p(2)
... !HPF$ DISTRIBUTE x(BLOCK) ONTO p
...       forall (i = 1:n) x(i) = 0.5 * i
...       total = sum(x)
...       print *, total
...       end program demo
... '''
>>> estimate = repro.predict(SOURCE, nprocs=2)    # Phase 2: interpretation parse
>>> measured = repro.measure(SOURCE, nprocs=2)    # simulated "real" execution
>>> estimate.predicted_time_us > 0 and measured.measured_time_us > 0
True
>>> measured.printed                              # the data plane runs for real
['68']

``import repro`` exports the names in ``__all__``, the ones the docs and
examples reach through it; everything else is imported from its subpackage
(``repro.compiler``, ``repro.interpreter``, ``repro.simulator``,
``repro.explore``, ...).

See ``docs/architecture.md`` for the layer map, ``docs/simulator.md`` for
the execution simulator (including the ``vector`` vs ``loop`` engines),
``docs/cookbook.md`` for campaign and advisor recipes, and
``docs/observability.md`` for the ``repro.obs`` telemetry layer (spans,
metrics, per-run manifests), and ``docs/resilience.md`` for ``repro.faults``
(deterministic fault injection, retries, the watchdog, load shedding).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__version__ = "1.4.0"

# observability (dependency-free; every other layer reports into it) ------------
from . import obs

# fault injection + resilience primitives (no-op unless a plan is installed) ----
from . import faults

from .compiler import compile_source
from .frontend.errors import ReproError
from .system import get_machine, ipsc860, machine_names, register_machine, resolve_machine
from .interpreter import interpret

# staged predict path (parse/compile/price caches) --------------------------------
from . import stages

from .simulator import SimulatorOptions, simulate
from .output import QueryInterface, generate_trace, program_profile, render_profile
from .suite import get_entry
from .explore import ResultStore
from .advisor import advise

# prediction-as-a-service (imported last: serve builds on every layer above)
from . import serve

if TYPE_CHECKING:
    from .interpreter import InterpretationResult, InterpreterOptions
    from .simulator import SimulationResult
    from .system import Machine


def predict(
    source: str,
    *,
    nprocs: int = 4,
    grid_shape: tuple[int, ...] | None = None,
    params: dict[str, float] | None = None,
    machine: Machine | str | None = None,
    options: InterpreterOptions | None = None,
) -> InterpretationResult:
    """One-call convenience: compile HPF source and interpret its performance.

    This is the paper's Phase 2 — the static interpretation parse — behind a
    single call: compile (normalise → partition → sequentialise → detect
    communication), then walk the SPMD abstraction with the target machine's
    parameter set and the analytic communication models.

    Args:
        source: HPF/Fortran 90D program text (directives in ``!HPF$`` lines).
        nprocs: number of node processes the program is compiled for.
        grid_shape: explicit processor-grid shape (e.g. ``(2, 4)``); ``None``
            lets the compiler factor ``nprocs`` near-square per the
            PROCESSORS directive's rank.
        params: ``{name: value}`` overrides for named integer/real
            parameters (problem sizes, iteration counts).
        machine: a :class:`Machine` instance or a registered machine name
            (``"ipsc860"``, ``"paragon"``, ``"cluster"``, ``"torus-cluster"``,
            ``"cm5"``, ``"modern-cluster"``, or any alias); ``None`` means
            the paper's iPSC/860.
        options: :class:`InterpreterOptions` tuning the interpretation
            (hit-ratio hints, collective model selection).

    Returns:
        An :class:`InterpretationResult` with ``predicted_time_us``, the
        computation/communication/overhead split (``total``), per-line and
        per-phase breakdowns, and the static load-imbalance estimate
        (``load_imbalance``).

    Raises:
        ParserError: the source does not parse.
        CompilerError: the program cannot be partitioned/sequentialised.
        KeyError: ``machine`` names no registered machine.

    The call runs as two independently keyed, independently cached stages
    (see :mod:`repro.stages`): *compile* (source → app model, machine-free)
    and *price* (app model × machine → estimate).  Repeated predictions of
    one program — same machine or not — reuse the compiled app model, and
    byte-identical (program, machine, options) requests reuse the priced
    estimate outright.

    Example:
        >>> from repro import predict
        >>> src = '''
        ...       program tiny
        ...       integer, parameter :: n = 16
        ...       real, dimension(n) :: x
        ... !HPF$ PROCESSORS p(2)
        ... !HPF$ DISTRIBUTE x(BLOCK) ONTO p
        ...       forall (i = 1:n) x(i) = 1.0 * i
        ...       end program tiny
        ... '''
        >>> on_cube = predict(src, nprocs=2)
        >>> on_modern = predict(src, nprocs=2, machine="modern-cluster")
        >>> on_modern.predicted_time_us < on_cube.predicted_time_us
        True
    """
    with obs.span("predict", nprocs=nprocs):
        compile_key = stages.compile_stage_key(
            source, nprocs=nprocs, grid_shape=grid_shape, params=params)
        compiled = stages.compile_cached(
            source, nprocs=nprocs, grid_shape=grid_shape, params=params,
            key=compile_key)
        target = resolve_machine(machine, nprocs)
        # a caller-built Machine instance may not match its registry
        # namesake, so only registry-resolved targets use the price cache
        return stages.price_cached(
            compiled, target, compile_key=compile_key, options=options,
            cacheable=machine is None or isinstance(machine, str))


def measure(
    source: str,
    *,
    nprocs: int = 4,
    grid_shape: tuple[int, ...] | None = None,
    params: dict[str, float] | None = None,
    machine: Machine | str | None = None,
    options: SimulatorOptions | None = None,
) -> SimulationResult:
    """One-call convenience: compile HPF source and run it in the simulator.

    The simulator stands in for "running the application on the real
    machine": it executes the compiled node program's data plane for real
    (NumPy, identical to the functional interpreter) while a per-rank timing
    plane accrues node-model compute time and message-level network time
    with link contention and seeded noise.  Compilation goes through the
    same cached compile stage as :func:`predict` (see :mod:`repro.stages`),
    so predicting and then measuring one program compiles it once.

    Args:
        source: HPF/Fortran 90D program text (directives in ``!HPF$`` lines).
        nprocs: number of simulated node processes.
        grid_shape: explicit processor-grid shape; ``None`` for the
            compiler's near-square default.
        params: ``{name: value}`` overrides for named integer/real
            parameters.
        machine: a :class:`Machine` instance or registered machine name
            (see :func:`predict`); ``None`` means the paper's iPSC/860.
        options: a :class:`SimulatorOptions` — noise magnitudes, RNG
            ``seed``, and the execution-core ``engine`` (``"vector"``, the
            scaled default, or ``"loop"``, the per-rank oracle; both produce
            identical times).

    Returns:
        A :class:`SimulationResult` with ``measured_time_us`` (max over the
        per-rank clocks), ``per_rank_us``, the metric breakdown, message
        statistics, captured PRINT output and the final array checksum.

    Raises:
        ParserError: the source does not parse.
        CompilerError: the program cannot be partitioned/sequentialised.
        SimulationError: an unknown ``options.engine``, a non-simulable SPMD
            node, or a runaway DO WHILE.
        KeyError: ``machine`` names no registered machine.

    Example:
        >>> from repro import SimulatorOptions, measure
        >>> src = '''
        ...       program tiny
        ...       integer, parameter :: n = 16
        ...       real, dimension(n) :: x
        ...       real :: total
        ... !HPF$ PROCESSORS p(2)
        ... !HPF$ DISTRIBUTE x(BLOCK) ONTO p
        ...       forall (i = 1:n) x(i) = 1.0 * i
        ...       total = sum(x)
        ...       end program tiny
        ... '''
        >>> fast = measure(src, nprocs=2)                  # vector engine
        >>> oracle = measure(src, nprocs=2,
        ...                  options=SimulatorOptions(engine="loop"))
        >>> fast.engine, oracle.engine
        ('vector', 'loop')
        >>> fast.per_rank_us == oracle.per_rank_us         # identical times
        True
    """
    with obs.span("measure", nprocs=nprocs):
        compiled = stages.compile_cached(
            source, nprocs=nprocs, grid_shape=grid_shape, params=params)
        target = resolve_machine(machine, nprocs)
        # simulate() opens its own "simulate" span nested under this one
        return simulate(compiled, target, options=options)


__all__ = [
    "__version__",
    "obs",
    "faults",
    "stages",
    "serve",
    "ReproError",
    "compile_source",
    "interpret",
    "simulate",
    "SimulatorOptions",
    "ipsc860",
    "get_machine",
    "register_machine",
    "machine_names",
    "QueryInterface",
    "generate_trace",
    "program_profile",
    "render_profile",
    "ResultStore",
    "advise",
    "get_entry",
    "predict",
    "measure",
]
