"""Campaign runner: evaluate a scenario space through the predictor.

A campaign is the executable form of the paper's design-tuning workflow: take
a declarative :class:`~repro.explore.space.ScenarioSpace`, evaluate each
point through ``repro.predict`` (the interpretation parse) and/or
``repro.measure`` (the execution simulator), and collect the results for
ranking and reporting.  Five search strategies are provided, in the spirit
of ArchGym's exploration harnesses around fast cost models:

* ``grid``      — exhaustive sweep of every valid point,
* ``random``    — seeded uniform sampling of the space (``samples`` points),
* ``hillclimb`` — greedy local search: start somewhere, evaluate all
  one-axis neighbours, move to the best improvement, stop at a local
  optimum; the visited trajectory is recorded ArchGym-style,
* ``genetic``   — a small generational GA: tournament selection, per-axis
  crossover (derived fields rebuilt), one-axis mutation, elitism; the best
  point of each generation is recorded on the trajectory,
* ``anneal``    — simulated annealing over the one-axis neighbour graph
  with a geometric temperature schedule and Metropolis acceptance,
* ``bandit``    — a UCB1 bandit over *directive arms*: each application
  (directive alternative) is an arm, and the evaluation budget
  (``max_steps`` pulls) concentrates on the arms whose sampled points
  rank best; ``ucb_c`` scales the exploration bonus.

All strategies are deterministic for a fixed ``seed``.

Points are evaluated **one after another in the calling process** and
**memoised** twice: within a run (duplicate points are evaluated once) and
across runs through the optional persistent
:class:`~repro.explore.store.ResultStore` — a re-run of a finished campaign
touches the store only.  The one way to spread a campaign over worker
processes is :func:`~repro.explore.sharding.run_sharded_campaign`, which
takes ``grid`` and ``random`` only: the other strategies build each batch
from the results of the last, so their simulated points always run
serially here.
Simulated points run the simulator's **vector engine**
(``SimulatorOptions(engine="vector")``, the default): each simulated point
computes its per-rank state in bulk, which is what makes p ≥ 64 sweeps
affordable; pass explicit ``simulator_options`` to pin the ``loop`` oracle
instead.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

from .. import obs, stages
from ..simulator import SimulatorOptions, simulate
from ..suite import get_entry
from ..system import Machine, get_machine, resolve_machine
from .space import ProgramSpec, ScenarioError, ScenarioPoint, ScenarioSpace
from .store import ResultStore, ScenarioResult

STRATEGIES = ("grid", "random", "hillclimb", "genetic", "anneal", "bandit")
MODES = ("predict", "measure", "both")

#: ``genetic``: the chance that a child moves to a random neighbour.
MUTATION_RATE = 0.3
#: ``anneal``: the start temperature as a fraction of the first point's
#: objective, and the factor the temperature shrinks by per step.
ANNEAL_START_FRACTION = 0.1
ANNEAL_COOLING = 0.85

#: ``(point) -> Machine`` override used by workbench presets that receive a
#: pre-built Machine instance instead of a registry name.
MachineResolver = Callable[[ScenarioPoint], Machine]


def resolve_campaign_machine(
    machine: Machine | str,
) -> tuple[str, MachineResolver | None]:
    """Campaign-facing (machine name, resolver) for a name or an instance.

    Registry names need no resolver; a pre-built :class:`Machine` rides along
    as a resolver closure and contributes its ``name`` to scenario hashing.
    """
    if isinstance(machine, str):
        return machine, None
    return machine.name, lambda point: resolve_machine(machine, point.nprocs)


def compile_scenario(point: ScenarioPoint, program: ProgramSpec | None = None):
    """(compiled program, interpreter options) for one scenario point.

    The single compile path every scenario evaluation goes through — the
    campaign worker, the advisor's baseline diagnosis and the serve layer's
    request workers share it, so the program/params/options resolution can
    never diverge between them.  Compilation is memoised through the
    package-wide compile-stage cache (:func:`repro.stages.compile_cached`):
    the machine is not part of the key, so cross-machine sweeps reuse one
    compile per (program, size, nprocs, layout) cell.
    """
    compiled, options, _key = _compile_point(point, program)
    return compiled, options


def _compile_point(point: ScenarioPoint, program: ProgramSpec | None):
    """:func:`compile_scenario` plus the compile-stage key it compiled under."""
    if program is not None:
        source, name = program.source, program.key
        params = program.params_for(point.size)
        options = None
    else:
        entry = get_entry(point.app)
        source, name = entry.source, entry.key
        params = entry.params_for(point.size)
        options = entry.interpreter_options(point.size)
    params.update({k: v for k, v in point.params})
    key = stages.compile_stage_key(source, nprocs=point.nprocs,
                                   grid_shape=point.grid_shape, params=params)
    with obs.span("compile", app=point.app, nprocs=point.nprocs):
        compiled = stages.compile_cached(source, name=name,
                                         nprocs=point.nprocs,
                                         grid_shape=point.grid_shape,
                                         params=params, key=key)
    return compiled, options, key


def evaluate_point(
    point: ScenarioPoint,
    mode: str = "predict",
    program: ProgramSpec | None = None,
    machine_resolver: MachineResolver | None = None,
    simulator_options: SimulatorOptions | None = None,
) -> ScenarioResult:
    """Compile and evaluate one scenario point (the campaign worker)."""
    if mode not in MODES:
        raise ScenarioError(f"unknown campaign mode {mode!r}; known: {MODES}")
    started = _time.perf_counter()
    with obs.span("point", app=point.app, machine=point.machine,
                  nprocs=point.nprocs, mode=mode):
        compiled, options, compile_key = _compile_point(point, program)
        if machine_resolver is not None:
            machine = machine_resolver(point)
        else:
            machine = get_machine(point.machine, point.nprocs,
                                  topology_shape=point.topology_shape)

        estimated = measured = None
        comp = comm = ovhd = 0.0
        if mode in ("predict", "both"):
            # the price stage is cached per (compile key, machine, options);
            # a machine_resolver closure builds machines the registry cannot
            # reproduce, so those points bypass the cache
            estimate = stages.price_cached(
                compiled, machine, compile_key=compile_key,
                options=options, cacheable=machine_resolver is None)
            estimated = estimate.predicted_time_us
            comp = estimate.total.computation
            comm = estimate.total.communication
            ovhd = estimate.total.overhead
        if mode in ("measure", "both"):
            # simulated points run the vector engine (the SimulatorOptions
            # default) unless simulator_options pins the loop oracle;
            # simulate() opens its own "simulate" span
            measured = simulate(compiled, machine,
                                options=simulator_options).measured_time_us

        result = ScenarioResult(
            point=point, mode=mode,
            estimated_us=estimated, measured_us=measured,
            comp_us=comp, comm_us=comm, ovhd_us=ovhd,
            grid_shape=tuple(compiled.mapping.grid.shape),
            program_source=program.source if program is not None else None,
        )
    obs.counter("repro_campaign_points_evaluated_total", mode=mode).inc()
    obs.histogram("repro_point_latency_us", mode=mode).observe(
        (_time.perf_counter() - started) * 1e6)
    return result


@dataclass
class CampaignRun:
    """Everything one campaign execution produced."""

    name: str
    space: ScenarioSpace
    mode: str
    strategy: str
    results: list[ScenarioResult] = field(default_factory=list)
    rejected: list[tuple[ScenarioPoint, str]] = field(default_factory=list)
    store_hits: int = 0
    evaluated: int = 0
    trajectory: list[ScenarioResult] = field(default_factory=list)   # hillclimb
    #: the :class:`repro.obs.RunManifest` of this run — populated (and
    #: written next to the store) only when observability is enabled
    manifest: object | None = None

    @property
    def points(self) -> list[ScenarioPoint]:
        return [r.point for r in self.results]

    def best(self, objective: Callable[[ScenarioResult], float] | None = None,
             ) -> ScenarioResult:
        if not self.results:
            raise ScenarioError(f"campaign {self.name!r} produced no results")
        key = objective if objective is not None else (lambda r: r.objective_us)
        return min(self.results, key=key)


@dataclass(frozen=True)
class Campaign:
    """A named, declarative sweep: space + evaluation mode + search strategy.

    The workbench studies are thin presets over Campaigns; user code builds
    its own and calls :meth:`run`.
    """

    name: str
    space: ScenarioSpace
    mode: str = "predict"
    strategy: str = "grid"
    samples: int | None = None            # random strategy
    max_steps: int = 32                   # hillclimb strategy
    seed: int = 0

    def run(self, store: ResultStore | None = None, **kwargs) -> CampaignRun:
        return run_campaign(self.space, name=self.name, mode=self.mode,
                            strategy=self.strategy, samples=self.samples,
                            max_steps=self.max_steps, seed=self.seed,
                            store=store, **kwargs)


# ---------------------------------------------------------------------------
# evaluation with memoisation
# ---------------------------------------------------------------------------


#: ``(app key) -> ProgramSpec | None`` lookup for ad-hoc (non-suite) programs.
ProgramResolver = Callable[[str], "ProgramSpec | None"]


def evaluate_points(
    points: Sequence[ScenarioPoint],
    *,
    mode: str = "predict",
    store: ResultStore | None = None,
    program_for: ProgramResolver | None = None,
    machine_resolver: MachineResolver | None = None,
    simulator_options: SimulatorOptions | None = None,
    executor: str = "serial",
    memo: dict[ScenarioPoint, ScenarioResult] | None = None,
) -> tuple[list[ScenarioResult], int, int]:
    """Evaluate *points* (deduplicated, store-memoised, one after another).

    The space-less face of the campaign engine: callers that already hold
    concrete :class:`ScenarioPoint` s (the performance advisor's mutation
    candidates, ad-hoc scripts) share the same dedup / store machinery the
    strategies run on.  Returns (results in input order, persistent-store
    hits, fresh evaluations).  In-run ``memo`` revisits (duplicate points,
    hill-climb re-encounters) are free dedup and count as neither; a seeded
    memo entry only satisfies a request of the same evaluation ``mode``.
    ``executor`` accepts only ``"serial"``: fresh points run in this process
    and are appended to ``store`` in order.  Spread points over worker
    processes with :func:`~repro.explore.sharding.run_sharded_campaign`.
    """
    if mode not in MODES:
        raise ScenarioError(f"unknown campaign mode {mode!r}; known: {MODES}")
    if executor != "serial":
        raise ScenarioError(
            f"unknown campaign executor {executor!r}; points are evaluated "
            "serially, use run_sharded_campaign to spread them over worker "
            "processes")
    if program_for is None:
        program_for = lambda app: None          # noqa: E731
    if memo is None:
        memo = {}

    unique: list[ScenarioPoint] = []
    seen: set[ScenarioPoint] = set()
    for point in points:
        if point not in seen:
            seen.add(point)
            unique.append(point)

    hits = 0
    memo_hits = 0
    todo: list[ScenarioPoint] = []
    for point in unique:
        cached_memo = memo.get(point)
        if cached_memo is not None and cached_memo.mode == mode:
            memo_hits += 1
            continue
        # a memo entry from another mode is not an answer to this one (the
        # store keys by mode; the in-run memo must too) — evaluate and let
        # the fresh result take the slot
        program = program_for(point.app)
        cached = store.get_point(point, mode,
                                 program.source if program else None) \
            if store is not None else None
        if cached is not None:
            memo[point] = cached
            hits += 1
        else:
            todo.append(point)

    if memo_hits:
        obs.counter("repro_campaign_memo_hits_total", mode=mode).inc(memo_hits)
    if store is not None:
        if hits:
            obs.counter("repro_campaign_store_hits_total",
                        mode=mode).inc(hits)
        if todo:
            obs.counter("repro_campaign_store_misses_total",
                        mode=mode).inc(len(todo))

    fresh = [evaluate_point(point, mode=mode, program=program_for(point.app),
                            machine_resolver=machine_resolver,
                            simulator_options=simulator_options)
             for point in todo]
    for point, result in zip(todo, fresh):
        memo[point] = result
        if store is not None:
            store.add(result)

    return [memo[point] for point in points], hits, len(todo)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def run_campaign(
    space: ScenarioSpace,
    *,
    name: str = "campaign",
    mode: str = "predict",
    strategy: str = "grid",
    store: ResultStore | None = None,
    samples: int | None = None,
    max_steps: int = 32,
    seed: int = 0,
    population: int = 8,
    generations: int = 6,
    ucb_c: float = 1.0,
    where: Callable[[ScenarioPoint], bool] | None = None,
    objective: Callable[[ScenarioResult], float] | None = None,
    machine_resolver: MachineResolver | None = None,
    simulator_options: SimulatorOptions | None = None,
    memo: dict[ScenarioPoint, ScenarioResult] | None = None,
) -> CampaignRun:
    """Evaluate *space* under one search strategy; the subsystem's front door.

    Args:
        space: the declarative :class:`~repro.explore.space.ScenarioSpace`
            (apps × sizes × proc_counts × machines × layouts × params).
        name: label recorded on the returned run.
        mode: ``"predict"`` (interpretation parse only), ``"measure"``
            (execution simulator only) or ``"both"``.  Simulated points run
            the simulator's vector engine unless ``simulator_options`` says
            otherwise.
        strategy: ``"grid"``, ``"random"``, ``"hillclimb"``, ``"genetic"``,
            ``"anneal"`` or ``"bandit"``; all deterministic for a fixed
            ``seed``.
        store: a :class:`~repro.explore.store.ResultStore` for cross-run
            memoisation and persistence (a finished campaign re-runs free).
        samples: point count for ``random``.
        max_steps: step bound for ``hillclimb`` / ``anneal``.
        seed: RNG seed for the stochastic strategies.
        population / generations: ``genetic`` tuning (its mutation rate is
            :data:`MUTATION_RATE`; ``anneal``'s schedule is
            :data:`ANNEAL_START_FRACTION` and :data:`ANNEAL_COOLING`).
        ucb_c: ``bandit`` exploration constant — scales the UCB1
            confidence bonus over the directive arms (0 is pure greedy).
        where: validity predicate pruning points before evaluation.
        objective: ranking callable over :class:`ScenarioResult` (default:
            measured time when present, else estimated).
        machine_resolver: ``(point) -> Machine`` override used by workbench
            presets with pre-built Machine instances.
        simulator_options: :class:`~repro.simulator.SimulatorOptions` for
            simulated points (noise, seed, ``engine="vector"|"loop"``).
        memo: pre-seeded ``{point: result}`` cache (the advisor threads its
            targeted-mutation results into its refinement campaign this
            way); seeded entries count as neither store hits nor fresh
            evaluations.  Trajectory strategies (hillclimb/genetic/anneal)
            report every memo entry in ``run.results``; grid/random report
            exactly the evaluated batch.

    Returns:
        A :class:`CampaignRun`: evaluated ``results`` (with store-hit and
        fresh-evaluation counts), rejected points with reasons, and — for
        the trajectory strategies — the visited ``trajectory``.

    Fresh points are evaluated one after another in this process; spread
    a ``grid`` or ``random`` space over worker processes with
    :func:`~repro.explore.sharding.run_sharded_campaign`.  The trajectory
    strategies have no parallel path: in ``"measure"`` / ``"both"`` mode
    their population and neighbour batches simulate serially.

    Raises:
        ScenarioError: unknown ``strategy`` / ``mode``, or an
            empty-but-invalid space.

    Example:
        >>> from repro.explore import ScenarioSpace, run_campaign
        >>> space = ScenarioSpace(apps=("laplace_block_star",), sizes=(16,),
        ...                       proc_counts=(2, 4))
        >>> run = run_campaign(space, mode="predict")
        >>> len(run.results)
        2
        >>> run.best().point.nprocs in (2, 4)
        True
    """
    if strategy not in STRATEGIES:
        raise ScenarioError(
            f"unknown campaign strategy {strategy!r}; known: {STRATEGIES}")
    if mode not in MODES:
        raise ScenarioError(f"unknown campaign mode {mode!r}; known: {MODES}")

    started = _time.perf_counter()
    obs_mark = obs.get_tracer().mark()

    points, rejected = space.expand_with_rejects(where)
    run = CampaignRun(name=name, space=space, mode=mode, strategy=strategy,
                      rejected=rejected)
    if not points:
        _finalize_campaign_obs(run, store=store, started=started,
                               mark=obs_mark)
        return run

    memo = dict(memo) if memo is not None else {}

    def evaluate(batch: Sequence[ScenarioPoint]
                 ) -> tuple[list[ScenarioResult], int, int]:
        results, hits, fresh = evaluate_points(
            batch, mode=mode, store=store, program_for=space.program_for,
            machine_resolver=machine_resolver,
            simulator_options=simulator_options, memo=memo)
        run.store_hits += hits
        run.evaluated += fresh
        return results, hits, fresh

    score = objective if objective is not None else (lambda r: r.objective_us)

    if strategy == "grid":
        run.results, _, _ = evaluate(points)
    elif strategy == "random":
        rng = Random(seed)
        count = min(samples if samples is not None else max(len(points) // 2, 1),
                    len(points))
        chosen = rng.sample(points, count)
        run.results, _, _ = evaluate(chosen)
    else:
        rng = Random(seed)
        if strategy == "hillclimb":
            _run_hillclimb(run, space, points, rng, evaluate, score, max_steps)
        elif strategy == "genetic":
            _run_genetic(run, space, points, rng, evaluate, score,
                         population=population, generations=generations)
        elif strategy == "bandit":
            _run_bandit(run, points, rng, evaluate, score,
                        max_steps=max_steps, ucb_c=ucb_c)
        else:
            _run_anneal(run, space, points, rng, evaluate, score,
                        max_steps=max_steps)
        run.results = list(memo.values())

    _finalize_campaign_obs(run, store=store, started=started, mark=obs_mark)
    return run


def _finalize_campaign_obs(run: CampaignRun, *, store: ResultStore | None,
                           started: float, mark: int) -> None:
    """Build (and, when a store exists, write) this run's manifest.

    Only active when observability is enabled.
    """
    if not obs.enabled():
        return
    spans = obs.get_tracer().spans_since(mark)
    manifest = obs.build_manifest(
        name=run.name,
        mode=run.mode,
        strategy=run.strategy,
        executor="serial",
        wall_time_s=_time.perf_counter() - started,
        points_evaluated=len(run.results),
        fresh_evaluations=run.evaluated,
        store_hits=run.store_hits,
        store_path=store.path if store is not None else None,
        store_records=len(store) if store is not None else None,
        spans=spans,
        registry=obs.get_registry(),
    )
    run.manifest = manifest
    if store is not None:
        manifest.write(obs.manifest_path_for(store.path))


def _run_hillclimb(run, space, points, rng, evaluate, score, max_steps):
    """Greedy hill-climb over the one-axis neighbour graph."""
    current = rng.choice(points)
    [current_result], _, _ = evaluate([current])
    run.trajectory.append(current_result)
    for step in range(max_steps):
        obs.gauge("repro_campaign_strategy_step",
                  strategy="hillclimb").set(step + 1)
        neighbours = space.neighbors(current, points)
        if not neighbours:
            break
        results, _, _ = evaluate(neighbours)
        best = min(results, key=score)
        if score(best) >= score(current_result):
            break                                   # local optimum
        current, current_result = best.point, best
        run.trajectory.append(current_result)


def _crossover(rng: Random, a: ScenarioPoint, b: ScenarioPoint,
               space: ScenarioSpace, pool: set[ScenarioPoint]) -> ScenarioPoint:
    """Per-axis recombination of two parents, closed over the valid pool.

    Each design axis is inherited from either parent with probability 1/2;
    derived fields (the Laplace processor-grid shapes) are rebuilt for the
    recombined (app, nprocs).  A child that falls outside the valid pool
    (e.g. a topology shape that no longer tiles the inherited nprocs)
    degrades to parent *a*, so the search never leaves the space.
    """
    pick = lambda x, y: x if rng.random() < 0.5 else y   # noqa: E731
    child = space.rebuild_point(
        app=pick(a.app, b.app),
        size=pick(a.size, b.size),
        nprocs=pick(a.nprocs, b.nprocs),
        machine=pick(a.machine, b.machine),
        topology_shape=pick(a.topology_shape, b.topology_shape),
        params=pick(a.params, b.params),
    )
    return child if child in pool else a


def _tournament(rng: Random, scored: list[ScenarioResult], score,
                k: int = 2) -> ScenarioResult:
    contenders = [scored[rng.randrange(len(scored))] for _ in range(k)]
    return min(contenders, key=score)


def _run_genetic(run, space, points, rng, evaluate, score, *,
                 population, generations):
    """Generational GA: tournament selection, crossover, mutation, elitism."""
    pool = set(points)
    pop_size = min(max(population, 2), len(points))
    current = rng.sample(points, pop_size)
    scored, _, _ = evaluate(current)
    best = min(scored, key=score)
    run.trajectory.append(best)
    for generation in range(generations):
        obs.gauge("repro_campaign_strategy_step",
                  strategy="genetic").set(generation + 1)
        next_gen = [best.point]                     # elitism
        while len(next_gen) < pop_size:
            parent_a = _tournament(rng, scored, score)
            parent_b = _tournament(rng, scored, score)
            child = _crossover(rng, parent_a.point, parent_b.point, space, pool)
            if rng.random() < MUTATION_RATE:
                neighbours = space.neighbors(child, points)
                if neighbours:
                    child = neighbours[rng.randrange(len(neighbours))]
            next_gen.append(child)
        scored, _, _ = evaluate(next_gen)
        generation_best = min(scored, key=score)
        if score(generation_best) < score(best):
            best = generation_best
        run.trajectory.append(best)


def _run_bandit(run, points, rng, evaluate, score, *, max_steps, ucb_c):
    """UCB1 bandit over *directive arms*: one arm per application key.

    The paper's §5.2.1 question — which DISTRIBUTE/ALIGN alternative wins —
    maps naturally onto a multi-armed bandit: each directive alternative
    (application key) is an arm; a pull samples one of the arm's points
    uniformly and evaluates it.  Arms are initialised with one pull each
    (sorted key order, so runs are deterministic for a fixed seed), then
    the remaining ``max_steps`` budget follows the UCB1 index

        mean_reward(arm) + ucb_c * sqrt(2 ln t / pulls(arm))

    with rewards normalised as ``best_objective_so_far / objective`` —
    a pull matching the incumbent scores 1, worse pulls decay toward 0,
    so the index is scale-free across problem sizes.  The best-so-far
    result after each pull lands on ``run.trajectory`` ArchGym-style.
    """
    arms: dict[str, list[ScenarioPoint]] = {}
    for point in points:
        arms.setdefault(point.app, []).append(point)
    order = sorted(arms)
    pulls = {app: 0 for app in order}
    rewards = {app: 0.0 for app in order}
    state = {"best": None, "total": 0}

    def pull(app: str) -> None:
        pool = arms[app]
        point = pool[rng.randrange(len(pool))]
        [result], _, _ = evaluate([point])
        state["total"] += 1
        pulls[app] += 1
        if state["best"] is None or score(result) < score(state["best"]):
            state["best"] = result
        rewards[app] += score(state["best"]) / max(score(result), 1e-12)
        run.trajectory.append(state["best"])
        obs.gauge("repro_campaign_strategy_step",
                  strategy="bandit").set(state["total"])

    for app in order:                       # one warm-up pull per arm
        if state["total"] >= max_steps:
            break
        pull(app)
    while state["total"] < max_steps:
        t = state["total"]
        pull(max(order, key=lambda app: (
            rewards[app] / pulls[app]
            + ucb_c * math.sqrt(2.0 * math.log(max(t, 2)) / pulls[app]))))


def _run_anneal(run, space, points, rng, evaluate, score, *, max_steps):
    """Simulated annealing with Metropolis acceptance over one-axis moves.

    The starting temperature is 10% of the initial objective
    (:data:`ANNEAL_START_FRACTION`), so early uphill moves of that order are
    accepted with probability ~1/e and the schedule is scale-free across
    problem sizes.
    """
    current = rng.choice(points)
    [current_result], _, _ = evaluate([current])
    t = max(score(current_result) * ANNEAL_START_FRACTION, 1e-9)
    run.trajectory.append(current_result)
    for step in range(max_steps):
        obs.gauge("repro_campaign_strategy_step",
                  strategy="anneal").set(step + 1)
        obs.gauge("repro_campaign_anneal_temperature").set(t)
        neighbours = space.neighbors(current, points)
        if not neighbours:
            break
        candidate = neighbours[rng.randrange(len(neighbours))]
        [candidate_result], _, _ = evaluate([candidate])
        delta = score(candidate_result) - score(current_result)
        if delta <= 0 or rng.random() < math.exp(-delta / max(t, 1e-12)):
            current, current_result = candidate, candidate_result
            run.trajectory.append(current_result)
        t *= ANNEAL_COOLING
