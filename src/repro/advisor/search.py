"""The advisor driver: diagnose, mutate, evaluate, rank.

:func:`advise` closes the loop the paper leaves to the reader: it interprets
the baseline scenario, walks the metrics tree for bottleneck
:class:`~repro.advisor.diagnose.Finding` s, generates the typed
:class:`~repro.advisor.mutations.Mutation` s those findings suggest, drives
every candidate through the design-space exploration machinery
(:func:`repro.explore.evaluate_points`, with all its dedup and persistent
:class:`~repro.explore.store.ResultStore` memoisation) and returns
the candidates that measurably improve the predicted time, ranked, explained
and — when simulation budget is granted — cross-checked against the
execution simulator for a confidence grade.

An optional ``refine`` pass widens the targeted mutations into a proper
search: the union of the candidate axis values becomes a
:class:`~repro.explore.space.ScenarioSpace` and the ``genetic`` or ``anneal``
campaign strategy explores recombinations the one-edit mutations cannot
reach.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from .. import obs
from ..explore.campaign import (
    MachineResolver,
    compile_scenario,
    evaluate_point,
    evaluate_points,
    run_campaign,
)
from ..explore.space import (
    ProgramSpec,
    ScenarioPoint,
    ScenarioSpace,
    default_grid_shape,
)
from ..explore.store import ResultStore, ScenarioResult
from ..interpreter import interpret
from ..suite import get_entry
from ..suite.registry import SuiteEntry
from ..system import (
    Machine,
    canonical_machine_name,
    get_machine,
    resolve_machine,
)
from .diagnose import Finding, diagnose
from .mutations import Mutation, generate_mutations
from .report import AdvisorReport, Recommendation

#: Simulated-vs-interpreted agreement bands for the confidence grade (%).
HIGH_CONFIDENCE_ERROR_PCT = 15.0
MEDIUM_CONFIDENCE_ERROR_PCT = 30.0

#: Baseline drift (vs the stored record) above which the store is treated as
#: predating a predictor change; predictions are analytic, so exact in
#: practice (same tolerance as the CI campaign smoke).
STALE_DRIFT_TOLERANCE_PCT = 0.01

REFINE_STRATEGIES = ("genetic", "anneal")


def _resolve_target(target: str) -> tuple[str, SuiteEntry | None,
                                          ProgramSpec | None]:
    """(app key, suite entry, ad-hoc program) for a suite key or HPF source."""
    if "\n" not in target:
        try:
            entry = get_entry(target)
            return entry.key, entry, None
        except KeyError:
            raise KeyError(
                f"advise target {target!r} is neither a suite key nor HPF "
                f"source text (sources span multiple lines)") from None
    program = ProgramSpec(key="adhoc", source=target,
                          description="ad-hoc advise() target")
    return program.key, None, program


def _machine_resolver_for(
    baseline_machine: Machine, baseline_name: str,
) -> MachineResolver:
    """Resolver that honours a caller-supplied Machine *instance* for the
    baseline while still building mutated (retargeted) machines by name."""
    def resolver(point: ScenarioPoint) -> Machine:
        if point.machine == baseline_name:
            return resolve_machine(baseline_machine, point.nprocs)
        return get_machine(point.machine, point.nprocs,
                           topology_shape=point.topology_shape)
    return resolver


def _refinement_space(points: list[ScenarioPoint],
                      program: ProgramSpec | None) -> ScenarioSpace:
    """The smallest ScenarioSpace spanning every candidate axis value."""
    def ordered(values):
        return tuple(dict.fromkeys(values))
    return ScenarioSpace(
        apps=ordered(p.app for p in points),
        sizes=ordered(p.size for p in points),
        proc_counts=tuple(sorted({p.nprocs for p in points})),
        machines=ordered(p.machine for p in points),
        topology_shapes=ordered(p.topology_shape for p in points),
        param_sets=ordered(p.params for p in points),
        programs=(program,) if program is not None else (),
    )


def _confidence(baseline: ScenarioResult | None,
                candidate: ScenarioResult | None) -> str:
    """Grade how well the simulator corroborates the interpreted ranking."""
    if baseline is None or candidate is None \
            or baseline.measured_us is None or candidate.measured_us is None:
        return "interpreted-only"
    corroborated = candidate.measured_us < baseline.measured_us
    worst_error = max(baseline.abs_error_pct, candidate.abs_error_pct)
    if corroborated and worst_error < HIGH_CONFIDENCE_ERROR_PCT:
        return "high"
    if corroborated and worst_error < MEDIUM_CONFIDENCE_ERROR_PCT:
        return "medium"
    return "low"


def advise(
    target: str,
    *,
    size: int | None = None,
    nprocs: int = 4,
    machine: Machine | str = "ipsc860",
    topology_shape: tuple[int, int] | None = None,
    params: tuple[tuple[str, float], ...] = (),
    store: ResultStore | None = None,
    budget: int = 24,
    simulate_top: int = 1,
    machines: tuple[str, ...] | None = None,
    max_nprocs: int = 64,
    refine: str | None = None,
    seed: int = 0,
) -> AdvisorReport:
    """Diagnose *target* and recommend directive/configuration changes.

    The advisor closes the paper's design-tuning loop: interpret the
    baseline, walk its metrics into located findings, generate typed
    candidate edits (distribution swaps, nprocs changes, machine retargets,
    topology reshapes), evaluate them through the predictor, and rank what
    actually improves the predicted time.

    Args:
        target: a suite key (``"finance"``, ``"laplace_block_block"``, …) or
            HPF source text for an ad-hoc program.
        size: problem size; ``None`` picks the entry's second-smallest
            paper size (64 for ad-hoc sources).
        nprocs: baseline process count.
        machine: baseline target — registered name (canonicalised, aliases
            welcome) or a :class:`Machine` instance.
        topology_shape: pin a (rows, cols) interconnect layout for the
            baseline (registry names only).
        params: extra ``((name, value), ...)`` program parameter overrides.
        store: a :class:`~repro.explore.store.ResultStore` memoising every
            evaluation persistently (re-advising a stored scenario is free).
        budget: cap on targeted-mutation candidates evaluated through the
            predictor.
        simulate_top: how many leading candidates also get an
            execution-simulator run for a confidence grade (0 disables).
        machines: candidate retarget machines (default: whole registry).
        max_nprocs: upper bound for nprocs-scaling mutations.
        refine: optionally widen the targeted mutations with a
            ``"genetic"`` or ``"anneal"`` campaign over their axis values;
            adds its own evaluations on top of ``budget``.
        seed: determinism seed for the refinement strategies.

    Returns:
        An :class:`~repro.advisor.report.AdvisorReport`: ``baseline`` result,
        ``findings`` (located bottleneck diagnoses), and
        ``recommendations`` — candidates that improve the predicted time,
        best first, each with a predicted speedup, confidence grade, and the
        finding that motivated it.

    Raises:
        ValueError: unknown ``refine`` strategy, or a refine/topology_shape
            combination that needs a registry machine name but got an
            instance.
        KeyError: ``machine`` names no registered machine.
        ScenarioError: the baseline scenario is invalid for its space.

    Example:
        >>> from repro import advise
        >>> report = advise("laplace_star_block", size=16, nprocs=4,
        ...                 budget=4, simulate_top=0)
        >>> report.baseline.estimated_us > 0
        True
        >>> for rec in report.top(2):           # doctest: +SKIP
        ...     print(rec.explanation())
    """
    if refine is not None and refine not in REFINE_STRATEGIES:
        raise ValueError(f"unknown refine strategy {refine!r}; "
                         f"known: {REFINE_STRATEGIES}")
    if refine is not None and isinstance(machine, Machine):
        raise ValueError(
            "refine= needs a registry machine *name*: the refinement "
            "campaign rebuilds machines by name in its workers, which an "
            "unregistered Machine instance cannot cross")
    key, entry, program = _resolve_target(target)
    if size is None:
        size = entry.sizes[1] if entry is not None and len(entry.sizes) > 1 \
            else (entry.sizes[0] if entry is not None else 64)

    machine_is_instance = isinstance(machine, Machine)
    if machine_is_instance and topology_shape is not None:
        raise ValueError(
            "topology_shape= cannot be combined with a Machine instance: "
            "set the shape on the instance (machine.topology_shape) or pass "
            "the registry name instead")
    # canonicalise registry aliases ("hypercube" -> "ipsc860") so the
    # retarget mutations recognise the baseline machine and scenario keys
    # stay canonical; an instance keeps its own display name
    machine_name = machine.name if machine_is_instance \
        else canonical_machine_name(machine)
    resolver = _machine_resolver_for(machine, machine_name) \
        if machine_is_instance else None

    point = ScenarioPoint(
        app=key, size=int(size), nprocs=int(nprocs), machine=machine_name,
        topology_shape=topology_shape,
        grid_shape=default_grid_shape(key, int(nprocs)),
        params=tuple((str(k), float(v)) for k, v in params),
    )

    # -- diagnose the baseline through the interpretation parse ---------------
    # the exact compile path (and cache) every candidate evaluation uses
    with obs.span("diagnose", app=key, nprocs=int(nprocs)):
        compiled, options = compile_scenario(point, program)
        baseline_machine = resolver(point) if resolver is not None else \
            get_machine(machine_name, point.nprocs,
                        topology_shape=topology_shape)
        interpretation = interpret(compiled, baseline_machine, options=options)
        findings = diagnose(interpretation, entry)

    # the diagnosis interpretation *is* the baseline prediction — seed the
    # evaluation memo (and the store) with it instead of interpreting twice
    baseline_result = ScenarioResult(
        point=point, mode="predict",
        estimated_us=interpretation.predicted_time_us,
        comp_us=interpretation.total.computation,
        comm_us=interpretation.total.communication,
        ovhd_us=interpretation.total.overhead,
        grid_shape=tuple(compiled.mapping.grid.shape),
        program_source=program.source if program is not None else None,
    )
    program_for = (lambda app: program if program is not None
                   and app == program.key else None)

    # The always-fresh baseline doubles as a drift sentinel for the store: if
    # the stored baseline disagrees with today's interpretation, the store
    # predates a predictor change, and serving candidates from it would rank
    # a new-model baseline against old-model candidates.  In that case every
    # candidate is re-evaluated fresh and the stale records are superseded.
    store_refreshed = False
    if store is not None:
        cached = store.get_point(point, "predict",
                                 program.source if program is not None else None)
        if cached is not None and cached.estimated_us not in (None, 0):
            drift_pct = abs(baseline_result.estimated_us - cached.estimated_us) \
                / cached.estimated_us * 100.0
            store_refreshed = drift_pct > STALE_DRIFT_TOLERANCE_PCT
        store.add(baseline_result, replace=store_refreshed)

    def persist(results):
        """Write fresh results into the store, superseding only records whose
        values actually changed (no duplicate superseding lines)."""
        for result in results:
            existing = store.get(result.key)
            if existing is None:
                store.add(result)
            elif (existing.estimated_us != result.estimated_us
                  or existing.measured_us != result.measured_us):
                store.add(result, replace=True)

    def evaluate(batch, mode, memo=None):
        """evaluate_points, bypassing and superseding a stale store."""
        if store is not None and store_refreshed:
            results, _, fresh = evaluate_points(
                batch, mode=mode, store=None, program_for=program_for,
                machine_resolver=resolver, memo=memo)
            persist(results)
            return results, 0, fresh
        return evaluate_points(
            batch, mode=mode, store=store, program_for=program_for,
            machine_resolver=resolver, memo=memo)

    def served_set(batch, mode):
        """The points of *batch* the store would serve rather than evaluate."""
        out: set[ScenarioPoint] = set()
        if store is None or store_refreshed:
            return out
        for candidate in batch:
            prog = program_for(candidate.app)
            if store.get_point(candidate, mode,
                               prog.source if prog is not None else None) \
                    is not None:
                out.add(candidate)
        return out

    def stale_probes(results, served, mode):
        """Spot-check the store-served records against fresh evaluations.

        One probe per distinct (application, machine) group among the served
        records — a predictor or simulator change can be scoped to a single
        machine's parameter set or one application's model, so a single
        global probe is not enough, while everything inside one group moves
        together.  Returns (any group was stale, the fresh probe results).
        """
        by_group: dict[tuple[str, str], ScenarioResult] = {}
        for result in results:
            if result.point not in served:
                continue
            group = (result.point.app, result.point.machine)
            best = by_group.get(group)
            if best is None or result.objective_us < best.objective_us:
                by_group[group] = result
        stale = False
        probes: list[ScenarioResult] = []
        for probe in by_group.values():
            fresh_probe = evaluate_point(
                probe.point, mode=mode,
                program=program_for(probe.point.app),
                machine_resolver=resolver)
            probes.append(fresh_probe)
            for stored, current in (
                    (probe.estimated_us, fresh_probe.estimated_us),
                    (probe.measured_us, fresh_probe.measured_us)):
                if stored and current is not None:
                    if abs(current - stored) / stored * 100.0 \
                            > STALE_DRIFT_TOLERANCE_PCT:
                        stale = True
        return stale, probes

    def evaluate_guarded(batch, mode, memo=None):
        """Evaluate *batch*, certifying any store-served records.

        The one staleness-retry path both the candidate (predict) and
        simulator-cross-check (both) phases go through: probe the served
        records per group; on drift, flip the refresh flag, re-evaluate
        everything not already fresh this call, and supersede the stale
        store lines.
        """
        nonlocal store_refreshed
        served = served_set(batch, mode)
        results, hits, fresh = evaluate(batch, mode, memo=memo)
        stale, probes = stale_probes(results, served, mode)
        if stale:
            store_refreshed = True
            retry_memo = dict(memo) if memo is not None else {}
            retry_memo.update({r.point: r for r in results
                               if r.point not in served})
            retry_memo.update({p.point: p for p in probes})
            results, _, retried = evaluate_points(
                batch, mode=mode, store=None, program_for=program_for,
                machine_resolver=resolver, memo=retry_memo)
            persist(results)
            hits, fresh = 0, fresh + retried + len(probes)
        return results, hits, fresh

    # -- generate and evaluate candidates -------------------------------------
    # an unregistered Machine instance has no registry entry to rebuild a
    # reshaped layout from, so layout proposals are suppressed for it
    mutations = generate_mutations(point, findings, machines=machines,
                                   max_nprocs=max_nprocs,
                                   allow_reshape=not machine_is_instance)[:budget]
    # Second staleness guard (inside evaluate_guarded): the baseline
    # sentinel cannot fire when the store holds candidate scenarios but not
    # the baseline itself, so the served records are spot-checked per
    # (application, machine) group against fresh interpretations — a few
    # extra interpretations buy the guarantee that a stale store can never
    # steer the ranking.
    targets = [m.target for m in mutations]
    obs.counter("repro_advisor_candidates_total").inc(len(targets))
    with obs.span("candidates", count=len(targets)):
        candidate_results, hits, fresh = evaluate_guarded(
            targets, "predict", memo={point: baseline_result})
    store_hits, evaluated = hits, fresh

    candidates: list[tuple[Mutation, ScenarioResult]] = \
        list(zip(mutations, candidate_results))
    result_memo = {point: baseline_result}
    result_memo.update({m.target: r
                        for m, r in zip(mutations, candidate_results)})

    # -- optional genetic/anneal refinement over the candidate axes -----------
    if refine is not None:
        space = _refinement_space([point] + [m.target for m in mutations],
                                  program)
        # The refinement never READS the store: the staleness guards above
        # only certify the baseline and mutation records, so a store-served
        # recombination record could smuggle old-model numbers past them.
        # Its inputs come memo-seeded from the (guarded) candidate phase,
        # anything genuinely new is interpreted fresh, and the outputs are
        # persisted with value-comparing supersede.
        with obs.span("refine", strategy=refine):
            run = run_campaign(space, name=f"advise-{key}-{refine}",
                               mode="predict", strategy=refine, store=None,
                               seed=seed, memo=result_memo)
        if store is not None:
            persist(run.results)
        store_hits += run.store_hits
        evaluated += run.evaluated
        known = {point} | {m.target for m in mutations}
        search_finding = Finding(
            kind="search", severity=0.0,
            message=f"recombination found by the {refine} campaign strategy "
                    f"over the mutation axes",
            suggests=())
        for result in run.results:
            if result.point in known:
                continue
            known.add(result.point)
            candidates.append((Mutation(
                kind=f"search({refine})",
                description=result.point.label(),
                rationale="axis recombination beyond any single edit",
                target=result.point,
                finding=search_finding,
            ), result))

    # -- rank what improves ----------------------------------------------------
    baseline_objective = baseline_result.objective_us
    improving = [(mutation, result) for mutation, result in candidates
                 if result.objective_us < baseline_objective]
    improving.sort(key=lambda pair: pair[1].objective_us)
    recommendations = [
        Recommendation(mutation=mutation, result=result,
                       baseline=baseline_result)
        for mutation, result in improving
    ]

    # -- simulator cross-check for the leaders --------------------------------
    if simulate_top > 0 and recommendations:
        leaders = recommendations[:simulate_top]
        sim_points = [point] + [rec.result.point for rec in leaders]
        # the predict-mode sentinels say nothing about measured_us, so served
        # "both" records get the same guarded treatment (a simulator change
        # moves measurements without moving estimates)
        with obs.span("simulate_check", count=len(sim_points)):
            sim_results, hits, fresh = evaluate_guarded(sim_points, "both")
        store_hits += hits
        evaluated += fresh
        sim_by_point = {r.point: r for r in sim_results}
        sim_baseline = sim_by_point.get(point)
        for index, rec in enumerate(leaders):
            grade = _confidence(sim_baseline, sim_by_point.get(rec.result.point))
            recommendations[index] = dc_replace(rec, confidence=grade)

    return AdvisorReport(
        target=target if "\n" not in target else f"<source:{key}>",
        baseline=baseline_result,
        findings=findings,
        recommendations=recommendations,
        candidates_evaluated=evaluated,
        store_hits=store_hits,
        store_refreshed=store_refreshed,
    )
