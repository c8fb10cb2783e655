"""Sharded campaigns: deterministic partitioning, worker processes, resume.

``run_campaign`` tops out at thousands of points in one process against one
JSONL store; this module is the scale layer above it, in the spirit of the
paper's sweeping application × machine × directive studies run at modern
sizes:

* **deterministic sharding** — every :class:`ScenarioPoint` maps to exactly
  one of N shards through a stable content hash of its canonical scenario
  (:func:`shard_of`).  The assignment depends on nothing but the point and
  the shard count: not on iteration order, not on the process, not on the
  Python hash seed — so two runs (or two machines) always agree about who
  owns what;
* **per-shard store segments** — each worker process streams its results to
  its own ``<store>.shard-K.jsonl`` :class:`ResultStore` segment, so shard
  writers never contend on one file, and a segment doubles as the shard's
  durable progress record;
* **checkpointed resume** — workers rewrite a schema-versioned shard
  checkpoint after every chunk (:mod:`repro.explore.checkpoint`); a killed
  worker costs at most one chunk of work, and re-running the same campaign
  resumes from the segments with zero recompute of committed points;
* **merge through the drift tooling** — finished segments merge into the
  canonical store *in space-expansion order* (so ``shards=1`` is bit-for-bit
  identical to a plain :func:`run_campaign` store), and the merge is
  cross-checked with :func:`~repro.explore.report.store_diff`;
* **multi-fidelity search** — ``fidelity="screen+sim"`` runs the cheap
  analytic predict over the *full* space, then simulator-corroborates only
  the survivors of a successive-halving schedule (Hyperband-style
  cheap-screen / expensive-corroborate), keeping the simulator budget at
  ``O(screen_top)`` instead of ``O(|space|)``.  The screen fans out over
  the shard workers; the corroboration rungs run after the merge in the
  calling process, one simulation after another;
* **a supervising watchdog** — workers stamp a heartbeat by atomically
  rewriting their shard checkpoint every chunk; the supervisor's
  ``connection.wait`` loop polls those stamps, SIGKILLs a worker whose
  heartbeat goes stale (a *hung* worker, which a sentinel alone can never
  detect), and respawns dead or killed workers up to ``max_restarts``
  per shard.  A shard that keeps dying at the same chunk gets that chunk
  quarantined to a ``<segment>.quarantine.json`` sidecar instead of
  looping forever.  Chunks are retried through
  :func:`repro.faults.retry_call` for transient failures, and the
  ``shard.chunk`` :mod:`repro.faults` injection site fires at the top of
  every chunk — the chaos suite drives crash/hang/torn-write storms
  through exactly this machinery.

Worker processes are plain forks (the registry and the pre-warmed
compile-stage cache ride along); on platforms without ``fork`` the shards
run in-process, sequentially, with identical on-disk artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import tempfile
import time as _time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, List, Optional, Sequence, Tuple

from .. import faults, obs, stages
from ..simulator import SimulatorOptions
from .campaign import MODES, compile_scenario, evaluate_points
from .checkpoint import (
    SHARD_DONE,
    SHARD_FAILED,
    CampaignCheckpoint,
    CheckpointError,
    ShardCheckpoint,
    checkpoint_path_for,
    decode_metric_delta,
    encode_metric_delta,
    shard_checkpoint_path_for,
)
from .report import StoreDiff, store_diff
from .space import ScenarioError, ScenarioPoint, ScenarioSpace
from .store import ResultStore, ScenarioResult, program_sha

#: Strategies that decompose over shards (trajectory strategies are
#: inherently sequential; run those through plain :func:`run_campaign`).
SHARD_STRATEGIES = ("grid", "random")

#: Multi-fidelity modes: ``None`` evaluates at the requested ``mode`` only;
#: ``"screen+sim"`` predict-screens the full space and simulator-corroborates
#: successive-halving survivors.
FIDELITIES = (None, "screen+sim")


class CampaignInterrupted(ScenarioError):
    """One or more shard workers died before finishing.

    The campaign checkpoint and every completed chunk survive on disk:
    calling :func:`run_sharded_campaign` again with the same arguments
    resumes, recomputing at most the torn chunk of each dead worker.
    """

    def __init__(self, message: str,
                 failed: Sequence[Tuple[int, str]] = (),
                 checkpoint_path: Optional[str] = None):
        super().__init__(message)
        self.failed = list(failed)
        self.checkpoint_path = checkpoint_path


# ---------------------------------------------------------------------------
# deterministic partitioning
# ---------------------------------------------------------------------------


def partition_key(point: ScenarioPoint) -> str:
    """Stable content hash of one point's canonical scenario.

    Deliberately *mode-free* (sharding partitions the space, not the
    evaluation) and independent of any iteration order — the JSON form is
    canonical (sorted keys) and covers every design axis.

    >>> from repro.explore import ScenarioPoint, partition_key, shard_of
    >>> p = ScenarioPoint(app="laplace_block_star", size=32, nprocs=4,
    ...                   machine="ipsc860")
    >>> partition_key(p) == partition_key(p)
    True
    >>> all(shard_of(p, n) in range(n) for n in (1, 2, 7, 64))
    True
    """
    canonical = json.dumps(point.scenario_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def shard_of(point: ScenarioPoint, shards: int) -> int:
    """Which of *shards* shards owns *point* (deterministic, order-free)."""
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ScenarioError(f"shards must be a positive int, got {shards!r}")
    return int(partition_key(point), 16) % shards


def partition_points(points: Sequence[ScenarioPoint], shards: int,
                     ) -> List[List[ScenarioPoint]]:
    """Partition *points* into *shards* lists (input order kept per shard).

    A true partition: every point lands in exactly one shard for any N, and
    the assignment is independent of the order of *points*.
    """
    parts: List[List[ScenarioPoint]] = [[] for _ in range(shards)]
    for point in points:
        parts[shard_of(point, shards)].append(point)
    return parts


def segment_path(store_path: str, shard: int,
                 segment_dir: Optional[str] = None) -> str:
    """Where shard *shard*'s store segment lives: ``<store>.shard-K.jsonl``."""
    root, _ext = os.path.splitext(store_path)
    base = f"{os.path.basename(root)}.shard-{shard}.jsonl"
    directory = segment_dir if segment_dir is not None \
        else os.path.dirname(store_path)
    return os.path.join(directory, base) if directory else base


def space_fingerprint(points: Sequence[ScenarioPoint], mode: str,
                      programs: Sequence = ()) -> str:
    """Order-independent identity of (expanded points, mode, ad-hoc sources).

    The campaign checkpoint records this; a resume with a different space,
    mode or edited ad-hoc program text is refused instead of silently
    merging apples into a store of oranges.
    """
    payload = {
        "mode": mode,
        "keys": sorted(partition_key(p) for p in points),
        "programs": sorted((p.key, program_sha(p.source)) for p in programs),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------


@dataclass
class ShardOutcome:
    """One shard's accounting, read back from its checkpoint."""

    shard: int
    total_points: int
    chunks_done: int = 0
    points_done: int = 0
    store_hits: int = 0
    fresh_evaluations: int = 0
    wall_s: float = 0.0
    status: str = "pending"
    skipped: bool = False        # complete before this run; no worker spawned
    restarts: int = 0            # watchdog/death respawns this run


@dataclass
class ShardedCampaignRun:
    """Everything one sharded campaign execution produced."""

    name: str
    space: ScenarioSpace
    mode: str
    strategy: str
    shards: int
    chunk_size: int
    results: List[ScenarioResult] = field(default_factory=list)
    rejected: List[Tuple[ScenarioPoint, str]] = field(default_factory=list)
    store_hits: int = 0
    evaluated: int = 0
    resumed: bool = False
    per_shard: List[ShardOutcome] = field(default_factory=list)
    merge_diff: Optional[StoreDiff] = None
    store_path: Optional[str] = None
    checkpoint_path: Optional[str] = None
    #: ``fidelity="screen+sim"`` extras: the corroborated survivors (measure
    #: mode) and the halving schedule as (fidelity, candidates, survivors).
    fidelity: Optional[str] = None
    corroborated: List[ScenarioResult] = field(default_factory=list)
    rungs: List[Tuple[str, int, int]] = field(default_factory=list)
    manifest: object = None

    @property
    def points(self) -> List[ScenarioPoint]:
        return [r.point for r in self.results]

    def best(self, objective: Callable[[ScenarioResult], float] | None = None,
             ) -> ScenarioResult:
        if not self.results:
            raise ScenarioError(
                f"sharded campaign {self.name!r} produced no results")
        key = objective if objective is not None else (lambda r: r.objective_us)
        return min(self.results, key=key)

    def best_corroborated(self) -> ScenarioResult:
        """The best simulator-corroborated survivor (``screen+sim`` only)."""
        if not self.corroborated:
            raise ScenarioError(
                f"campaign {self.name!r} has no corroborated results "
                f"(fidelity={self.fidelity!r})")
        return min(self.corroborated, key=lambda r: r.objective_us)


# ---------------------------------------------------------------------------
# the shard worker (forked; also runs inline where fork is unavailable)
# ---------------------------------------------------------------------------


@dataclass
class _ShardTask:
    """Everything one worker needs (inherited through fork)."""

    shard: int
    shards: int
    points: List[ScenarioPoint]
    mode: str
    name: str
    fingerprint: str
    chunk_size: int
    segment_path: str
    programs: tuple
    simulator_options: Optional[SimulatorOptions]


def _program_for(programs: tuple):
    by_key = {p.key: p for p in programs}
    return lambda app: by_key.get(app)


def _chunks(points: Sequence[ScenarioPoint], size: int):
    for start in range(0, len(points), size):
        yield points[start:start + size]


def _shard_worker(task: _ShardTask) -> ShardCheckpoint:
    """One shard, chunk by chunk, checkpointing after every chunk."""
    started = _time.perf_counter()
    segment = ResultStore(task.segment_path)
    ckpt_path = shard_checkpoint_path_for(task.segment_path)
    ckpt = ShardCheckpoint(
        campaign=task.name, fingerprint=task.fingerprint, shard=task.shard,
        shards=task.shards, mode=task.mode, chunk_size=task.chunk_size,
        total_points=len(task.points))
    # every checkpoint write (this one and the per-chunk rewrites below)
    # doubles as the worker's heartbeat: the supervisor's watchdog watches
    # the file's mtime and declares the worker hung when it goes stale
    ckpt.write(ckpt_path)
    telemetry = obs.enabled()
    before = obs.get_registry().collect() if telemetry else None
    mark = obs.get_tracer().mark() if telemetry else 0
    program_for = _program_for(task.programs)
    memo: dict = {}
    try:
        with obs.span("shard", shard=task.shard, campaign=task.name):
            for index, chunk in enumerate(_chunks(task.points,
                                                  task.chunk_size)):
                def _evaluate(chunk=chunk, index=index):
                    # the shard.chunk injection site; a transient
                    # InjectedFault here is retried in place, a crash or
                    # hang is the watchdog/respawn machinery's problem
                    faults.fire("shard.chunk",
                                shard=task.shard, chunk=index)
                    return evaluate_points(
                        chunk, mode=task.mode, store=segment,
                        program_for=program_for,
                        simulator_options=task.simulator_options, memo=memo)

                _results, hits, fresh = faults.retry_call(
                    _evaluate, site="shard.chunk")
                ckpt.chunks_done += 1
                ckpt.points_done += len(chunk)
                ckpt.store_hits += hits
                ckpt.fresh_evaluations += fresh
                ckpt.wall_s = _time.perf_counter() - started
                if telemetry:
                    ckpt.metrics = encode_metric_delta(
                        obs.get_registry().delta_since(before))
                ckpt.write(ckpt_path)
        ckpt.status = SHARD_DONE
    except BaseException as exc:       # the checkpoint is the error channel
        ckpt.status = SHARD_FAILED
        ckpt.error = f"{type(exc).__name__}: {exc}"
        ckpt.wall_s = _time.perf_counter() - started
        ckpt.write(ckpt_path)
        raise
    ckpt.wall_s = _time.perf_counter() - started
    if telemetry:
        ckpt.metrics = encode_metric_delta(
            obs.get_registry().delta_since(before))
        manifest = obs.build_manifest(
            name=f"{task.name}-shard-{task.shard}", mode=task.mode,
            strategy="shard", executor="serial", wall_time_s=ckpt.wall_s,
            points_evaluated=ckpt.points_done,
            fresh_evaluations=ckpt.fresh_evaluations,
            store_hits=ckpt.store_hits, store_path=segment.path,
            store_records=len(segment),
            spans=obs.get_tracer().spans_since(mark),
            registry=obs.get_registry())
        manifest.write(obs.manifest_path_for(segment.path))
    ckpt.write(ckpt_path)
    return ckpt


def _shard_worker_entry(task: _ShardTask) -> None:
    """Process target: exit 0 on success, 1 on a recorded failure."""
    try:
        _shard_worker(task)
    except BaseException:
        os._exit(1)
    os._exit(0)


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:                  # pragma: no cover - non-POSIX hosts
        return None


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------


def _prewarm_compile_cache(points: Sequence[ScenarioPoint],
                           program_for) -> int:
    """Compile each distinct compile-stage cell once *before* forking.

    Forked workers inherit the parent's ``repro.stages`` compile cache, so a
    cell shared by points in several shards compiles once campaign-wide
    instead of once per worker.  Spaces with more distinct cells than the
    cache holds skip the warm-up (it could not be shared anyway).
    """
    cells: dict = {}
    for point in points:
        cell = (point.app, point.size, point.nprocs, point.grid_shape,
                point.params)
        cells.setdefault(cell, point)
    if not cells or len(cells) > stages.COMPILE_CACHE_SIZE:
        return 0
    for point in cells.values():
        compile_scenario(point, program_for(point.app))
    obs.counter("repro_stage_cache_prewarmed_total",
                stage="compile").inc(len(cells))
    return len(cells)


def _segment_complete(segment_store: ResultStore,
                      points: Sequence[ScenarioPoint], mode: str,
                      program_for) -> bool:
    return all(
        segment_store.get_point(
            point, mode,
            (program_for(point.app).source
             if program_for(point.app) is not None else None)) is not None
        for point in points)


def run_sharded_campaign(
    space: ScenarioSpace,
    *,
    shards: int = 4,
    name: str = "sharded-campaign",
    mode: str = "predict",
    strategy: str = "grid",
    samples: Optional[int] = None,
    seed: int = 0,
    store: "ResultStore | str | os.PathLike | None" = None,
    segment_dir: Optional[str] = None,
    chunk_size: int = 64,
    max_workers: Optional[int] = None,
    simulator_options: Optional[SimulatorOptions] = None,
    where: Optional[Callable[[ScenarioPoint], bool]] = None,
    fidelity: Optional[str] = None,
    sim_top: int = 4,
    eta: int = 2,
    screen_top: Optional[int] = None,
    keep_segments: bool = True,
    heartbeat_timeout_s: Optional[float] = 120.0,
    max_restarts: int = 2,
) -> ShardedCampaignRun:
    """Evaluate *space* across *shards* worker processes with resume.

    The scale face of the campaign engine.  Points are partitioned
    deterministically (:func:`shard_of`), each shard streams to its own
    ``<store>.shard-K.jsonl`` segment from a pool of forked workers, a
    schema-versioned checkpoint is rewritten after every chunk, and
    finished segments merge — in space-expansion order, through the
    :func:`~repro.explore.report.store_diff` tooling — into the canonical
    store.  An interrupted campaign raises :class:`CampaignInterrupted`;
    calling again with the same arguments resumes, recomputing at most the
    torn chunk of each dead worker.

    Args:
        space: the declarative :class:`ScenarioSpace` to sweep.
        shards: number of deterministic partitions / worker processes.
        name / mode / where / simulator_options: as :func:`run_campaign`.
        strategy: ``"grid"`` or ``"random"`` (trajectory strategies do not
            decompose over shards — use :func:`run_campaign` for those).
        samples / seed: the ``random`` strategy's sample size and RNG seed
            (the sample is drawn once, before partitioning, exactly as
            :func:`run_campaign` draws it).
        store: the canonical :class:`ResultStore` (or its path) segments
            merge into; ``None`` uses an ephemeral temporary store.
        segment_dir: directory for segments + checkpoints (default: next
            to the store; a server fans out into a per-request directory
            so concurrent campaigns cannot collide).
        chunk_size: points per checkpointed chunk — the most work a killed
            worker can lose.
        max_workers: concurrently running worker processes (default:
            ``min(shards, max(2, cpu_count))``).
        fidelity: ``None`` or ``"screen+sim"`` — predict-screen the full
            space, then simulator-corroborate successive-halving survivors
            (``sim_top`` / ``eta`` / ``screen_top``).  The rungs simulate
            serially in this process after the merge.
        keep_segments: leave segments + checkpoints on disk after a
            successful merge (required for later zero-recompute re-runs).
        heartbeat_timeout_s: how stale a worker's checkpoint heartbeat may
            go before the watchdog SIGKILLs it as hung (``None`` disables
            the watchdog; must comfortably exceed one chunk's wall time).
        max_restarts: per-shard budget of automatic respawns for dead or
            hung workers; ``0`` restores fail-fast interruption.  A shard
            that exhausts the budget dying at one chunk has that chunk
            quarantined to ``<segment>.quarantine.json``.

    Returns:
        A :class:`ShardedCampaignRun` with merged ``results`` in
        space-expansion order, per-shard accounting, the merge's
        :class:`StoreDiff`, and — under ``screen+sim`` — the
        ``corroborated`` survivors and halving ``rungs``.

    Raises:
        ScenarioError: invalid arguments (unknown mode/strategy/fidelity,
            non-decomposable strategy, bad shard/chunk counts).
        CheckpointError: an existing checkpoint belongs to a different
            campaign (space fingerprint / shards / chunk size / mode).
        CampaignInterrupted: one or more workers died; re-run to resume.
    """
    if mode not in MODES:
        raise ScenarioError(f"unknown campaign mode {mode!r}; known: {MODES}")
    if strategy not in SHARD_STRATEGIES:
        raise ScenarioError(
            f"strategy {strategy!r} does not decompose over shards; "
            f"shardable strategies: {SHARD_STRATEGIES} (use run_campaign "
            f"for trajectory strategies)")
    if fidelity not in FIDELITIES:
        raise ScenarioError(
            f"unknown fidelity {fidelity!r}; known: {FIDELITIES}")
    if fidelity == "screen+sim" and mode != "predict":
        raise ScenarioError(
            "fidelity='screen+sim' screens with the analytic predictor; "
            "pass mode='predict' (the simulator runs on survivors only)")
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ScenarioError(f"shards must be a positive int, got {shards!r}")
    if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) \
            or chunk_size < 1:
        raise ScenarioError(
            f"chunk_size must be a positive int, got {chunk_size!r}")
    if sim_top < 1 or eta < 2:
        raise ScenarioError(
            f"sim_top must be >= 1 and eta >= 2, got {sim_top}/{eta}")
    if heartbeat_timeout_s is not None and (
            isinstance(heartbeat_timeout_s, bool)
            or not isinstance(heartbeat_timeout_s, (int, float))
            or not heartbeat_timeout_s > 0):
        raise ScenarioError(
            f"heartbeat_timeout_s must be None or a number > 0, "
            f"got {heartbeat_timeout_s!r}")
    if isinstance(max_restarts, bool) or not isinstance(max_restarts, int) \
            or max_restarts < 0:
        raise ScenarioError(
            f"max_restarts must be an int >= 0, got {max_restarts!r}")

    started = _time.perf_counter()
    obs_mark = obs.get_tracer().mark()

    tempdir: Optional[tempfile.TemporaryDirectory] = None
    try:
        if isinstance(store, ResultStore):
            canonical = store
        else:
            if store is None:
                tempdir = tempfile.TemporaryDirectory(prefix="repro-shard-")
                store = os.path.join(tempdir.name, "campaign.jsonl")
            canonical = ResultStore(os.fspath(store))
        return _run_sharded(
            space, canonical, shards=shards, name=name, mode=mode,
            strategy=strategy, samples=samples, seed=seed,
            segment_dir=segment_dir, chunk_size=chunk_size,
            max_workers=max_workers, simulator_options=simulator_options,
            where=where, fidelity=fidelity, sim_top=sim_top, eta=eta,
            screen_top=screen_top, keep_segments=keep_segments,
            heartbeat_timeout_s=heartbeat_timeout_s,
            max_restarts=max_restarts, started=started, obs_mark=obs_mark)
    finally:
        if tempdir is not None:
            tempdir.cleanup()


def _run_sharded(space, canonical, *, shards, name, mode, strategy, samples,
                 seed, segment_dir, chunk_size, max_workers,
                 simulator_options, where, fidelity, sim_top, eta,
                 screen_top, keep_segments, heartbeat_timeout_s,
                 max_restarts, started, obs_mark):
    points, rejected = space.expand_with_rejects(where)
    if strategy == "random" and points:
        rng = Random(seed)
        count = min(samples if samples is not None
                    else max(len(points) // 2, 1), len(points))
        points = rng.sample(points, count)

    run = ShardedCampaignRun(name=name, space=space, mode=mode,
                             strategy=strategy, shards=shards,
                             chunk_size=chunk_size, rejected=rejected,
                             store_path=canonical.path, fidelity=fidelity)
    fingerprint = space_fingerprint(points, mode, space.programs)
    base_dir = segment_dir if segment_dir is not None \
        else os.path.dirname(canonical.path)
    if base_dir:
        os.makedirs(base_dir, exist_ok=True)
    ckpt_path = os.path.join(
        base_dir,
        os.path.basename(checkpoint_path_for(canonical.path))) \
        if base_dir else checkpoint_path_for(canonical.path)
    run.checkpoint_path = ckpt_path
    seg_paths = [segment_path(canonical.path, k, base_dir or None)
                 for k in range(shards)]

    if not points:
        return run

    program_for = space.program_for
    merged_already = False
    if os.path.exists(ckpt_path):
        previous = CampaignCheckpoint.load(ckpt_path)
        if previous.status == "merged":
            if previous.fingerprint != fingerprint:
                # a *finished* earlier campaign on this store: start fresh
                for path in (shard_checkpoint_path_for(p) for p in seg_paths):
                    if os.path.exists(path):
                        os.remove(path)
                for path in seg_paths:
                    if os.path.exists(path):
                        os.remove(path)
            else:
                # the canonical store already answers this space; sharding
                # geometry (shards / chunk_size) is segment bookkeeping the
                # merged fast path never touches, so it need not match
                run.resumed = True
                merged_already = True
        else:
            previous.validate_resume(ckpt_path, fingerprint=fingerprint,
                                     shards=shards, chunk_size=chunk_size,
                                     mode=mode)
            run.resumed = True

    checkpoint = CampaignCheckpoint(
        name=name, mode=mode, strategy=strategy, fingerprint=fingerprint,
        shards=shards, chunk_size=chunk_size, total_points=len(points),
        segments=[os.path.basename(p) for p in seg_paths])
    checkpoint.write(ckpt_path)

    # fast path: a merged campaign whose canonical store still answers every
    # point is a pure re-run — no workers, no segments, zero recompute
    if merged_already and _segment_complete(canonical, points, mode,
                                            program_for):
        run.results = [
            canonical.get_point(point, mode,
                                (program_for(point.app).source
                                 if program_for(point.app) else None))
            for point in points]
        run.store_hits = len(points)
        checkpoint.status = "merged"
        checkpoint.write(ckpt_path)
        _corroborate(run, canonical, simulator_options, sim_top, eta,
                     screen_top, program_for)
        _finalize_sharded_obs(run, canonical, started, obs_mark)
        return run

    parts = partition_points(points, shards)
    ctx = _fork_context()
    if ctx is not None:
        _prewarm_compile_cache(points, program_for)

    tasks: List[_ShardTask] = []
    outcomes: dict = {}
    for k, part in enumerate(parts):
        outcome = ShardOutcome(shard=k, total_points=len(part))
        outcomes[k] = outcome
        if not part:
            outcome.status = SHARD_DONE
            outcome.skipped = True
            continue
        shard_ckpt_path = shard_checkpoint_path_for(seg_paths[k])
        if run.resumed and os.path.exists(shard_ckpt_path) \
                and os.path.exists(seg_paths[k]):
            previous_shard = ShardCheckpoint.load(shard_ckpt_path)
            if previous_shard.status == SHARD_DONE and _segment_complete(
                    ResultStore(seg_paths[k]), part, mode, program_for):
                _note_outcome(outcome, previous_shard, skipped=True)
                continue
        tasks.append(_ShardTask(
            shard=k, shards=shards, points=part, mode=mode, name=name,
            fingerprint=fingerprint, chunk_size=chunk_size,
            segment_path=seg_paths[k], programs=space.programs,
            simulator_options=simulator_options))

    restarts, quarantined = _drive_workers(
        tasks, ctx, max_workers, shards,
        heartbeat_timeout_s=heartbeat_timeout_s, max_restarts=max_restarts)

    failed: List[Tuple[int, str]] = []
    for task in tasks:
        shard_ckpt_path = shard_checkpoint_path_for(task.segment_path)
        outcome = outcomes[task.shard]
        outcome.restarts = restarts.get(task.shard, 0)
        try:
            shard_ckpt = ShardCheckpoint.load(shard_ckpt_path)
        except (FileNotFoundError, CheckpointError):
            failed.append((task.shard, "no shard checkpoint (worker died "
                                       "before its first chunk)"))
            outcome.status = SHARD_FAILED
            continue
        _note_outcome(outcome, shard_ckpt, skipped=False)
        if shard_ckpt.status != SHARD_DONE:
            reason = shard_ckpt.error or (
                f"worker stopped at chunk {shard_ckpt.chunks_done} of "
                f"{math.ceil(len(task.points) / chunk_size)} (killed?)")
            if task.shard in quarantined:
                reason += (f" after {restarts.get(task.shard, 0)} restarts; "
                           f"poison chunk quarantined to "
                           f"{quarantined[task.shard]}")
            failed.append((task.shard, reason))
        elif obs.enabled() and shard_ckpt.metrics:
            obs.get_registry().merge(decode_metric_delta(shard_ckpt.metrics))

    run.per_shard = [outcomes[k] for k in range(shards)]
    run.store_hits = sum(o.store_hits for o in run.per_shard)
    run.evaluated = sum(o.fresh_evaluations for o in run.per_shard)

    if failed:
        checkpoint.status = "interrupted"
        checkpoint.write(ckpt_path)
        details = "; ".join(f"shard {k}: {reason}" for k, reason in failed)
        raise CampaignInterrupted(
            f"sharded campaign {name!r} interrupted ({details}); run "
            f"run_sharded_campaign again with the same arguments to resume "
            f"from {ckpt_path}", failed=failed, checkpoint_path=ckpt_path)

    # -- merge (space-expansion order => shards=1 is bit-for-bit identical
    #    to a plain run_campaign store) ------------------------------------
    segments = [ResultStore(path) if os.path.exists(path) else None
                for path in seg_paths]
    results: List[ScenarioResult] = []
    for point in points:
        k = shard_of(point, shards)
        program = program_for(point.app)
        source = program.source if program is not None else None
        result = segments[k].get_point(point, mode, source) \
            if segments[k] is not None else None
        if result is None:
            raise ScenarioError(
                f"shard {k} segment is missing point {point.label()!r} "
                f"after a successful run — segment files were modified?")
        results.append(result)
        canonical.add(result)
    run.results = results
    run.merge_diff = store_diff(
        [canonical.get(r.key) for r in results], results)
    obs.counter("repro_sharded_merged_points_total").inc(len(results))

    checkpoint.status = "merged"
    checkpoint.write(ckpt_path)
    if not keep_segments:
        for path in seg_paths:
            for victim in (path, shard_checkpoint_path_for(path),
                           obs.manifest_path_for(path)):
                if os.path.exists(victim):
                    os.remove(victim)

    _corroborate(run, canonical, simulator_options, sim_top, eta, screen_top,
                 program_for)
    _finalize_sharded_obs(run, canonical, started, obs_mark)
    return run


def _note_outcome(outcome: ShardOutcome, ckpt: ShardCheckpoint,
                  *, skipped: bool) -> None:
    outcome.chunks_done = ckpt.chunks_done
    outcome.points_done = ckpt.points_done
    outcome.status = ckpt.status
    outcome.skipped = skipped
    if skipped:
        # completed before this run: every point is a store hit *of this
        # run* and cost it no wall time (the checkpoint's counters describe
        # the run that actually computed them)
        outcome.store_hits = outcome.total_points
        outcome.fresh_evaluations = 0
        outcome.wall_s = 0.0
    else:
        outcome.store_hits = ckpt.store_hits
        outcome.fresh_evaluations = ckpt.fresh_evaluations
        outcome.wall_s = ckpt.wall_s


def _heartbeat_age(task: _ShardTask, spawned_at: float, now: float) -> float:
    """Seconds since the worker last proved liveness.

    The shard checkpoint is atomically rewritten after every chunk, so its
    mtime *is* the heartbeat; before the first write, the spawn time
    stands in (forking and importing are not a hang).
    """
    try:
        stamped = os.path.getmtime(shard_checkpoint_path_for(
            task.segment_path))
    except OSError:
        stamped = 0.0
    return now - max(stamped, spawned_at)


def _chunk_at_death(task: _ShardTask) -> int:
    """Which chunk a dead worker was on: the first one not checkpointed."""
    try:
        ckpt = ShardCheckpoint.load(
            shard_checkpoint_path_for(task.segment_path))
    except (FileNotFoundError, CheckpointError):
        return 0
    return ckpt.chunks_done


def _quarantine_poison_chunk(task: _ShardTask, deaths: List[int]) -> Optional[str]:
    """Record a chunk that killed every worker sent at it.

    When a shard exhausts its restart budget dying at the *same* chunk, the
    chunk's points are written to a ``<segment>.quarantine.json`` sidecar —
    naming the poison instead of looping on it — and the campaign's
    interruption message points operators at the file.
    """
    if len(deaths) < 2 or len(set(deaths)) != 1:
        return None                     # deaths at different chunks: not poison
    chunk = deaths[-1]
    points = task.points[chunk * task.chunk_size:(chunk + 1) * task.chunk_size]
    path = os.path.splitext(task.segment_path)[0] + ".quarantine.json"
    payload = {
        "format": "repro-poison-chunk",
        "schema": 1,
        "campaign": task.name,
        "shard": task.shard,
        "chunk": chunk,
        "failures": len(deaths),
        "points": [p.label() for p in points],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    obs.counter("repro_poison_chunks_total").inc()
    return path


def _drive_workers(tasks: List[_ShardTask], ctx,
                   max_workers: Optional[int], shards: int, *,
                   heartbeat_timeout_s: Optional[float] = None,
                   max_restarts: int = 0,
                   ) -> Tuple[dict, dict]:
    """Run shard tasks on a bounded pool of forked workers (or inline).

    The supervisor loop: spawn up to the pool limit, block on the workers'
    sentinels (with a timeout when the watchdog is on), SIGKILL any worker
    whose checkpoint heartbeat has gone stale, and respawn dead workers up
    to *max_restarts* per shard.  Returns ``(restarts, quarantined)`` —
    respawn counts per shard, and poison-chunk sidecar paths per shard
    that exhausted its budget dying at one chunk.
    """
    restarts: dict = {task.shard: 0 for task in tasks}
    quarantined: dict = {}
    if not tasks:
        return restarts, quarantined
    if ctx is None:                     # pragma: no cover - non-POSIX hosts
        for task in tasks:
            try:
                _shard_worker(task)
            except BaseException:
                pass                    # recorded in the shard checkpoint
        return restarts, quarantined
    limit = max_workers if max_workers is not None \
        else min(shards, max(2, os.cpu_count() or 1))
    limit = max(1, limit)
    poll = None if heartbeat_timeout_s is None \
        else min(max(heartbeat_timeout_s / 4.0, 0.05), 5.0)
    pending = list(tasks)
    running: dict = {}                  # proc -> (task, spawn time)
    death_chunks: dict = {}             # shard -> chunk index per death
    while pending or running:
        while pending and len(running) < limit:
            task = pending.pop(0)
            proc = ctx.Process(target=_shard_worker_entry, args=(task,),
                               name=f"repro-shard-{task.shard}")
            proc.start()
            running[proc] = (task, _time.time())
        multiprocessing.connection.wait(
            [proc.sentinel for proc in running], timeout=poll)
        now = _time.time()
        for proc in list(running):
            task, spawned_at = running[proc]
            if proc.is_alive():
                if heartbeat_timeout_s is None or _heartbeat_age(
                        task, spawned_at, now) <= heartbeat_timeout_s:
                    continue
                # a hung worker: the sentinel will never fire, so kill it
                # and let the death path below decide about a respawn
                obs.counter("repro_worker_stalled_total",
                            shard=str(task.shard)).inc()
                proc.kill()
            proc.join()
            del running[proc]
            if proc.exitcode == 0:
                continue
            death_chunks.setdefault(task.shard, []).append(
                _chunk_at_death(task))
            if restarts[task.shard] < max_restarts:
                restarts[task.shard] += 1
                obs.counter("repro_worker_restart_total",
                            shard=str(task.shard)).inc()
                # the respawn resumes from the segment: committed records
                # dedup as store hits, so a death costs at most one chunk
                pending.append(task)
            else:
                path = _quarantine_poison_chunk(
                    task, death_chunks[task.shard])
                if path is not None:
                    quarantined[task.shard] = path
    return restarts, quarantined


def _corroborate(run: ShardedCampaignRun, canonical: ResultStore,
                 simulator_options, sim_top: int, eta: int,
                 screen_top: Optional[int], program_for) -> None:
    """``screen+sim``: successive-halving simulator corroboration.

    The analytic screen already ranked the full space; the simulator budget
    starts at ``screen_top`` (default ``sim_top * eta**2``) survivors and
    halves by ``eta`` per rung until ``sim_top`` remain — every rung
    re-ranks on *measured* time, store-memoised so repeat measurements of a
    survivor are free.  Later rungs re-rank a subset of the opening one,
    so only the opening rung simulates, serially in this process.
    """
    if run.fidelity != "screen+sim" or not run.results:
        return
    ranked = sorted(run.results, key=lambda r: r.objective_us)
    opening = min(len(ranked),
                  screen_top if screen_top is not None else sim_top * eta * eta)
    run.rungs.append(("screen", len(ranked), opening))
    survivors = ranked[:opening]
    memo: dict = {}
    measured = survivors
    while True:
        with obs.span("sim_rung", candidates=len(survivors)):
            measured, hits, fresh = evaluate_points(
                [r.point for r in survivors], mode="measure",
                store=canonical, program_for=program_for,
                simulator_options=simulator_options, memo=memo)
        run.store_hits += hits
        run.evaluated += fresh
        ranked_sim = sorted(measured, key=lambda r: r.objective_us)
        if len(survivors) <= sim_top:
            run.rungs.append(("sim", len(survivors), len(survivors)))
            run.corroborated = ranked_sim
            break
        keep = max(sim_top, math.ceil(len(survivors) / eta))
        if keep >= len(survivors):      # eta too gentle to shrink: clamp
            keep = sim_top
        run.rungs.append(("sim", len(survivors), keep))
        survivors = ranked_sim[:keep]


def _finalize_sharded_obs(run: ShardedCampaignRun, canonical: ResultStore,
                          started: float, mark: int) -> None:
    if not obs.enabled():
        return
    spans = obs.get_tracer().spans_since(mark)
    manifest = obs.build_manifest(
        name=run.name, mode=run.mode, strategy=f"sharded-{run.strategy}",
        executor="sharded", wall_time_s=_time.perf_counter() - started,
        points_evaluated=len(run.results), fresh_evaluations=run.evaluated,
        store_hits=run.store_hits, store_path=canonical.path,
        store_records=len(canonical), spans=spans,
        registry=obs.get_registry())
    run.manifest = manifest
    manifest.write(obs.manifest_path_for(canonical.path))


__all__ = [
    "FIDELITIES",
    "SHARD_STRATEGIES",
    "CampaignInterrupted",
    "ShardOutcome",
    "ShardedCampaignRun",
    "partition_key",
    "partition_points",
    "run_sharded_campaign",
    "segment_path",
    "shard_of",
    "space_fingerprint",
]
