"""The prediction service: three-tier request resolution over the library.

The transport-free heart of ``repro.serve`` (the HTTP server in
:mod:`repro.serve.server` is a thin codec around it; tests drive it
directly).  Every request resolves through the same path:

1. **memory** — the :class:`~repro.serve.cache.ResponseCache` LRU over
   serialised payloads (plus a raw-body fast path for byte-identical
   requests),
2. **store** — the content-addressed :class:`~repro.explore.store.ResultStore`
   (predict requests *are* scenario points, so the persistent store is a
   cache tier for free),
3. **compute** — single-flight deduplicated (:mod:`.singleflight`), batched
   (:mod:`.batching`) and dispatched to a worker-thread pool running the
   same :func:`~repro.explore.campaign.evaluate_point` worker campaigns
   use; computed results are appended to the store and promoted to the
   memory tier.

Each dispatched cache-miss batch stamps a ``repro.obs`` manifest next to
the store (``<store>.serve-manifest.json``) so a live server leaves the
same flight-recorder trail campaigns do.

The service is also where the resilience knobs land (see
``docs/resilience.md``): every request gets a monotonic **deadline**
derived from ``ServeOptions.request_deadline_ms`` (504 when it expires —
the underlying computation is shielded and still completes, warming the
cache for the retry), the batch queue **sheds** above
``ServeOptions.queue_max`` (503 with ``Retry-After``), transient compute
failures are retried through :func:`repro.faults.retry_call`, and
:meth:`~PredictionService.health_payload` reports ``degraded`` while the
server is under recent pressure.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Mapping, Optional, Tuple

import shutil
import tempfile

from .. import faults, obs
from ..advisor.search import advise
from ..explore.campaign import evaluate_point, run_campaign
from ..explore.sharding import run_sharded_campaign
from ..explore.space import ScenarioSpace
from ..explore.store import ResultStore, ScenarioResult
from .batching import BatchQueue
from .cache import ResponseCache
from .errors import DeadlineExceededError, ProtocolError, ServeError
from .protocol import (
    AdviseRequest,
    CampaignRequest,
    PredictRequest,
    ServeOptions,
)
from .singleflight import SingleFlight


def serve_manifest_path(store_path: str) -> str:
    """Where serve-batch manifests live — deliberately distinct from the
    campaign manifest path, so a served campaign cannot clobber the batch
    trail (nor vice versa)."""
    root, _ext = os.path.splitext(store_path)
    return root + ".serve-manifest.json"


def _parse_json(body: bytes, endpoint: str) -> Mapping:
    try:
        payload = json.loads(body or b"{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"{endpoint}: request body is not valid JSON "
                            f"({exc})") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"{endpoint}: request body must be a JSON "
                            f"object, got {type(payload).__name__}")
    return payload


def _encode(payload: Mapping) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _with_tier(payload_bytes: bytes, tier: str) -> bytes:
    # payloads are non-empty JSON objects, so grafting the tier field onto
    # the cached bytes avoids re-serialising the whole payload per hit
    return b'{"served_from":"' + tier.encode("ascii") + b'",' \
        + payload_bytes[1:]


class PredictionService:
    """Three-tier cached predict/advise/campaign over the repro library."""

    def __init__(self, options: Optional[ServeOptions] = None):
        self.options = options or ServeOptions()
        self.store: Optional[ResultStore] = (
            ResultStore(self.options.store_path)
            if self.options.store_path else None)
        self.cache = ResponseCache(self.options.cache_size)
        self.flight = SingleFlight()
        workers = self.options.workers or min(8, (os.cpu_count() or 2))
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self.batches = BatchQueue(
            worker=self._compute_predict,
            executor=self.executor,
            batch_max=self.options.batch_max,
            batch_window_s=self.options.batch_window_ms / 1000.0,
            queue_max=self.options.queue_max,
            on_batch=self._stamp_batch_manifest,
            on_shed=self._note_pressure,
        )
        self.started_monotonic: Optional[float] = None
        self.last_manifest = None
        self._batch_seq = 0
        self.deadline_exceeded_total = 0
        self._last_pressure: Optional[float] = None  # monotonic stamp

    #: how long after the last shed/timeout ``/healthz`` reports degraded
    PRESSURE_WINDOW_S = 30.0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self.options.telemetry:
            obs.enable()
        self.batches.start()
        self.started_monotonic = time.monotonic()

    async def stop(self) -> None:
        """Graceful stop: drain accepted work, then shut the pool down.

        New submissions are shed with 503 from the moment this is
        called; work already in the batch queue gets
        ``ServeOptions.drain_timeout_s`` seconds to finish.
        """
        await self.batches.stop(
            drain=True, drain_timeout_s=self.options.drain_timeout_s)
        self.executor.shutdown(wait=True, cancel_futures=True)

    # -- deadlines ----------------------------------------------------------

    def request_deadline(self) -> Optional[float]:
        """Absolute ``time.monotonic()`` budget for one request, or None."""
        ms = self.options.request_deadline_ms
        return None if ms <= 0 else time.monotonic() + ms / 1000.0

    def _note_pressure(self, _reason: str = "") -> None:
        self._last_pressure = time.monotonic()

    async def _resolve(self, key: str, compute,
                       deadline: Optional[float]) -> Tuple[bytes, str]:
        """Await the single-flight computation under *deadline*.

        The underlying flight is shielded: a 504 abandons the *wait*,
        not the *work* — the computation completes, lands in the cache,
        and the client's retry hits it.  (Joiners share the first
        caller's flight; each still times out on its own deadline.)
        """
        task = asyncio.ensure_future(self.flight.run(key, compute))
        if deadline is None:
            return await task
        try:
            return await asyncio.wait_for(
                asyncio.shield(task), max(deadline - time.monotonic(), 0.0))
        except asyncio.TimeoutError:
            self.deadline_exceeded_total += 1
            obs.counter("repro_serve_deadline_exceeded_total").inc()
            self._note_pressure("deadline")
            # the shielded flight keeps running; keep its eventual failure
            # (if any) from surfacing as an "exception never retrieved"
            task.add_done_callback(
                lambda t: t.cancelled() or t.exception())
            raise DeadlineExceededError(
                f"request exceeded its "
                f"{self.options.request_deadline_ms:g} ms deadline") from None

    # -- /predict -----------------------------------------------------------

    async def handle_predict(self, body: bytes,
                             deadline: Optional[float] = None
                             ) -> Tuple[bytes, str]:
        """Resolve one predict request; returns (payload bytes, tier)."""
        request: Optional[PredictRequest] = None
        key = self.cache.key_for_body(body)
        if key is None:
            request = PredictRequest.from_payload(
                _parse_json(body, "/predict"))
            key = request.key
            self.cache.remember_body(body, key)
        cached = self.cache.get(key)
        if cached is not None:
            return cached, "memory"
        if request is None:
            # the raw-body memo outlived the payload entry; re-canonicalise
            request = PredictRequest.from_payload(
                _parse_json(body, "/predict"))

        req = request

        async def compute() -> Tuple[bytes, str]:
            if self.store is not None:
                hit = self.store.get_point(
                    req.point, "predict",
                    req.program.source if req.program is not None else None)
                if hit is not None:
                    obs.counter("repro_serve_cache_hits_total",
                                tier="store").inc()
                    data = _encode(self._predict_payload(hit))
                    self.cache.put(key, data)
                    return data, "store"
                obs.counter("repro_serve_cache_misses_total",
                            tier="store").inc()
            data = _encode(await self.batches.submit(req, deadline))
            self.cache.put(key, data)
            return data, "computed"

        return await self._resolve(key, compute, deadline)

    def _compute_predict(self, req: PredictRequest) -> Mapping:
        """Worker-thread body: one fresh prediction through the campaign
        worker (the parse/compile/price stage caches apply underneath).

        The ``serve.compute`` injection site fires here, and transient
        failures (injected or real ``OSError``) are retried up to
        ``ServeOptions.compute_retries`` times before the request fails.
        """
        obs.counter("repro_serve_computes_total", kind="predict").inc()

        def _evaluate() -> ScenarioResult:
            faults.fire("serve.compute", app=req.point.app)
            return evaluate_point(req.point, mode="predict",
                                  program=req.program)

        result = faults.retry_call(_evaluate, site="serve.compute",
                                   retries=self.options.compute_retries)
        if self.store is not None:
            self.store.add(result)
        return self._predict_payload(result)

    @staticmethod
    def _predict_payload(result: ScenarioResult) -> Mapping:
        return {
            "key": result.key,
            "scenario": result.point.scenario_dict(),
            "predicted_time_us": result.estimated_us,
            "comp_us": result.comp_us,
            "comm_us": result.comm_us,
            "ovhd_us": result.ovhd_us,
            "grid_shape": list(result.grid_shape),
        }

    # -- /advise ------------------------------------------------------------

    async def handle_advise(self, body: bytes,
                            deadline: Optional[float] = None
                            ) -> Tuple[bytes, str]:
        request = AdviseRequest.from_payload(
            _parse_json(body, "/advise"), self.options)
        cached = self.cache.get(request.key)
        if cached is not None:
            return cached, "memory"

        async def compute() -> Tuple[bytes, str]:
            data = _encode(await asyncio.get_running_loop().run_in_executor(
                self.executor, self._compute_advise, request))
            self.cache.put(request.key, data)
            return data, "computed"

        return await self._resolve(request.key, compute, deadline)

    def _compute_advise(self, req: AdviseRequest) -> Mapping:
        obs.counter("repro_serve_computes_total", kind="advise").inc()
        report = advise(
            req.target, size=req.size, nprocs=req.nprocs,
            machine=req.machine, store=self.store, budget=req.budget,
            simulate_top=req.simulate_top, max_nprocs=req.max_nprocs,
            seed=req.seed)
        return {
            "target": report.target,
            "baseline_us": report.baseline.objective_us,
            "findings": [
                {"kind": f.kind, "severity": round(f.severity, 4),
                 "message": f.message, "phase": f.phase, "line": f.line}
                for f in report.findings],
            "recommendations": [
                {"description": r.mutation.description,
                 "predicted_speedup": round(r.predicted_speedup, 3),
                 "confidence": r.confidence,
                 "explanation": r.explanation()}
                for r in report.recommendations],
            "candidates_evaluated": report.candidates_evaluated,
            "store_hits": report.store_hits,
        }

    # -- /campaign ----------------------------------------------------------

    async def handle_campaign(self, body: bytes,
                              deadline: Optional[float] = None
                              ) -> Tuple[bytes, str]:
        request = CampaignRequest.from_payload(
            _parse_json(body, "/campaign"), self.options)
        cached = self.cache.get(request.key)
        if cached is not None:
            return cached, "memory"

        space = ScenarioSpace(apps=request.apps, sizes=request.sizes,
                              proc_counts=request.proc_counts,
                              machines=request.machines)
        points, _rejects = space.expand_with_rejects()
        if len(points) > self.options.campaign_point_cap:
            raise ProtocolError(
                f"/campaign: space expands to {len(points)} points, over "
                f"this server's cap of {self.options.campaign_point_cap}; "
                f"shrink the axes or raise "
                f"ServeOptions.campaign_point_cap")

        async def compute() -> Tuple[bytes, str]:
            data = _encode(await asyncio.get_running_loop().run_in_executor(
                self.executor, self._compute_campaign, request, space))
            self.cache.put(request.key, data)
            return data, "computed"

        return await self._resolve(request.key, compute, deadline)

    def _compute_campaign(self, req: CampaignRequest,
                          space: ScenarioSpace) -> Mapping:
        obs.counter("repro_serve_computes_total", kind="campaign").inc()
        if req.shards > 1:
            run = self._run_sharded(req, space)
        else:
            run = run_campaign(space, name=req.name, mode=req.mode,
                               strategy=req.strategy, store=self.store,
                               samples=req.samples, max_steps=req.max_steps,
                               seed=req.seed)
        best = run.best() if run.results else None
        return {
            "name": run.name,
            "strategy": run.strategy,
            "mode": run.mode,
            "points": len(run.results),
            "fresh_evaluations": run.evaluated,
            "store_hits": run.store_hits,
            "rejected": len(run.rejected),
            "shards": req.shards,
            "best": {
                "scenario": best.point.scenario_dict(),
                "objective_us": best.objective_us,
            } if best is not None else None,
        }

    def _run_sharded(self, req: CampaignRequest, space: ScenarioSpace):
        """``shards > 1``: fan the campaign out over worker processes.

        Segments and checkpoints live in a per-request temporary directory —
        two concurrent sharded campaigns over one serve store must never
        collide on ``<store>.shard-K.jsonl`` — and merge into the server's
        canonical store through the normal drift-checked path.  The fan-out
        is request-scoped (no resume), so the segment directory is removed
        whatever happens.
        """
        segment_dir = tempfile.mkdtemp(prefix="repro-serve-shards-")
        try:
            return run_sharded_campaign(
                space, name=req.name, mode=req.mode, strategy=req.strategy,
                samples=req.samples, seed=req.seed, shards=req.shards,
                store=self.store, segment_dir=segment_dir,
                keep_segments=False)
        finally:
            shutil.rmtree(segment_dir, ignore_errors=True)

    # -- GET endpoints ------------------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus exposition of the process-wide metric registry."""
        return obs.prometheus_text(obs.get_registry())

    def health_payload(self) -> Mapping:
        """``/healthz`` body — ``status`` is ``ok`` or ``degraded``.

        Degraded means the server is still answering but under pressure:
        the batch queue is currently full, or work was shed / a deadline
        expired within the last :data:`PRESSURE_WINDOW_S` seconds.
        """
        from .. import __version__
        uptime = 0.0 if self.started_monotonic is None \
            else time.monotonic() - self.started_monotonic
        queue_depth = self.batches.queue_depth
        degraded = queue_depth >= self.options.queue_max or (
            self._last_pressure is not None
            and time.monotonic() - self._last_pressure
            < self.PRESSURE_WINDOW_S)
        return {
            "status": "degraded" if degraded else "ok",
            "version": __version__,
            "uptime_s": round(uptime, 3),
            "cache_entries": len(self.cache),
            "store_records": len(self.store) if self.store is not None
            else None,
            "in_flight": self.flight.in_flight(),
            "batches_dispatched": self.batches.batches_dispatched,
            "resilience": {
                "queue_depth": queue_depth,
                "queue_max": self.options.queue_max,
                "shed_total": self.batches.shed_total,
                "deadline_expired_total": self.batches.expired_total
                + self.deadline_exceeded_total,
                "retry_total": faults.retry_total(),
                "faults_active": faults.enabled(),
            },
        }

    # -- batch manifests ----------------------------------------------------

    def _stamp_batch_manifest(self, items: List[Any], results: List[Any],
                              wall_s: float) -> None:
        """Per-request-batch flight record, written next to the store."""
        self._batch_seq += 1
        if not obs.enabled() or self.store is None:
            return
        computed = sum(1 for r in results
                       if not isinstance(r, BaseException))
        manifest = obs.build_manifest(
            name=f"serve-batch-{self._batch_seq}",
            mode="serve",
            strategy="batch",
            executor="serve-pool",
            wall_time_s=wall_s,
            points_evaluated=len(items),
            fresh_evaluations=computed,
            store_hits=0,
            store_path=self.store.path,
            store_records=len(self.store),
            registry=obs.get_registry(),
        )
        manifest.write(serve_manifest_path(self.store.path))
        self.last_manifest = manifest


__all__ = [
    "PredictionService",
    "serve_manifest_path",
    "ServeError",
    "ProtocolError",
    "ServeOptions",
]
