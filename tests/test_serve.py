"""repro.serve tests: options validation, LRU eviction, the three-tier
resolution, single-flight dedup, batching, the HTTP codec's error mapping,
/metrics under concurrent load, the two-stage compile/price caches, and
concurrent-writer store safety."""

import asyncio
import json
import multiprocessing
import os
import re
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro import faults, obs, stages
from repro.explore import (
    ResultStore,
    ScenarioPoint,
    ScenarioResult,
    store_diff,
)
from repro.interpreter import InterpreterOptions
from repro.serve import (
    DeadlineExceededError,
    OverloadedError,
    PredictRequest,
    PredictionService,
    ProtocolError,
    ServeError,
    ServeOptions,
    ServerThread,
    serve_manifest_path,
)
from repro.serve.batching import BatchQueue


@pytest.fixture(autouse=True)
def clean_state():
    """Serve tests read obs counters and the package-level stage caches;
    both must start empty and leak nothing into the rest of the suite."""
    obs.disable()
    obs.reset()
    stages.clear_stage_caches()
    faults.clear()
    faults.reset_retry_stats()
    yield
    obs.disable()
    obs.reset()
    stages.clear_stage_caches()
    faults.clear()
    faults.reset_retry_stats()


PREDICT_BODY = {"app": "laplace_block_star", "size": 16, "nprocs": 4,
                "machine": "ipsc860"}

SOURCE = """
      program tiny
      integer, parameter :: n = 16
      real, dimension(n) :: x
      real :: total
!HPF$ PROCESSORS p(4)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      forall (i = 1:n) x(i) = 0.5 * i
      total = sum(x)
      print *, total
      end program tiny
"""


def counters():
    return obs.get_registry().flatten()


def run_async(coro):
    return asyncio.run(coro)


async def with_service(options, body):
    """Start a service, run the coroutine-producing callable, stop it."""
    service = PredictionService(options)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


def post(url, payload):
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


# ---------------------------------------------------------------------------
# ServeOptions / request validation (the NoiseOptions convention)
# ---------------------------------------------------------------------------


class TestServeOptionsValidation:
    def test_defaults_are_valid(self):
        options = ServeOptions()
        assert options.port == 8455
        assert options.cache_size == 4096

    @pytest.mark.parametrize("field,value", [
        ("port", -1), ("port", 70000), ("port", "8455"), ("port", True),
        ("cache_size", 0), ("cache_size", 2.5),
        ("batch_max", 0),
        ("batch_window_ms", -1.0), ("batch_window_ms", float("nan")),
        ("workers", 0),
        ("store_path", ""),
        ("telemetry", "yes"),
        ("max_body_bytes", 100),
        ("advise_budget_cap", 0),
        ("campaign_point_cap", 0),
        ("request_deadline_ms", -1.0), ("request_deadline_ms", float("inf")),
        ("queue_max", 0), ("queue_max", 2.5),
        ("retry_after_s", 0), ("retry_after_s", float("nan")),
        ("compute_retries", -1), ("compute_retries", 1.5),
        ("drain_timeout_s", -0.5),
    ])
    def test_bad_values_fail_eagerly_naming_the_field(self, field, value):
        with pytest.raises(ServeError, match=field):
            ServeOptions(**{field: value})

    def test_unknown_field_fails_in_the_constructor(self):
        with pytest.raises(TypeError):
            ServeOptions(cach_size=16)

    def test_unknown_request_field_names_the_valid_set(self):
        with pytest.raises(ProtocolError) as err:
            PredictRequest.from_payload({**PREDICT_BODY, "bogus": 1})
        assert "bogus" in str(err.value)
        assert "'app'" in str(err.value)       # the valid set is listed

    def test_unknown_machine_names_the_registry(self):
        with pytest.raises(ProtocolError, match="ipsc860"):
            PredictRequest.from_payload({**PREDICT_BODY, "machine": "cray"})

    def test_machine_spellings_share_one_store_key(self):
        canonical = PredictRequest.from_payload(
            {**PREDICT_BODY, "machine": "modern-cluster"})
        for spelling in ("modern_cluster", "Modern Cluster"):
            request = PredictRequest.from_payload(
                {**PREDICT_BODY, "machine": spelling})
            assert request.point.machine == "modern-cluster"
            assert request.key == canonical.key

    def test_app_and_source_are_mutually_exclusive(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            PredictRequest.from_payload({"app": "laplace_block_star",
                                         "source": SOURCE})

    def test_predict_key_is_the_store_scenario_key(self):
        request = PredictRequest.from_payload(PREDICT_BODY)
        from repro.explore.store import scenario_key
        assert request.key == scenario_key(
            request.point.scenario_dict(), "predict")


# ---------------------------------------------------------------------------
# LRU eviction (the memory tier's substrate)
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_evicts_least_recently_used_first(self):
        lru = stages.LRUCache(3)
        for k in "abc":
            lru.put(k, k.upper())
        lru.get("a")                   # refresh 'a'; 'b' is now the LRU
        lru.put("d", "D")
        assert lru.keys() == ["c", "a", "d"]
        assert "b" not in lru
        assert lru.get("a") == "A"

    def test_put_refreshes_recency_too(self):
        lru = stages.LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)               # rewrite refreshes 'a'
        lru.put("c", 3)
        assert "b" not in lru and lru.get("a") == 10

    def test_bound_is_hard(self):
        lru = stages.LRUCache(4)
        for n in range(100):
            lru.put(n, n)
        assert len(lru) == 4
        assert lru.keys() == [96, 97, 98, 99]


# ---------------------------------------------------------------------------
# three-tier resolution + single-flight + batching (service level)
# ---------------------------------------------------------------------------


class TestServiceResolution:
    def test_memory_tier_second_request_is_a_hit(self):
        body = json.dumps(PREDICT_BODY).encode()

        async def scenario(service):
            first = await service.handle_predict(body)
            second = await service.handle_predict(body)
            return first, second

        (payload1, tier1), (payload2, tier2) = run_async(
            with_service(ServeOptions(port=0), scenario))
        assert (tier1, tier2) == ("computed", "memory")
        assert payload1 == payload2    # byte-identical cached payload
        flat = counters()
        assert flat['repro_serve_cache_hits_total{tier="memory"}'] == 1
        assert flat['repro_serve_computes_total{kind="predict"}'] == 1

    def test_store_tier_survives_a_fresh_service(self, tmp_path):
        store_path = str(tmp_path / "runs.jsonl")
        body = json.dumps(PREDICT_BODY).encode()

        async def compute_once(service):
            return await service.handle_predict(body)

        _, tier1 = run_async(with_service(
            ServeOptions(port=0, store_path=store_path), compute_once))
        assert tier1 == "computed"
        # a new service (empty memory tier) over the same store file
        payload, tier2 = run_async(with_service(
            ServeOptions(port=0, store_path=store_path), compute_once))
        assert tier2 == "store"
        assert json.loads(payload)["predicted_time_us"] > 0
        flat = counters()
        assert flat['repro_serve_cache_hits_total{tier="store"}'] == 1
        assert flat['repro_serve_computes_total{kind="predict"}'] == 1

    def test_single_flight_32_concurrent_identical_one_compute(self):
        body = json.dumps(PREDICT_BODY).encode()

        async def herd(service):
            return await asyncio.gather(
                *(service.handle_predict(body) for _ in range(32)))

        results = run_async(with_service(ServeOptions(port=0), herd))
        assert len(results) == 32
        payloads = {payload for payload, _tier in results}
        assert len(payloads) == 1      # every caller got the same bytes
        flat = counters()
        assert flat['repro_serve_computes_total{kind="predict"}'] == 1
        assert flat["repro_serve_singleflight_leaders_total"] == 1
        assert flat["repro_serve_singleflight_followers_total"] == 31

    def test_concurrent_distinct_misses_batch_together(self):
        bodies = [json.dumps({**PREDICT_BODY, "nprocs": n}).encode()
                  for n in (2, 4, 8, 16)]

        async def burst(service):
            return await asyncio.gather(
                *(service.handle_predict(b) for b in bodies))

        results = run_async(with_service(
            ServeOptions(port=0, batch_window_ms=100.0), burst))
        assert [tier for _p, tier in results] == ["computed"] * 4
        flat = counters()
        assert flat['repro_serve_computes_total{kind="predict"}'] == 4
        # a generous window collects the whole burst into one dispatch
        assert flat["repro_serve_batches_total"] == 1

    def test_batch_manifest_stamped_next_to_the_store(self, tmp_path):
        store_path = str(tmp_path / "runs.jsonl")
        body = json.dumps(PREDICT_BODY).encode()

        async def compute_once(service):
            return await service.handle_predict(body)

        run_async(with_service(
            ServeOptions(port=0, store_path=store_path), compute_once))
        manifest_file = serve_manifest_path(store_path)
        assert os.path.exists(manifest_file)
        with open(manifest_file) as fh:
            manifest = json.load(fh)
        assert manifest["mode"] == "serve"
        assert manifest["points_evaluated"] == 1
        assert manifest["store_records"] >= 1


# ---------------------------------------------------------------------------
# the HTTP layer: status mapping and /metrics under load
# ---------------------------------------------------------------------------


class TestHTTPServer:
    def test_error_status_mapping(self):
        with ServerThread(ServeOptions(port=0)) as (host, port):
            base = f"http://{host}:{port}"
            status, payload = post(f"{base}/predict", b"{not json")
            assert status == 400 and "JSON" in payload["error"]
            status, payload = post(f"{base}/predict",
                                   {**PREDICT_BODY, "bogus": 1})
            assert status == 400 and "bogus" in payload["error"]
            status, payload = post(f"{base}/predict", {"app": "no_such_app"})
            assert status == 400 and "laplace" in payload["error"]
            status, _ = get(f"{base}/predict")           # wrong method
            assert status == 405
            status, _ = get(f"{base}/no_such_route")
            assert status == 404
            # an internal failure (uncompilable program reaches the worker)
            status, payload = post(
                f"{base}/predict",
                {"source": "      program broken\n      x = (1 +\n"
                           "      end program broken\n"})
            assert status == 500
            assert payload["error"] == "internal server error"
            # the server survives all of the above
            status, payload = post(f"{base}/predict", PREDICT_BODY)
            assert status == 200 and payload["served_from"] == "computed"

    def test_healthz_shape(self):
        with ServerThread(ServeOptions(port=0)) as (host, port):
            status, raw = get(f"http://{host}:{port}/healthz")
            assert status == 200
            health = json.loads(raw)
            assert health["status"] == "ok"
            assert health["version"] == repro.__version__
            assert health["cache_entries"] == 0
            assert health["store_records"] is None

    def test_metrics_parse_under_concurrent_load(self):
        line_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.naif-]+$')
        with ServerThread(ServeOptions(port=0)) as (host, port):
            base = f"http://{host}:{port}"
            failures = []
            scrapes = []

            def client(n):
                try:
                    status, _ = post(f"{base}/predict",
                                     {**PREDICT_BODY, "nprocs": 2 + 2 * (n % 4)})
                    assert status == 200
                except Exception as exc:       # noqa: BLE001 - collected
                    failures.append(exc)

            def scraper():
                try:
                    for _ in range(5):
                        status, raw = get(f"{base}/metrics")
                        assert status == 200
                        scrapes.append(raw.decode())
                except Exception as exc:       # noqa: BLE001 - collected
                    failures.append(exc)

            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(8)] + \
                      [threading.Thread(target=scraper) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not failures
            status, raw = get(f"{base}/metrics")   # post-load scrape
            assert status == 200
            scrapes.append(raw.decode())
            # every scrape, including mid-load ones, is valid exposition text
            for text in scrapes:
                for line in text.splitlines():
                    if not line or line.startswith("#"):
                        continue
                    assert line_re.match(line), f"unparseable line: {line!r}"
            final = scrapes[-1]
            assert 'repro_serve_requests_total{route="/predict",status="200"} 8' \
                in final


# ---------------------------------------------------------------------------
# resilience: deadlines, load shedding, graceful drain, watchful ServerThread
# ---------------------------------------------------------------------------


def post_raw(url, payload):
    """Like :func:`post` but also returns the response headers."""
    req = urllib.request.Request(url, data=json.dumps(payload).encode())
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


class _BlockingWorker:
    """A worker that parks until released — makes queue states deterministic."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.done = []

    def __call__(self, item):
        self.started.set()
        assert self.release.wait(timeout=30), "worker never released"
        self.done.append(item)
        return {"item": item}


class TestBatchQueueResilience:
    def test_queue_full_sheds_overloaded(self):
        async def scenario():
            from concurrent.futures import ThreadPoolExecutor
            worker = _BlockingWorker()
            executor = ThreadPoolExecutor(max_workers=1)
            queue = BatchQueue(worker=worker, executor=executor,
                               batch_max=1, batch_window_s=0.0, queue_max=1)
            queue.start()
            first = asyncio.ensure_future(queue.submit("a"))
            # wait until "a" is dispatched (in flight, out of the queue)
            await asyncio.get_running_loop().run_in_executor(
                None, worker.started.wait, 10)
            second = asyncio.ensure_future(queue.submit("b"))  # fills the queue
            await asyncio.sleep(0)        # let submit run to its enqueue
            with pytest.raises(OverloadedError, match="full"):
                await queue.submit("c")   # queue_max=1: shed
            assert queue.shed_total == 1
            worker.release.set()
            assert (await first) == {"item": "a"}
            assert (await second) == {"item": "b"}
            await queue.stop()
            executor.shutdown(wait=False)

        run_async(scenario())

    def test_stop_drains_accepted_work_then_rejects(self):
        async def scenario():
            from concurrent.futures import ThreadPoolExecutor
            worker = _BlockingWorker()
            executor = ThreadPoolExecutor(max_workers=1)
            queue = BatchQueue(worker=worker, executor=executor,
                               batch_max=1, batch_window_s=0.0)
            queue.start()
            first = asyncio.ensure_future(queue.submit("a"))
            second = asyncio.ensure_future(queue.submit("b"))
            await asyncio.get_running_loop().run_in_executor(
                None, worker.started.wait, 10)
            worker.release.set()
            await queue.stop(drain=True, drain_timeout_s=10.0)
            # both accepted items completed — drain, not cancellation
            assert (await first) == {"item": "a"}
            assert (await second) == {"item": "b"}
            assert worker.done == ["a", "b"]
            # and the stopped queue sheds new work with a 503-class error
            with pytest.raises(OverloadedError, match="stopped or draining"):
                await queue.submit("c")
            executor.shutdown(wait=False)

        run_async(scenario())

    def test_expired_deadline_is_shed_at_dispatch(self):
        async def scenario():
            from concurrent.futures import ThreadPoolExecutor
            worker = _BlockingWorker()
            executor = ThreadPoolExecutor(max_workers=1)
            queue = BatchQueue(worker=worker, executor=executor,
                               batch_max=1, batch_window_s=0.0)
            queue.start()
            first = asyncio.ensure_future(queue.submit("a"))
            await asyncio.get_running_loop().run_in_executor(
                None, worker.started.wait, 10)
            # "b" enters the queue with a deadline that expires while "a"
            # still blocks the (single) dispatch lane
            import time as _t
            expired = asyncio.ensure_future(
                queue.submit("b", deadline=_t.monotonic() + 0.05))
            await asyncio.sleep(0.2)
            worker.release.set()
            assert (await first) == {"item": "a"}
            with pytest.raises(DeadlineExceededError, match="while queued"):
                await expired
            assert queue.expired_total == 1
            assert "b" not in worker.done      # never burned a worker on it
            await queue.stop()
            executor.shutdown(wait=False)

        run_async(scenario())


class TestServeResilienceHTTP:
    def test_deadline_maps_to_504_with_retry_after(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="serve.compute", action="delay",
                               delay_s=1.0, index=0),)))
        options = ServeOptions(port=0, request_deadline_ms=100.0,
                               retry_after_s=3.0)
        with ServerThread(options) as (host, port):
            base = f"http://{host}:{port}"
            status, headers, payload = post_raw(f"{base}/predict",
                                                PREDICT_BODY)
            assert status == 504
            assert "deadline" in payload["error"]
            assert headers.get("Retry-After") == "3"
            # the shielded computation completed and warmed the cache: the
            # client's advised retry is served instantly from memory
            import time as _t
            _t.sleep(1.2)
            status, _headers, payload = post_raw(f"{base}/predict",
                                                 PREDICT_BODY)
            assert status == 200 and payload["served_from"] == "memory"
            # /healthz reports the pressure window
            _status, raw = get(f"{base}/healthz")
            health = json.loads(raw)
            assert health["status"] == "degraded"
            assert health["resilience"]["deadline_expired_total"] == 1

    def test_transient_compute_fault_is_retried_to_success(self):
        faults.install(faults.FaultPlan(actions=(
            faults.FaultAction(site="serve.compute", action="exception",
                               index=0, message="planned transient"),)))
        with ServerThread(ServeOptions(port=0)) as (host, port):
            status, _headers, payload = post_raw(
                f"http://{host}:{port}/predict", PREDICT_BODY)
            assert status == 200 and payload["served_from"] == "computed"
        assert faults.injected_total() == 1
        assert faults.retry_total() == 1

    def test_exhausted_retries_surface_as_500_not_a_hang(self):
        faults.install(faults.FaultPlan(actions=tuple(
            faults.FaultAction(site="serve.compute", action="exception",
                               index=i, message=f"transient {i}")
            for i in range(3))))
        with ServerThread(ServeOptions(port=0,
                                       compute_retries=2)) as (host, port):
            status, _headers, payload = post_raw(
                f"http://{host}:{port}/predict", PREDICT_BODY)
            assert status == 500
        assert faults.retry_total() == 2        # budget spent, then surfaced

    def test_stopped_server_refuses_new_connections(self):
        with ServerThread(ServeOptions(port=0)) as (host, port):
            base = f"http://{host}:{port}"
            status, _headers, payload = post_raw(f"{base}/predict",
                                                 PREDICT_BODY)
            assert status == 200
        # the context exit stopped the server: the socket is closed and new
        # connections are refused rather than hanging
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"{base}/healthz", timeout=5)

    def test_stop_drains_and_server_thread_errors_are_described(self):
        # a service stop drains: a request in flight when stop() begins
        # still completes (covered at the BatchQueue level above); here the
        # ServerThread contract — a start that cannot bind raises ServeError
        # naming the thread state instead of a bare RuntimeError
        with pytest.raises(ServeError, match="failed to start"):
            with ServerThread(ServeOptions(host="256.0.0.999", port=0)):
                pass                             # pragma: no cover

    def test_server_thread_ready_timeout_raises_serve_error(self, monkeypatch):
        thread = ServerThread(ServeOptions(port=0))

        async def never_ready():
            await asyncio.sleep(60)

        monkeypatch.setattr(thread.server, "start", never_ready)
        monkeypatch.setattr(thread, "STARTUP_TIMEOUT_S", 0.2)
        with pytest.raises(ServeError, match="did not become ready"):
            thread.__enter__()


# ---------------------------------------------------------------------------
# two-stage predict path: compile and price cached independently
# ---------------------------------------------------------------------------


class TestStageCaches:
    def test_same_program_different_machine_hits_compile_misses_price(self):
        obs.enable()
        repro.predict(SOURCE, nprocs=4, machine="ipsc860")
        baseline = counters()
        assert baseline['repro_stage_cache_misses_total{stage="compile"}'] == 1
        assert baseline['repro_stage_cache_misses_total{stage="price"}'] == 1

        # the acceptance scenario: same program, different machine
        repro.predict(SOURCE, nprocs=4, machine="paragon")
        flat = counters()
        assert flat['repro_stage_cache_hits_total{stage="compile"}'] == 1
        assert flat['repro_stage_cache_misses_total{stage="price"}'] == 2
        assert 'repro_stage_cache_hits_total{stage="price"}' not in flat

    def test_price_cache_hit_on_identical_request(self):
        obs.enable()
        first = repro.predict(SOURCE, nprocs=4)
        second = repro.predict(SOURCE, nprocs=4)
        assert second is first         # memoised result object
        flat = counters()
        assert flat['repro_stage_cache_hits_total{stage="price"}'] == 1
        assert flat['repro_stage_cache_hits_total{stage="compile"}'] == 1

    def test_compile_memo_returns_identical_compiled_program(self):
        compiled1 = stages.compile_cached(SOURCE, nprocs=4, grid_shape=None,
                                          params=None)
        compiled2 = stages.compile_cached(SOURCE, nprocs=4, grid_shape=None,
                                          params=None)
        assert compiled2 is compiled1
        # a different nprocs is a different compile key
        compiled4 = stages.compile_cached(SOURCE, nprocs=2, grid_shape=None,
                                          params=None)
        assert compiled4 is not compiled1

    def test_stage_caches_are_bounded(self):
        assert stages._compile_cache.maxsize == stages.COMPILE_CACHE_SIZE
        assert stages._price_cache.maxsize == stages.PRICE_CACHE_SIZE

    def test_custom_machine_instances_bypass_the_price_cache(self):
        from repro.system import get_machine
        machine = get_machine("ipsc860", nprocs=4)
        obs.enable()
        repro.predict(SOURCE, nprocs=4, machine=machine)
        repro.predict(SOURCE, nprocs=4, machine=machine)
        flat = counters()
        # compile still memoises; price never caches a caller-built Machine
        assert flat['repro_stage_cache_hits_total{stage="compile"}'] == 1
        assert 'repro_stage_cache_hits_total{stage="price"}' not in flat


# ---------------------------------------------------------------------------
# options-token canonicalisation: the conservative bypass, then the widened
# dataclass canonicalisation (PR-8 follow-up)
# ---------------------------------------------------------------------------


class _FakePricer:
    """A counting stand-in for interpret(): distinguishes cache hits (no
    call) from fresh prices (one call)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, compiled, machine, options=None):
        self.calls += 1
        return ("priced", self.calls)


class TestOptionsTokenCanonicalisation:
    def price_twice(self, options):
        """Price the same (compiled, machine) twice under *options*;
        returns how many times the pricer actually ran."""
        from repro.system import get_machine
        compile_key = stages.compile_stage_key(SOURCE, nprocs=4)
        compiled = stages.compile_cached(SOURCE, nprocs=4, key=compile_key)
        machine = get_machine("ipsc860", nprocs=4)
        pricer = _FakePricer()
        for _ in range(2):
            stages.price_cached(compiled, machine, compile_key=compile_key,
                                options=options, pricer=pricer)
        return pricer.calls

    def test_none_options_token_is_default(self):
        assert stages.options_stage_token(None) == "default"

    def test_non_dataclass_options_pin_the_conservative_bypass(self):
        # a mapping, a plain object, a dataclass *class* (not instance):
        # none can be canonicalised, all must bypass the price cache
        for options in ({"mask_true_fraction": 0.5}, object(),
                        InterpreterOptions):
            assert stages.options_stage_token(options) is None
        assert self.price_twice({"mask_true_fraction": 0.5}) == 2

    def test_uncanonicalisable_dataclass_values_bypass(self):
        from dataclasses import dataclass, field as dc_field

        @dataclass
        class HookedOptions:
            scale: float = 2.0
            hook: object = dc_field(default=print)   # a callable: no token

        assert stages.options_stage_token(HookedOptions()) is None
        assert self.price_twice(HookedOptions()) == 2

    def test_non_default_interpreter_options_share_a_stable_token(self):
        a = InterpreterOptions(mask_true_fraction=0.75,
                               overrides={"x": 1.0, "y": 2.0},
                               while_trip_estimate=7.0)
        b = InterpreterOptions(mask_true_fraction=0.75,
                               overrides={"y": 2.0, "x": 1.0},
                               while_trip_estimate=7.0)
        token = stages.options_stage_token(a)
        assert token is not None and token == stages.options_stage_token(b)
        # the nested memory dataclass is part of the token
        assert "page_size" in token or "memory" in token
        assert stages.options_stage_token(InterpreterOptions()) != token
        # equal-by-value options are one price-cache entry
        assert self.price_twice(a) == 1

    def test_different_options_are_different_price_entries(self):
        obs.enable()
        assert self.price_twice(
            InterpreterOptions(mask_true_fraction=0.25)) == 1
        assert self.price_twice(
            InterpreterOptions(mask_true_fraction=0.75)) == 1
        flat = counters()
        assert flat['repro_stage_cache_hits_total{stage="price"}'] == 2
        assert flat['repro_stage_cache_misses_total{stage="price"}'] == 2

    def test_set_valued_dataclass_fields_get_a_canonical_token(self):
        from dataclasses import dataclass, field as dc_field

        @dataclass
        class TaggedOptions:
            tags: frozenset = dc_field(default_factory=frozenset)
            factor: float = 1.0

        a = TaggedOptions(tags=frozenset(["gamma", "alpha", "beta"]))
        b = TaggedOptions(tags=frozenset(["beta", "gamma", "alpha"]))
        token = stages.options_stage_token(a)
        assert token is not None
        assert token == stages.options_stage_token(b)
        # canonical form sorts set members, so the token is reproducible
        assert token.index("alpha") < token.index("beta") \
            < token.index("gamma")
        assert self.price_twice(a) == 1


# ---------------------------------------------------------------------------
# concurrent-writer store safety (advisory lock satellite)
# ---------------------------------------------------------------------------


def _append_worker(store_path, worker_id, count):
    store = ResultStore(store_path)
    for n in range(count):
        point = ScenarioPoint(app="laplace_block_star", size=16,
                              nprocs=2, machine="ipsc860",
                              params=(("w", float(worker_id)), ("n", float(n))))
        store.add(ScenarioResult(point=point, mode="predict",
                                 estimated_us=1.0 * n))


class TestStoreConcurrentWriters:
    def test_two_processes_appending_interleaved_lose_nothing(self, tmp_path):
        store_path = str(tmp_path / "contended.jsonl")
        ResultStore(store_path)        # write the header once
        ctx = multiprocessing.get_context("fork")
        workers = [ctx.Process(target=_append_worker,
                               args=(store_path, wid, 25))
                   for wid in range(4)]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        # every line must parse (no torn/interleaved records), and every
        # one of the 100 distinct scenarios must be present
        with open(store_path) as fh:
            lines = fh.read().splitlines()
        for line in lines[1:]:
            json.loads(line)
        reloaded = ResultStore(store_path)
        assert len(reloaded) == 100

    def test_many_threads_one_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "threaded.jsonl"))

        def worker(worker_id):
            _append_worker(store.path, worker_id, 10)
            # also hammer the shared instance itself
            for n in range(10):
                point = ScenarioPoint(
                    app="laplace_block_star", size=16, nprocs=4,
                    machine="ipsc860",
                    params=(("t", float(worker_id)), ("n", float(n))))
                store.add(ScenarioResult(point=point, mode="predict",
                                         estimated_us=2.0 * n))

        threads = [threading.Thread(target=worker, args=(wid,))
                   for wid in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        reloaded = ResultStore(store.path)
        assert len(reloaded) == 160    # 8 workers x (10 + 10) distinct points


# ---------------------------------------------------------------------------
# /campaign shards= fan-out
# ---------------------------------------------------------------------------


class TestServedShardedCampaign:
    def test_shards_field_validated(self):
        options = ServeOptions(port=0)
        from repro.serve import CampaignRequest
        with pytest.raises(ProtocolError, match="shards"):
            CampaignRequest.from_payload(
                {"shards": options.campaign_shard_cap + 1}, options)
        with pytest.raises(ProtocolError, match="decompose"):
            CampaignRequest.from_payload(
                {"shards": 2, "strategy": "hillclimb"}, options)
        plain = CampaignRequest.from_payload({}, options)
        sharded = CampaignRequest.from_payload({"shards": 2}, options)
        assert plain.shards == 1 and sharded.shards == 2
        assert plain.key != sharded.key        # shards is part of the key

    def test_sharded_campaign_merges_into_the_serve_store(self, tmp_path):
        store_path = str(tmp_path / "served.jsonl")
        body = json.dumps({
            "name": "fanout", "apps": ["laplace_block_star"],
            "sizes": [16, 32], "proc_counts": [2, 4], "shards": 2,
        }).encode()

        async def scenario(service):
            return await service.handle_campaign(body)

        payload, tier = run_async(with_service(
            ServeOptions(port=0, store_path=store_path), scenario))
        assert tier == "computed"
        data = json.loads(payload)
        assert data["shards"] == 2
        assert data["points"] == 4
        assert data["best"]["objective_us"] > 0
        # segments merged into the canonical store and were cleaned up
        assert len(ResultStore(store_path)) == 4
        leftovers = [f for f in os.listdir(tmp_path) if "shard" in f]
        assert leftovers == []

    def test_sharded_result_matches_plain_campaign(self, tmp_path):
        request = {"apps": ["laplace_block_star"], "sizes": [16, 32],
                   "proc_counts": [2, 4]}

        async def scenario(service):
            return await service.handle_campaign(json.dumps(request).encode())

        plain_payload, _ = run_async(with_service(
            ServeOptions(port=0, store_path=str(tmp_path / "a.jsonl")),
            scenario))
        request["shards"] = 2

        sharded_payload, _ = run_async(with_service(
            ServeOptions(port=0, store_path=str(tmp_path / "b.jsonl")),
            scenario))
        plain, sharded = json.loads(plain_payload), json.loads(sharded_payload)
        assert plain["best"] == sharded["best"]
        assert plain["points"] == sharded["points"]
        # merged store records match the plain campaign's exactly
        diff = store_diff(ResultStore(str(tmp_path / "a.jsonl")).results(),
                          ResultStore(str(tmp_path / "b.jsonl")).results())
        assert diff.drifted == [] and not diff.added and not diff.removed


# ---------------------------------------------------------------------------
# stress: 8 shard-segment writer processes + a live server on one store
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestStressWritersWithLiveServer:
    def test_eight_writers_a_live_server_and_readers_agree(self, tmp_path):
        from repro.serve import ServerThread
        store_path = str(tmp_path / "stress.jsonl")
        ResultStore(store_path)                      # header once
        ctx = multiprocessing.get_context("fork")
        writers = [ctx.Process(target=_append_worker,
                               args=(store_path, wid, 25))
                   for wid in range(8)]
        options = ServeOptions(port=0, store_path=store_path,
                               telemetry=False)
        with ServerThread(options) as (host, port):
            for proc in writers:
                proc.start()
            # the live server computes fresh predictions into the same
            # store while the 8 writer processes hammer it
            seen_lengths = []
            for nprocs in (2, 4, 8, 16, 2, 4, 8, 16):
                status, payload = post(f"http://{host}:{port}/predict",
                                       {"app": "laplace_block_block",
                                        "size": 16, "nprocs": nprocs})
                assert status == 200
                assert payload["predicted_time_us"] > 0
                # concurrent reader: every mid-write load parses cleanly
                # and never shrinks
                seen_lengths.append(len(ResultStore(store_path)))
            assert seen_lengths == sorted(seen_lengths)
            for proc in writers:
                proc.join(timeout=120)
                assert proc.exitcode == 0
        # every line parses -- no torn or interleaved records
        with open(store_path) as fh:
            lines = fh.read().splitlines()
        for line in lines[1:]:
            json.loads(line)
        # 8 writers x 25 distinct points + 4 distinct served scenarios
        reloaded = ResultStore(store_path)
        assert len(reloaded) == 8 * 25 + 4
        # reader drift check: two independent loads of the final store
        # agree record-for-record
        diff = store_diff(ResultStore(store_path).results(),
                          reloaded.results())
        assert diff.drifted == [] and not diff.added and not diff.removed
        assert diff.compared == len(reloaded)
