"""Counter-based noise engine tests: keyed-draw order/slice independence,
empirical magnitude calibration, input normalisation, and option validation.

The counter scheme's whole contract is that a deviate is a pure function of
its ``NoiseKey`` — so these tests evaluate the same keys through different
batch shapes, orders and slices and require bit-identical values, then check
that the realised noise actually has the magnitudes ``NoiseOptions`` claims.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.errors import SimulationError
from repro.simulator import (
    NoiseKey,
    NoiseModel,
    NoiseOptions,
    SimulatorOptions,
    simulate,
)
from repro.simulator import noise as noise_module
from repro.simulator.noise import (
    STREAM_COMM_FLOOR,
    STREAM_COMM_JITTER,
    STREAM_COMPUTE_INTERRUPT,
    STREAM_COMPUTE_JITTER,
    TAPE_DEVIATES,
    keyed_uniform,
    ndtri,
    poisson_from_uniform,
)


class TestKeyedUniform:
    def test_deterministic_pure_function_of_key(self):
        ranks = np.arange(64, dtype=np.int64)
        a = keyed_uniform(7, 1, 3, ranks)
        b = keyed_uniform(7, 1, 3, ranks)
        assert np.array_equal(a, b)
        assert np.all((a > 0.0) & (a < 1.0))

    @pytest.mark.parametrize("field", ["seed", "stream", "phase", "draw"])
    def test_every_key_word_matters(self, field):
        ranks = np.arange(16, dtype=np.int64)
        base = dict(seed=7, stream=1, phase=3, draw=0)
        bumped = dict(base, **{field: base[field] + 1})
        a = keyed_uniform(base["seed"], base["stream"], base["phase"], ranks,
                          base["draw"])
        b = keyed_uniform(bumped["seed"], bumped["stream"], bumped["phase"],
                          ranks, bumped["draw"])
        assert not np.any(a == b)

    def test_slicing_cannot_change_values(self):
        """Any subset of ranks materialises to the full phase's values."""
        ranks = np.arange(128, dtype=np.int64)
        full = keyed_uniform(11, 2, 9, ranks)
        subset = np.array([3, 77, 12, 127, 0], dtype=np.int64)
        assert np.array_equal(keyed_uniform(11, 2, 9, subset), full[subset])
        # reversed evaluation order, element by element
        for r in reversed(range(128)):
            one = keyed_uniform(11, 2, 9, np.array([r], dtype=np.int64))
            assert one[0] == full[r]

    def test_approximately_uniform(self):
        u = keyed_uniform(1, 1, 0, np.arange(200_000, dtype=np.int64))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_top_hash_stays_inside_the_open_interval(self, monkeypatch):
        """A hash of all-ones bits is the one key whose deviate rounds to
        1.0, where ``ndtri`` is NaN; it must stay below 1."""
        monkeypatch.setattr(noise_module, "_splitmix64",
                            lambda x: x | np.uint64(2 ** 64 - 1))
        u = keyed_uniform(7, 1, 3, np.arange(4, dtype=np.int64))
        assert np.all((u > 0.0) & (u < 1.0))
        assert np.all(np.isfinite(ndtri(u)))


class TestNdtri:
    def test_known_quantiles(self):
        assert ndtri(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-12)
        assert ndtri(np.array([0.975]))[0] == pytest.approx(1.959964, abs=1e-5)
        assert ndtri(np.array([0.0013498980316301])[0]) == \
            pytest.approx(-3.0, abs=1e-6)

    def test_odd_symmetry_and_tails(self):
        u = np.array([1e-9, 1e-4, 0.01, 0.3, 0.7, 0.99, 0.9999, 1 - 1e-9])
        z = ndtri(u)
        assert np.allclose(z, -ndtri(1.0 - u)[::-1][::1] * 0 - ndtri(1.0 - u),
                           atol=1e-7)
        assert np.all(np.diff(z) > 0)


class TestPoissonFromUniform:
    def test_matches_rate_small_lambda(self):
        n = 200_000
        u = keyed_uniform(3, 2, 0, np.arange(n, dtype=np.int64))
        lam = np.full(n, 0.25)
        hits = poisson_from_uniform(u, lam)
        assert hits.mean() == pytest.approx(0.25, rel=0.03)

    def test_matches_rate_large_lambda_via_normal_approx(self):
        n = 50_000
        u = keyed_uniform(4, 2, 0, np.arange(n, dtype=np.int64))
        lam = np.full(n, 500.0)
        hits = poisson_from_uniform(u, lam)
        assert hits.mean() == pytest.approx(500.0, rel=0.01)
        assert hits.var() == pytest.approx(500.0, rel=0.05)
        assert np.all(hits >= 0)


def _ndtri_by_gathers(u):
    """The gather-based ``ndtri`` the in-place one replaced, kept as its
    oracle: each branch gathers its own elements, evaluates them and
    scatters the results back."""
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    lower = u < noise_module._NDTRI_P_LOW
    upper = u > noise_module._NDTRI_P_HIGH
    central = ~(lower | upper)
    c, d = noise_module._NDTRI_C, noise_module._NDTRI_D

    def tail(q):
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        return num / den

    with np.errstate(divide="ignore", invalid="ignore"):
        if lower.any():
            out[lower] = tail(np.sqrt(-2.0 * np.log(u[lower])))
        if upper.any():
            out[upper] = -tail(np.sqrt(-2.0 * np.log(1.0 - u[upper])))
    if central.any():
        a, b = noise_module._NDTRI_A, noise_module._NDTRI_B
        q = u[central] - 0.5
        r = q * q
        num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
               + a[5]) * q
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[central] = num / den
    return out


def _poisson_by_gathers(u, lam):
    """The gather-based ``poisson_from_uniform`` the gather-free one
    replaced, kept as its oracle."""
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    hits = np.zeros(lam.shape, dtype=np.float64)
    large = lam > noise_module._POISSON_NORMAL_APPROX_LAMBDA
    if large.any():
        z = _ndtri_by_gathers(u[large])
        hits[large] = np.maximum(
            np.rint(lam[large] + np.sqrt(lam[large]) * z), 0.0)
    small = ~large
    if small.any():
        ls = lam[small]
        us = u[small]
        pmf = np.exp(-ls)
        cdf = pmf.copy()
        count = np.zeros_like(ls)
        k = 0
        pending = us > cdf
        while pending.any() and k < noise_module._POISSON_MAX_STEPS:
            k += 1
            pmf = pmf * (ls / k)
            cdf = cdf + pmf
            count[pending] = k
            pending = us > cdf
        hits[small] = count
    return hits


#: the smallest and largest values of ``keyed_uniform``'s formula, computed
#: as it computes them; the largest rounds to 1.0 (``keyed_uniform`` then
#: clamps it below 1)
_EXTREME_UNIFORMS = (np.array([0, 2 ** 53 - 1], dtype=np.uint64)
                     .astype(np.float64) + 0.5) * 2.0 ** -53


class TestGatherFreeKernels:
    """``ndtri`` and ``poisson_from_uniform`` equal the gather-based forms
    they replaced, bit for bit: the same elementwise operations reach every
    element, in the same order."""

    def test_ndtri_on_a_tape_block(self):
        streams = np.array([STREAM_COMM_JITTER, STREAM_COMM_FLOOR],
                           dtype=np.uint64)[:, None]
        u = keyed_uniform(12345, streams, 17, np.arange(8192, dtype=np.int64))
        assert u.shape == (2, 8192)
        z = ndtri(u)
        assert z.shape == u.shape
        assert z.tobytes() == _ndtri_by_gathers(u).tobytes()

    def test_ndtri_at_the_branch_edges_and_extreme_uniforms(self):
        low, high = noise_module._NDTRI_P_LOW, noise_module._NDTRI_P_HIGH
        points = np.array([
            low, np.nextafter(low, 0.0), np.nextafter(low, 1.0),
            high, np.nextafter(high, 0.0), np.nextafter(high, 1.0),
            *_EXTREME_UNIFORMS, 0.5])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert ndtri(points).tobytes() == _ndtri_by_gathers(points).tobytes()
            for point in points:                    # 0-d input keeps its shape
                z = ndtri(np.float64(point))
                assert z.shape == ()
                assert z.tobytes() == _ndtri_by_gathers(point).tobytes()

    @pytest.mark.parametrize("above", ["none", "some", "all"])
    def test_poisson_matches_its_oracle(self, above):
        threshold = noise_module._POISSON_NORMAL_APPROX_LAMBDA
        u = keyed_uniform(3, STREAM_COMPUTE_INTERRUPT, 5,
                          np.arange(4096, dtype=np.int64))
        lam = np.linspace(0.0, 3.0, 4096)          # 0.0 included
        if above == "some":
            lam[::7] += threshold
        elif above == "all":
            lam += threshold + 1e-9
        hits = poisson_from_uniform(u, lam)
        assert hits.tobytes() == _poisson_by_gathers(u, lam).tobytes()
        assert (hits > 0).any()


class TestOrderAndSliceIndependence:
    """The tentpole property: a fixed (seed, phase, rank) deviate is the same
    no matter how — or in what order — it is evaluated."""

    def test_scalar_view_equals_batch_element(self):
        model = NoiseModel(seed=42)
        durations = np.linspace(100.0, 5000.0, 32)
        phase = model.begin_phase()
        batch = model.compute_batch(durations, phase=phase)
        for rank in range(32):
            assert model.compute_keyed(phase, rank, durations[rank]) \
                == batch[rank]

    def test_reversed_evaluation_order(self):
        model = NoiseModel(seed=42)
        durations = np.linspace(100.0, 5000.0, 32)
        phase = 17
        forward = [model.compute_keyed(phase, r, durations[r])
                   for r in range(32)]
        backward = [model.compute_keyed(phase, r, durations[r])
                    for r in reversed(range(32))][::-1]
        assert forward == backward

    def test_batch_subrange_with_explicit_ranks(self):
        model = NoiseModel(seed=7)
        durations = np.linspace(100.0, 5000.0, 64)
        phase = 5
        full = model.compute_batch(durations, phase=phase)
        idx = np.array([63, 2, 31, 7], dtype=np.int64)
        part = model.compute_batch(durations[idx], ranks=idx, phase=phase)
        assert np.array_equal(part, full[idx])

    def test_communication_subrange_with_explicit_ranks(self):
        model = NoiseModel(seed=7)
        durations = np.linspace(10.0, 900.0, 64)
        phase = 6
        full = model.communication_batch(durations, phase=phase)
        idx = np.array([1, 60, 33], dtype=np.int64)
        part = model.communication_batch(durations[idx], ranks=idx, phase=phase)
        assert np.array_equal(part, full[idx])
        for rank in idx:
            assert model.communication_keyed(phase, int(rank),
                                             durations[rank]) == full[rank]

    def test_two_models_same_seed_agree_regardless_of_history(self):
        """No hidden stream: drawing other phases first changes nothing."""
        fresh = NoiseModel(seed=9)
        warm = NoiseModel(seed=9)
        for _ in range(50):  # burn through phases + draws on one model
            warm.compute(1000.0, rank=_ % 4)
        assert warm.compute_keyed(3, 2, 1000.0) \
            == fresh.compute_keyed(3, 2, 1000.0)

    def test_uniform_matches_noise_key(self):
        model = NoiseModel(seed=5)
        key = NoiseKey(seed=5, stream=STREAM_COMPUTE_JITTER, phase=2, rank=3)
        direct = keyed_uniform(5, STREAM_COMPUTE_JITTER, 2,
                               np.array([3], dtype=np.int64))[0]
        assert model.uniform(key) == direct


#: One rank, an odd count, the paper's p=8, four-phase blocks, and one rank
#: past the budget (a block is a single phase).
TAPE_RANK_COUNTS = (1, 3, 8, 1000, TAPE_DEVIATES + 1)

#: About two interrupts per millisecond of compute, so the interrupt stream
#: moves the served values as well as the three gaussian streams.
TAPE_OPTIONS = NoiseOptions(interruption_rate_per_ms=2.0)

TAPE_VIEWS = ("compute_batch", "compute_subset", "compute_keyed", "compute",
              "communication_batch", "communication_subset",
              "communication_keyed")


def _key_deviates(seed, stream, phase, ranks, gaussian=True):
    """The reference: each (seed, stream, phase, rank) key evaluated on its
    own by ``keyed_uniform`` (and ``ndtri`` for the gaussian streams)."""
    u = keyed_uniform(seed, stream, phase, np.asarray(ranks, dtype=np.int64))
    return ndtri(u) if gaussian else u


def _expected_compute(seed, phase, ranks, durations):
    opts = TAPE_OPTIONS
    z = _key_deviates(seed, STREAM_COMPUTE_JITTER, phase, ranks)
    u = _key_deviates(seed, STREAM_COMPUTE_INTERRUPT, phase, ranks,
                      gaussian=False)
    lam = opts.interruption_rate_per_ms * (durations / 1000.0)
    noisy = durations * np.maximum(1.0 + opts.compute_jitter_sigma * z, 0.0) \
        + poisson_from_uniform(u, lam) * opts.interruption_cost_us
    return np.where(durations > 0.0, noisy, durations)


def _expected_communication(seed, phase, ranks, durations):
    opts = TAPE_OPTIONS
    z1 = _key_deviates(seed, STREAM_COMM_JITTER, phase, ranks)
    z2 = _key_deviates(seed, STREAM_COMM_FLOOR, phase, ranks)
    noisy = np.maximum(
        durations * np.maximum(1.0 + opts.comm_jitter_sigma * z1, 0.0)
        + np.abs(opts.comm_jitter_floor_us * z2), 0.0)
    return np.where(durations > 0.0, noisy, durations)


class TestDeviateTape:
    """The model serves deviates from a per-run tape; both engines read it,
    so engine parity cannot catch a tape bug.  The oracle here is each
    deviate's ``NoiseKey`` evaluated directly."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**64 - 1),
           nprocs=st.sampled_from(TAPE_RANK_COUNTS),
           requests=st.lists(
               st.tuples(st.sampled_from(TAPE_VIEWS),
                         st.integers(0, 3),       # which block boundary
                         st.integers(-1, 1),      # which side of it
                         st.integers(0, 2**32 - 1)),
               min_size=1, max_size=10))
    def test_every_served_deviate_equals_its_key(self, seed, nprocs,
                                                  requests):
        model = NoiseModel(seed=seed, options=TAPE_OPTIONS)
        block = max(1, TAPE_DEVIATES // nprocs)
        claimed = 0                  # phases claimed by compute()
        for view, boundary, side, draw_seed in requests:
            rng = np.random.default_rng(draw_seed)
            durations = rng.uniform(50.0, 4000.0, nprocs)
            durations[rng.random(nprocs) < 0.1] = 0.0
            phase = max(boundary * block + side, 0)
            kind, _, how = view.partition("_")
            if how == "batch":
                ranks = np.arange(nprocs)
                served = getattr(model, f"{kind}_batch")(durations,
                                                         phase=phase)
            elif how == "subset":
                ranks = rng.permutation(nprocs)[:int(rng.integers(1, 7))]
                served = getattr(model, f"{kind}_batch")(
                    durations[ranks], ranks=ranks, phase=phase)
            elif how == "keyed":
                ranks = np.unique([0, nprocs - 1, rng.integers(nprocs)])
                served = [getattr(model, f"{kind}_keyed")(
                    phase, int(rank), durations[rank]) for rank in ranks]
            else:
                ranks = rng.integers(nprocs, size=1)
                served = [getattr(model, kind)(durations[ranks[0]],
                                               rank=int(ranks[0]))]
                phase, claimed = claimed, claimed + 1
            expected = _expected_compute if kind == "compute" \
                else _expected_communication
            assert np.array_equal(
                np.asarray(served, dtype=np.float64),
                expected(seed, phase, ranks, durations[ranks])), \
                (view, phase, nprocs)

    @pytest.mark.parametrize("nprocs,phases_per_block",
                             [(1, 4096), (8, 512), (1000, 4), (4096, 1),
                              (8192, 1)])
    def test_block_length_is_the_budget_over_the_rank_count(
            self, monkeypatch, nprocs, phases_per_block):
        calls = []
        original = noise_module.keyed_uniform

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(noise_module, "keyed_uniform", counted)
        model = NoiseModel(seed=3)
        durations = np.full(nprocs, 100.0)
        for phase in range(phases_per_block):
            model.compute_batch(durations, phase=phase)
        assert len(calls) == 1           # both streams, every phase, one pass
        model.compute_batch(durations, phase=phases_per_block)
        assert len(calls) == 2


class TestEmpiricalMagnitudes:
    """The realised noise must match what NoiseOptions advertises."""

    def test_compute_jitter_sigma(self):
        opts = NoiseOptions(compute_jitter_sigma=0.004,
                            interruption_rate_per_ms=0.0)
        model = NoiseModel(seed=1, options=opts)
        n = 200_000
        base = 1000.0
        out = model.compute_batch(np.full(n, base))
        rel = out / base - 1.0
        assert rel.std() == pytest.approx(0.004, rel=0.02)
        assert rel.mean() == pytest.approx(0.0, abs=0.0001)

    def test_interruption_rate(self):
        opts = NoiseOptions(compute_jitter_sigma=0.0,
                            interruption_rate_per_ms=0.002,
                            interruption_cost_us=120.0)
        model = NoiseModel(seed=2, options=opts)
        n = 500_000
        base = 10_000.0   # 10 ms -> lambda = 0.02 per element
        out = model.compute_batch(np.full(n, base))
        hits = (out - base) / 120.0
        assert np.allclose(hits, np.rint(hits))  # integral interruption count
        assert hits.mean() == pytest.approx(0.02, rel=0.05)

    def test_comm_jitter_sigma(self):
        opts = NoiseOptions(comm_jitter_sigma=0.01, comm_jitter_floor_us=0.0)
        model = NoiseModel(seed=3, options=opts)
        n = 200_000
        base = 5000.0
        out = model.communication_batch(np.full(n, base))
        rel = out / base - 1.0
        assert rel.std() == pytest.approx(0.01, rel=0.02)

    def test_comm_jitter_floor(self):
        opts = NoiseOptions(comm_jitter_sigma=0.0, comm_jitter_floor_us=1.5)
        model = NoiseModel(seed=3, options=opts)
        n = 200_000
        extra = model.communication_batch(np.full(n, 5000.0)) - 5000.0
        # additive floor is |N(0, 1.5)|: mean = 1.5 * sqrt(2/pi)
        assert np.all(extra >= 0.0)
        assert extra.mean() == pytest.approx(1.5 * np.sqrt(2.0 / np.pi),
                                             rel=0.02)


class TestBatchInputNormalisation:
    """Regression: np.fromiter(..., count=len(...)) crashed on inputs with
    no len() — 0-d arrays and generators."""

    def test_zero_d_array(self):
        model = NoiseModel(seed=1)
        out = model.compute_batch(np.float64(1000.0))
        assert out.shape == (1,)
        assert out[0] > 0.0

    def test_generator_input(self):
        model = NoiseModel(seed=1)
        out = model.compute_batch(float(v) for v in (100.0, 200.0, 300.0))
        assert out.shape == (3,)
        comm = model.communication_batch(float(v) for v in (10.0, 20.0))
        assert comm.shape == (2,)

    def test_input_array_is_not_mutated(self):
        model = NoiseModel(seed=1)
        src = np.full(8, 1234.5)
        model.compute_batch(src)
        assert np.all(src == 1234.5)


class TestNoiseOptionsValidation:
    @pytest.mark.parametrize("field,value", [
        ("compute_jitter_sgima", 0.01),     # typo'd field
        ("scheme", "counter"),
    ])
    def test_unknown_field_raises_type_error(self, field, value):
        with pytest.raises(TypeError):
            NoiseOptions(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("compute_jitter_sigma", -0.01),
        ("comm_jitter_floor_us", float("nan")),
        ("interruption_cost_us", float("inf")),
        ("timer_resolution_us", -1.0),
        ("interruption_rate_per_ms", None),
    ])
    def test_bad_magnitudes_raise(self, field, value):
        with pytest.raises(SimulationError, match=field):
            NoiseOptions(**{field: value})


class TestSequentialSchemeRemoval:
    def test_model_has_no_legacy_stream(self):
        assert not hasattr(NoiseModel(seed=1), "rng")

    def test_engines_agree_under_counter_scheme(self, laplace_compiled,
                                                machine4):
        noise = NoiseOptions()
        loop = simulate(laplace_compiled, machine4,
                        options=SimulatorOptions(engine="loop", noise=noise))
        vec = simulate(laplace_compiled, machine4,
                       options=SimulatorOptions(engine="vector", noise=noise))
        assert loop.per_rank_us == pytest.approx(vec.per_rank_us, abs=1e-9)
        assert loop.array_checksum == vec.array_checksum
