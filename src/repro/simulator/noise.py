"""System-load and timing noise model.

§5.1 observes that the interpreted performance "typically lies within the
variance of the measured times", attributing residual error to the tolerance
of the timing routines and fluctuations in system load.  The simulator
reproduces those effects with a seeded, deterministic noise model:

* compute phases get a small multiplicative jitter (clock drift, OS daemons),
* long compute phases occasionally absorb a fixed-size interruption,
* message timings get a small additive + multiplicative jitter,
* reported totals are quantised to the measurement clock's resolution.

Deviates are generated by the **counter scheme**: every deviate is a pure
function of a :class:`NoiseKey` — ``(seed, stream, phase, rank, draw)`` —
evaluated through a counter-based bit mixer (a splitmix64 chain, the
explicit-counter equivalent of keying a ``Philox`` generator per draw).  No
draw consumes a shared stream, so there is **no ordering dependency between
ranks**: any slice of the noise tensor — all ranks of a compute phase, one
rank of one phase, a participant subset of a communication phase —
materialises to the same values in one vectorised call.  This is what lets
the vector engine batch every draw while the loop oracle evaluates the
identical deviates rank by rank, bit for bit.

:class:`NoiseModel` serves every deviate from a per-run **tape**.  One
:func:`keyed_uniform` pass draws both streams of a pair (compute jitter +
interrupt, or comm jitter + floor) for a block of consecutive phases × every
rank, and :func:`ndtri` runs once over the block; each batch, participant
subset and scalar view then reads its phase's row by rank.  A block is
``max(1, TAPE_DEVIATES // width)`` phases of *width* ranks: 512 phases at
p=8, a single phase from p=4096 up, so large partitions draw nothing they
do not use.  The tape is bit-identical to evaluating each key on its own:
``keyed_uniform`` is a pure function of the key whatever the array shape
around it, and ``ndtri`` is elementwise.  ``keyed_uniform`` of a
:class:`NoiseKey` stays the reference every served deviate must equal.

The legacy ``"sequential"`` scheme (one shared ``numpy`` Generator,
interleaved per rank — the reason the old engine could not batch) was kept
for one release after the counter engine landed and removed in repro 1.1.0.
The measured drift between the two realisations is archived in
``benchmarks/results/STORE_DIFF_noise_engine.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from ..frontend.errors import SimulationError

#: Stream ids (domain separators) of the counter scheme's draw kinds.
STREAM_COMPUTE_JITTER = 1
STREAM_COMPUTE_INTERRUPT = 2
STREAM_COMM_JITTER = 3
STREAM_COMM_FLOOR = 4

#: Deviates per stream in one tape block: a block covers
#: ``max(1, TAPE_DEVIATES // width)`` consecutive phases of *width* ranks.
TAPE_DEVIATES = 4096

#: The stream pairs the tape draws together, one pass per pair.
_COMPUTE_PAIR = (STREAM_COMPUTE_JITTER, STREAM_COMPUTE_INTERRUPT)
_COMM_PAIR = (STREAM_COMM_JITTER, STREAM_COMM_FLOOR)

#: Fields of :class:`NoiseOptions` that must be finite and non-negative.
_MAGNITUDE_FIELDS = (
    "compute_jitter_sigma",
    "comm_jitter_sigma",
    "comm_jitter_floor_us",
    "interruption_rate_per_ms",
    "interruption_cost_us",
    "timer_resolution_us",
)


@dataclass
class NoiseOptions:
    """Magnitudes of the individual noise sources (all dimensionless or µs).

    Validation is eager — a negative/non-finite magnitude fails where the
    options are written, mirroring ``SimulatorOptions.engine``; an unknown
    *field* fails in the dataclass constructor itself (``TypeError``).
    """

    enabled: bool = True
    compute_jitter_sigma: float = 0.004       # relative sigma on compute phases
    comm_jitter_sigma: float = 0.01           # relative sigma on message times
    comm_jitter_floor_us: float = 1.5         # additive per-operation jitter
    interruption_rate_per_ms: float = 0.002   # OS daemon interruptions
    interruption_cost_us: float = 120.0
    timer_resolution_us: float = 1.0

    def __post_init__(self) -> None:
        for name in _MAGNITUDE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not isfinite(value) or value < 0:
                raise SimulationError(
                    f"NoiseOptions.{name} must be a finite non-negative "
                    f"number, got {value!r}")


@dataclass(frozen=True)
class NoiseKey:
    """The coordinate of one counter-scheme deviate.

    ``stream`` separates draw kinds (:data:`STREAM_COMPUTE_JITTER` etc.),
    ``phase`` is the simulation's noise-phase index (one per noise
    application site, advanced identically by both engines), ``rank`` the
    simulated processor and ``draw`` a per-(stream, phase, rank) sub-index
    for sites that need several deviates of one kind.
    """

    seed: int
    stream: int
    phase: int
    rank: int
    draw: int = 0


# ---------------------------------------------------------------------------
# counter-based keyed deviates
# ---------------------------------------------------------------------------
#
# The bit mixer is a splitmix64 absorption chain: h <- mix(h ^ word) for each
# key word.  splitmix64's finaliser has full avalanche, so distinct keys give
# statistically independent 64-bit outputs — the same construction numpy's
# ``Philox(key=..., counter=...)`` provides, but evaluable for a whole rank
# array in a handful of vectorised uint64 operations (constructing one Philox
# generator per (phase, rank) key would cost more than the draws themselves).

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
_SH_30 = _U64(30)
_SH_27 = _U64(27)
_SH_31 = _U64(31)
_SH_11 = _U64(11)
_INV_2POW53 = np.float64(2.0 ** -53)
_BELOW_ONE = np.nextafter(1.0, 0.0)
_MASK_64 = (1 << 64) - 1


def _splitmix64(x):
    """splitmix64 finaliser over a uint64 scalar or array (wrapping ops)."""
    x = x + _GOLDEN
    x = (x ^ (x >> _SH_30)) * _MIX_1
    x = (x ^ (x >> _SH_27)) * _MIX_2
    return x ^ (x >> _SH_31)


def keyed_uniform(seed: int, stream: int, phase: int, ranks: np.ndarray,
                  draw: int = 0) -> np.ndarray:
    """Uniform(0, 1) deviates of the keys ``(seed, stream, phase, ranks[i],
    draw)`` — the counter scheme's ``NoiseKey`` → deviate mapping.

    Pure function of the key: evaluation order, batch composition and array
    slicing cannot change any element's value.  *stream* and *phase* may
    also be ``uint64`` arrays that broadcast against *ranks* (the noise
    tape draws streams × phases × ranks in one call).  Output is in the
    open interval (0, 1), safe for inverse-CDF transforms.
    """
    with np.errstate(over="ignore"):      # uint64 wrap is the point
        h = _splitmix64(_U64(seed & _MASK_64) ^ _U64(stream & _MASK_64))
        h = _splitmix64(h ^ _U64(phase & _MASK_64))
        h = _splitmix64(h ^ np.asarray(ranks).astype(_U64))
        h = _splitmix64(h ^ _U64(draw & _MASK_64))
    u = ((h >> _SH_11).astype(np.float64) + 0.5) * _INV_2POW53
    # the top value, (2**53 - 1) + 0.5, rounds to 2**53 and so u to 1.0; no
    # other value reaches 1 - 2**-53, so this moves that one deviate only
    return np.minimum(u, _BELOW_ONE, out=u)


# Acklam's rational approximation to the inverse normal CDF (relative error
# < 1.15e-9 over (0, 1)).  Purely elementwise arithmetic + log/sqrt, so the
# scalar view and any batch slice produce bit-identical values.
_NDTRI_A = (-3.969683028665376e+01, 2.209460984245205e+02,
            -2.759285104469687e+02, 1.383577518672690e+02,
            -3.066479806614716e+01, 2.506628277459239e+00)
_NDTRI_B = (-5.447609879822406e+01, 1.615858368580409e+02,
            -1.556989798598866e+02, 6.680131188771972e+01,
            -1.328068155288572e+01)
_NDTRI_C = (-7.784894002430293e-03, -3.223964580411365e-01,
            -2.400758277161838e+00, -2.549732539343734e+00,
            4.374664141464968e+00, 2.938163982698783e+00)
_NDTRI_D = (7.784695709041462e-03, 3.224671290700398e-01,
            2.445134137142996e+00, 3.754408661907416e+00)
_NDTRI_P_LOW = 0.02425
_NDTRI_P_HIGH = 1.0 - _NDTRI_P_LOW


def _ndtri_tail(q: np.ndarray) -> np.ndarray:
    c, d = _NDTRI_C, _NDTRI_D
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    return num / den


def ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF (Acklam), vectorised and deterministic.

    The central rational function runs in place over the whole block, and
    the tail elements (about 5%) are then overwritten by index, so only
    they are gathered: every element still sees exactly the elementwise
    operations of its own branch, in the same order.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.reshape(-1)
    a, b = _NDTRI_A, _NDTRI_B
    q = flat - 0.5
    r = q * q
    num = a[0] * r
    for coeff in a[1:5]:
        num += coeff
        num *= r
    num += a[5]
    num *= q
    den = b[0] * r
    for coeff in b[1:]:
        den += coeff
        den *= r
    den += 1.0
    out = np.divide(num, den, out=num)
    lower = np.flatnonzero(flat < _NDTRI_P_LOW)
    if lower.size:
        out[lower] = _ndtri_tail(np.sqrt(-2.0 * np.log(flat[lower])))
    upper = np.flatnonzero(flat > _NDTRI_P_HIGH)
    if upper.size:
        out[upper] = -_ndtri_tail(np.sqrt(-2.0 * np.log(1.0 - flat[upper])))
    return out.reshape(u.shape)


#: Above this rate the single-uniform Poisson inversion switches to the
#: (rounded, clamped) normal approximation — only reachable for multi-second
#: single phases; the inversion loop's step cap backstops float-rounding
#: stragglers near u -> 1.
_POISSON_NORMAL_APPROX_LAMBDA = 32.0
_POISSON_MAX_STEPS = 1100


def poisson_from_uniform(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Poisson(lam) deviates by CDF inversion of **one** uniform per element.

    Classic sequential search: the deviate is the smallest k with
    ``CDF(k) >= u``.  Exactly one keyed uniform per element — unlike
    rejection samplers, the construction has a fixed draw count, which is
    what keeps counter-scheme draws independent across ranks.  Elementwise
    recurrences only, so batch slicing cannot change any element.
    """
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    large = lam > _POISSON_NORMAL_APPROX_LAMBDA
    if not large.any():                 # the usual case: no gather at all
        return _poisson_inversion(u, lam)
    hits = np.zeros(lam.shape, dtype=np.float64)
    z = ndtri(u[large])
    hits[large] = np.maximum(
        np.rint(lam[large] + np.sqrt(lam[large]) * z), 0.0)
    small = ~large
    if small.any():
        hits[small] = _poisson_inversion(u[small], lam[small])
    return hits


def _poisson_inversion(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """:func:`poisson_from_uniform`'s sequential CDF search, elementwise."""
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    count = np.zeros_like(lam)
    k = 0
    pending = u > cdf
    while pending.any() and k < _POISSON_MAX_STEPS:
        k += 1
        pmf = pmf * (lam / k)
        cdf = cdf + pmf
        count[pending] = k
        pending = u > cdf
    return count


def _as_batch(durations_us) -> np.ndarray:
    """Normalise any duration input — ndarray (any dims), list, tuple,
    generator, scalar — to a fresh 1-D float64 array.

    ``np.fromiter(..., count=len(...))`` used to crash on 0-d arrays and
    generators (no ``len``); everything now funnels through ``np.asarray``
    (iterables are listed first, since ``asarray`` cannot size a generator).
    """
    if not isinstance(durations_us, (np.ndarray, list, tuple)) \
            and hasattr(durations_us, "__iter__"):
        durations_us = list(durations_us)
    return np.atleast_1d(np.asarray(durations_us, dtype=np.float64)).copy()


@dataclass(frozen=True)
class _TapeBlock:
    """One stream pair's deviates for phases ``start <= phase < stop`` of
    ranks ``0 .. width-1``, as ``(phase - start, rank)`` rows."""

    start: int
    stop: int
    width: int
    first: np.ndarray
    second: np.ndarray


class NoiseModel:
    """Deterministic, seeded noise generator.

    The **phase counter** is the model's only state that matters:
    :meth:`begin_phase` advances it once per noise application site (a
    compute charge, a communication completion), and both simulator engines
    traverse the same sites in the same order, so their phase sequences —
    and therefore every keyed deviate — coincide exactly.  Draws themselves
    are pure functions of :class:`NoiseKey`; nothing is consumed.

    Deviates come off the tape (see the module docstring): one block per
    stream pair, redrawn when a phase leaves it or a rank lies beyond its
    width.  A block never narrows, and grows to at least twice its width,
    so rank-by-rank scalar calls redraw O(log p) times, not O(p).
    """

    def __init__(self, seed: int = 0, options: NoiseOptions | None = None):
        self.options = options or NoiseOptions()
        self.seed = int(seed)
        self._phase = 0
        # stream pair -> its current block.  Every element is keyed by its
        # (phase, rank) *value*, so a block can be redrawn wider or for other
        # phases at any time without changing a single deviate.
        self._tape: dict[tuple[int, int], _TapeBlock] = {}

    # ------------------------------------------------------------------
    # phase bookkeeping
    # ------------------------------------------------------------------

    def begin_phase(self) -> int:
        """Claim the next noise-phase index (one per application site)."""
        phase = self._phase
        self._phase += 1
        return phase

    def uniform(self, key: NoiseKey) -> float:
        """The uniform deviate of one :class:`NoiseKey`."""
        return float(keyed_uniform(key.seed, key.stream, key.phase,
                                   np.array([key.rank], dtype=np.int64),
                                   key.draw)[0])

    # ------------------------------------------------------------------
    # the deviate tape
    # ------------------------------------------------------------------

    def _tape_rows(self, pair: tuple[int, int], phase: int,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
        """Both streams' deviates of *pair* at *phase*, for ranks ``< width``
        at least (the rows may be wider)."""
        block = self._tape.get(pair)
        if block is None or width > block.width \
                or not block.start <= phase < block.stop:
            if block is not None:
                width = block.width if width <= block.width \
                    else max(width, 2 * block.width)
            block = self._tape[pair] = self._draw_block(pair, phase, width)
        row = phase - block.start
        return block.first[row], block.second[row]

    def _draw_block(self, pair: tuple[int, int], phase: int,
                    width: int) -> _TapeBlock:
        """Draw the block of *width* ranks holding *phase*: one keyed pass
        over both streams and one ``ndtri`` over the gaussian ones."""
        length = max(1, TAPE_DEVIATES // width)
        start = phase - phase % length
        u = keyed_uniform(self.seed,
                          np.array(pair, dtype=np.uint64)[:, None, None],
                          np.arange(start, start + length,
                                    dtype=np.uint64)[:, None],
                          np.arange(width, dtype=np.int64))
        if pair == _COMM_PAIR:
            first, second = ndtri(u)
        else:       # the interrupt stream stays uniform (Poisson inversion)
            first, second = ndtri(u[0]), u[1]
        return _TapeBlock(start, start + length, width, first, second)

    def _batch_rows(self, pair: tuple[int, int], phase: int, n: int,
                    ranks) -> tuple[np.ndarray, np.ndarray]:
        """*pair*'s deviates for a batch of *n* elements at *phase*: element
        i belongs to rank ``ranks[i]`` (default ``i``)."""
        if ranks is None:
            first, second = self._tape_rows(pair, phase, n)
            return first[:n], second[:n]
        ranks = np.asarray(ranks, dtype=np.int64)
        first, second = self._tape_rows(pair, phase, int(ranks.max()) + 1)
        return first[ranks], second[ranks]

    def _poisson_scalar(self, u, lam: float) -> float:
        """Scalar view of :func:`poisson_from_uniform` — same recurrence in
        python floats (IEEE-identical to the elementwise array ops), with the
        single ``exp`` kept on a size-1 array so it matches numpy's
        vectorised ``exp`` bit for bit."""
        if lam > _POISSON_NORMAL_APPROX_LAMBDA:
            return float(poisson_from_uniform(np.array([u]),
                                              np.array([lam]))[0])
        pmf = float(np.exp(np.array([-lam]))[0])
        cdf = pmf
        k = 0
        while u > cdf and k < _POISSON_MAX_STEPS:
            k += 1
            pmf = pmf * (lam / k)
            cdf = cdf + pmf
        return float(k)

    # ------------------------------------------------------------------
    # compute-phase noise
    # ------------------------------------------------------------------

    def compute(self, duration_us: float, rank: int = 0) -> float:
        """Return *duration_us* perturbed by system-load noise — a fresh
        one-draw phase keyed on *rank*."""
        return self.compute_keyed(self.begin_phase(), rank, duration_us)

    def compute_keyed(self, phase: int, rank: int, duration_us: float) -> float:
        """Scalar view of one compute-phase deviate: bit-identical to element
        *rank* of :meth:`compute_batch` over the same *phase*."""
        opts = self.options
        if not opts.enabled or duration_us <= 0.0:
            return duration_us
        z, u = self._tape_rows(_COMPUTE_PAIR, phase, rank + 1)
        perturbed = duration_us * max(1.0 + opts.compute_jitter_sigma * z[rank],
                                      0.0)
        if opts.interruption_rate_per_ms > 0.0:
            lam = opts.interruption_rate_per_ms * (duration_us / 1000.0)
            perturbed = perturbed + \
                self._poisson_scalar(u[rank], lam) * opts.interruption_cost_us
        return float(perturbed)

    def compute_batch(self, durations_us, ranks: np.ndarray | None = None,
                      phase: int | None = None) -> np.ndarray:
        """Per-element :meth:`compute` noise over a per-rank duration array.

        The primary path: one tape row serves the whole phase, keyed per
        rank — element i uses rank ``ranks[i]`` (default ``i``), so any
        slice of the phase materialises identically.  Non-positive durations
        pass through unchanged.
        """
        durations = _as_batch(durations_us)
        if phase is None:
            phase = self.begin_phase()
        opts = self.options
        if not opts.enabled or not durations.size:
            return durations
        z, u = self._batch_rows(_COMPUTE_PAIR, phase, durations.shape[0],
                                ranks)
        perturbed = durations * np.maximum(1.0 + opts.compute_jitter_sigma * z,
                                           0.0)
        if opts.interruption_rate_per_ms > 0.0:
            lam = opts.interruption_rate_per_ms * (durations / 1000.0)
            perturbed = perturbed + \
                poisson_from_uniform(u, lam) * opts.interruption_cost_us
        return np.where(durations > 0.0, perturbed, durations)

    # ------------------------------------------------------------------
    # communication noise
    # ------------------------------------------------------------------

    def communication_keyed(self, phase: int, rank: int,
                            duration_us: float) -> float:
        """Scalar view of one communication deviate (see :meth:`compute_keyed`)."""
        opts = self.options
        if not opts.enabled or duration_us <= 0.0:
            return duration_us
        z1, z2 = self._tape_rows(_COMM_PAIR, phase, rank + 1)
        jitter = 1.0 + opts.comm_jitter_sigma * z1[rank]
        floor = abs(opts.comm_jitter_floor_us * z2[rank])
        return float(max(duration_us * max(jitter, 0.0) + floor, 0.0))

    def communication_batch(self, durations_us,
                            ranks: np.ndarray | None = None,
                            phase: int | None = None) -> np.ndarray:
        """Per-element communication noise over a per-rank duration array.

        Two deviates per element (jitter and floor streams) from one tape
        row, keyed by ``ranks[i]`` so a participant subset of a phase draws
        exactly what the full phase would.
        """
        durations = _as_batch(durations_us)
        if phase is None:
            phase = self.begin_phase()
        opts = self.options
        if not opts.enabled or not durations.size:
            return durations
        z1, z2 = self._batch_rows(_COMM_PAIR, phase, durations.shape[0], ranks)
        jitter = 1.0 + opts.comm_jitter_sigma * z1
        floor = np.abs(opts.comm_jitter_floor_us * z2)
        noisy = np.maximum(durations * np.maximum(jitter, 0.0) + floor, 0.0)
        return np.where(durations > 0.0, noisy, durations)

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------

    def quantise(self, total_us: float) -> float:
        res = self.options.timer_resolution_us
        if not self.options.enabled or res <= 0:
            return total_us
        return round(total_us / res) * res
