"""Dynamic i860 node cost model used by the simulator executor.

The executor measures the *actual* work each rank performs (exact local
iteration counts, exact mask fractions, actual local block shapes) and asks
this model to turn one iteration's operation counts into time.  The model
shares the static operation counter with the interpreter — so the two agree on
the nominal work — but resolves the machine-dependent effects dynamically:

* cache behaviour is computed from the rank's actual working set and the
  access stride of the innermost loop,
* short loops pay a pipeline-startup penalty the static model ignores,
* masked bodies pay a branch-misprediction cost proportional to how "mixed"
  the mask actually is,
* writes beyond the write buffer depth stall.

These second-order effects are what produce realistic (non-zero, size- and
kernel-dependent) differences between interpreted and simulated times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..interpreter.expression_cost import OpCount
from ..system.machine import Machine


@dataclass
class IterationProfile:
    """Everything the dynamic model needs to time one loop-nest iteration."""

    count: OpCount
    precision: str = "real"
    element_size: int = 4
    local_elements: float = 1.0        # this rank's iteration count for the nest
    innermost_extent: float = 1.0      # extent of the innermost (stride-1) loop
    stride1: bool = True               # innermost loop walks axis 0 of the home array
    arrays_touched: int = 1
    mask_fraction: float | None = None # actual fraction of mask-true iterations


#: Up to this many rows, :func:`_distinct_rows` hashes python floats in a
#: dict; above it, sorting per column wins.  The dict costs about 0.3 µs a
#: row; sorting costs 20–100 µs, more for each column that varies, so a
#: single call breaks even near 50 rows when no column varies, 100 rows
#: when one does and 300 when two do.  The simulator's calls over the
#: suite on modern-cluster at p=64 and p=256 split about evenly among none,
#: one and two varying columns (never three), and over that mix the two
#: methods break even near 128 rows: at p=64 the dict takes 4.0 ms over the
#: 158 calls and sorting 6.1 ms, at p=256 about 14 and 8 ms (2-vCPU x86-64
#: VM).
_HASHED_ROWS = 128


def _distinct_rows(columns: tuple[np.ndarray, ...],
                   ) -> tuple[list[tuple[float, ...]], np.ndarray | list[int]]:
    """The distinct rows of equal-length *columns*, in python floats, and
    each row's index into them.

    Rows are equal when every column compares equal, as python floats do in
    a dict key and as ``np.unique`` sorts them.  Large row counts code each
    column that is not constant with ``np.unique``, and one more
    ``np.unique`` folds each further varying column into the codes so far,
    which keeps them below the row count.  Any member of a group can stand
    for it, because equal rows cost the same.
    """
    n = columns[0].shape[0]
    if n <= _HASHED_ROWS:
        slots: dict[tuple[float, ...], int] = {}
        inverse = [slots.setdefault(row, len(slots))
                   for row in zip(*(column.tolist() for column in columns))]
        return list(slots), inverse
    codes = None
    for column in columns:
        if (column != column[0]).any():
            values, index = np.unique(column, return_inverse=True)
            codes = index if codes is None else np.unique(
                codes * values.shape[0] + index, return_inverse=True)[1]
    if codes is None:                   # every row equals the first
        codes = np.zeros(n, dtype=np.intp)
    members = np.empty(int(codes.max()) + 1, dtype=np.int64)
    members[codes] = np.arange(n)
    return list(zip(*(column[members].tolist() for column in columns))), \
        codes


class NodeCostModel:
    """Turns measured per-iteration operation counts into i860 node time."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.proc = machine.processing
        self.memory = machine.memory

    # ------------------------------------------------------------------
    # cache model (dynamic)
    # ------------------------------------------------------------------

    def hit_ratio(self, profile: IterationProfile) -> float:
        memory = self.memory
        working_set = (
            max(profile.local_elements, 1.0)
            * max(profile.arrays_touched, 1)
            * profile.element_size
        )
        cache = memory.dcache_bytes
        if working_set <= cache * 0.9:
            # Fits with room to spare: essentially warm after the first sweep.
            return 0.985
        if profile.stride1:
            miss = profile.element_size / memory.cache_line_bytes
        else:
            miss = 0.85  # strided/column access touches a new line nearly every time
        # conflict misses in the small direct-mapped D-cache
        miss *= 1.0 + 0.10 * max(profile.arrays_touched - 1, 0)
        # partial reuse of whatever still fits
        resident = min(1.0, cache / working_set)
        miss *= 1.0 - 0.45 * resident
        return max(0.0, 1.0 - min(miss, 1.0))

    # ------------------------------------------------------------------
    # per-iteration and per-nest times
    # ------------------------------------------------------------------

    def iteration_time(self, profile: IterationProfile) -> float:
        proc = self.proc
        memory = self.memory
        count = profile.count
        hit = self.hit_ratio(profile)
        flop_time = proc.flop_time(profile.precision)

        time = (
            count.flops * flop_time
            + count.divides * proc.divide_time
            + count.int_ops * proc.int_op_time
            + count.compares * proc.branch_time
            + count.logicals * proc.int_op_time
            + count.calls * proc.call_overhead
            + count.scalar_refs * memory.hit_time
            + count.memory_accesses * memory.access_time(hit)
            + count.mem_writes * memory.write_through_penalty
            + proc.assignment_overhead
            + proc.loop_iteration_overhead
        )

        # pipeline startup for short innermost loops (the i860 dual-instruction
        # mode only pays off once the loop is a few iterations long)
        if profile.innermost_extent < 8.0:
            time += 0.6 * (8.0 - max(profile.innermost_extent, 1.0)) / 8.0

        # branch misprediction penalty for "mixed" masks
        if profile.mask_fraction is not None:
            mixedness = 4.0 * profile.mask_fraction * (1.0 - profile.mask_fraction)
            time += mixedness * 2.0 * self.proc.branch_time

        return time

    def loop_nest_time(self, profile: IterationProfile, depth: int = 1) -> float:
        """Total time of one rank's share of a loop nest."""
        iterations = max(profile.local_elements, 0.0)
        startup = depth * self.proc.loop_startup_overhead
        if iterations <= 0:
            return startup
        per_iter = self.iteration_time(profile)
        if profile.mask_fraction is not None:
            # the assignment part only happens on mask-true iterations; the model
            # approximates the split as proportional to the flop share
            assign_share = 0.65
            per_iter = per_iter * (1.0 - assign_share) + \
                per_iter * assign_share * max(profile.mask_fraction, 0.0)
            per_iter += self.proc.conditional_overhead
        return startup + iterations * per_iter

    def loop_nest_times(self, profile: IterationProfile, depth: int,
                        local_elements: np.ndarray,
                        innermost_extents: np.ndarray,
                        mask_fractions: np.ndarray | None = None) -> np.ndarray:
        """Per-rank loop-nest times for rank-varying profile fields, in bulk.

        *profile* carries the rank-invariant fields (operation counts,
        precision, stride); ``local_elements`` / ``innermost_extents`` /
        ``mask_fractions`` carry the per-rank values (a negative mask
        fraction encodes "no mask").  Block and cyclic layouts give only a
        handful of distinct per-rank triples at any ``p``, so the model is
        evaluated once per distinct triple through the scalar
        :meth:`loop_nest_time` — the batch result is therefore bit-identical
        to a per-rank loop, at O(distinct) instead of O(p) model cost.
        :func:`_distinct_rows` finds the triples.
        """
        n = len(local_elements)
        columns = (np.asarray(local_elements, dtype=np.float64),
                   np.asarray(innermost_extents, dtype=np.float64),
                   np.full(n, -1.0) if mask_fractions is None
                   else np.asarray(mask_fractions, dtype=np.float64))
        rows, inverse = _distinct_rows(columns)
        times = np.array([
            self.loop_nest_time(replace(
                profile,
                local_elements=n_elements,
                innermost_extent=n_inner,
                mask_fraction=None if fraction < 0.0 else fraction,
            ), depth=depth)
            for n_elements, n_inner, fraction in rows
        ], dtype=np.float64)
        return times[inverse]

    # ------------------------------------------------------------------
    # scalar statements
    # ------------------------------------------------------------------

    def scalar_statement_time(self, count: OpCount) -> float:
        proc = self.proc
        memory = self.memory
        return (
            count.flops * proc.flop_time_sp
            + count.divides * proc.divide_time
            + count.int_ops * proc.int_op_time
            + count.compares * proc.branch_time
            + count.logicals * proc.int_op_time
            + count.calls * proc.call_overhead
            + count.scalar_refs * memory.hit_time
            + count.memory_accesses * memory.access_time(0.97)
            + proc.assignment_overhead
        )
