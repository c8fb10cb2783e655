"""Static memory-hierarchy model used by the interpretation functions.

§3.3: *"Models and heuristics are defined to handle accesses to the memory
hierarchy ..."*.  The interpreter cannot observe actual access streams, so it
estimates a cache hit ratio from

* the per-processor working set of the loop nest (local block sizes of every
  array it touches) relative to the data-cache capacity, and
* whether the innermost loop runs stride-1 through memory (the compiler's
  loop-reordering optimisation guarantees this when enabled).

The simulator's node model computes the analogous quantity from the *actual*
local shapes and reference strides, so the two disagree slightly on
cache behaviour — one of the realistic sources of prediction error.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..system.sau import MemoryComponent

IN_CACHE_HIT_RATIO = 0.97    # working set fits in D-cache
REUSE_BONUS = 0.5            # fraction of capacity misses avoided by reuse


@dataclass
class MemoryModelOptions:
    """Knobs for the static cache model (exposed for ablation studies)."""

    enabled: bool = True
    default_hit_ratio: float = 0.92       # used when the model is disabled


def streaming_miss_ratio(element_size: int, memory: MemoryComponent, stride1: bool) -> float:
    """Miss ratio of a streaming pass over data that does not fit in cache."""
    if not stride1:
        return 1.0
    return min(1.0, element_size / float(memory.cache_line_bytes))


def estimate_hit_ratio(
    memory: MemoryComponent,
    working_set_bytes: float,
    element_size: int,
    *,
    stride1: bool = True,
    arrays_touched: int = 1,
    options: MemoryModelOptions | None = None,
) -> float:
    """Estimate the data-cache hit ratio of one loop nest.

    ``working_set_bytes`` is the total number of bytes of distributed-array
    data the loop touches per processor, ``arrays_touched`` how many distinct
    arrays participate (more arrays → more conflict misses in a small
    direct-mapped cache like the i860's).
    """
    options = options or MemoryModelOptions()
    if not options.enabled:
        return options.default_hit_ratio

    cache_bytes = memory.dcache_bytes
    if cache_bytes <= 0:
        return 0.0
    if working_set_bytes <= cache_bytes:
        # fits: only compulsory misses on the first pass, amortised away
        return IN_CACHE_HIT_RATIO

    miss = streaming_miss_ratio(element_size, memory, stride1)
    # conflict misses grow mildly with the number of competing arrays
    conflict_factor = 1.0 + 0.08 * max(arrays_touched - 1, 0)
    miss = min(1.0, miss * conflict_factor)
    # partial reuse: the fraction of the working set that still fits gets hits
    resident_fraction = min(1.0, cache_bytes / working_set_bytes)
    miss = miss * (1.0 - REUSE_BONUS * resident_fraction)
    return max(0.0, 1.0 - miss)


def working_set_bytes(
    local_elements: float, arrays_touched: int, element_size: int
) -> float:
    """Approximate per-processor working set of a loop nest."""
    return max(local_elements, 0.0) * max(arrays_touched, 1) * element_size
