"""Computation/communication overlap model.

§3.3 lists overlap between computation and communication among the modelled
effects.  On the iPSC/860 the Direct-Connect hardware can progress a message
while the node computes, but the generated loosely-synchronous code only
overlaps the *posting* of receives with the tail of the preceding computation
phase.  We model this as a fraction of the communication phase that can hide
under the computation phase adjacent to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import Metrics

MAX_HIDDEN_US = 5000.0    # hardware can only buffer so much


@dataclass
class OverlapOptions:
    """User-visible overlap model knobs."""

    enabled: bool = False
    fraction: float = 0.25        # fraction of comm that may hide under adjacent comp


def apply_overlap(
    comm_metrics: Metrics,
    adjacent_computation_us: float,
    options: OverlapOptions,
) -> Metrics:
    """Reduce the communication time of a phase by the amount hidden under
    the adjacent computation phase."""
    if not options.enabled or comm_metrics.communication <= 0.0:
        return comm_metrics
    hideable = min(
        comm_metrics.communication * options.fraction,
        adjacent_computation_us,
        MAX_HIDDEN_US,
    )
    adjusted = comm_metrics.copy()
    adjusted.communication = max(comm_metrics.communication - hideable, 0.0)
    return adjusted
