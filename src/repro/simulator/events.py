"""A small discrete-event core used by the network simulation.

Events are (time, sequence, callback) triples in a binary heap; ties are
broken by insertion order so simulations are fully deterministic.  The heap
(:meth:`EventQueue.schedule` + :meth:`EventQueue.run`) drives the network's
oracle drain, :meth:`repro.simulator.network.Network.transfer`.

:func:`batch_order` is the same dispatch order for a structure-of-arrays
phase (start times, sources, destinations): the heap-equivalent permutation,
for the array drain, which never materialises per-event callbacks at all.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)


class EventQueue:
    """Deterministic discrete-event queue."""

    def __init__(self) -> None:
        self._heap: list[_Event] = []
        self._seq = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run at absolute simulated time *time*."""
        if time < self.now:
            time = self.now
        heapq.heappush(self._heap, _Event(time=time, seq=self._seq, callback=callback))
        self._seq += 1

    def empty(self) -> bool:
        return not self._heap

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.now = event.time
        event.callback()
        self.processed += 1
        return True

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or *max_events* is hit). Returns events processed."""
        count = 0
        while self._heap:
            if max_events is not None and count >= max_events:
                break
            self.step()
            count += 1
        return count

    def reset(self) -> None:
        self._heap.clear()
        self._seq = 0
        self.now = 0.0
        self.processed = 0


def batch_order(start: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Dispatch order of a structure-of-arrays message batch.

    Returns the permutation that visits messages in ascending
    ``(start_time, src, dst)`` order with input order breaking exact ties —
    the order in which :meth:`~repro.simulator.network.Network.transfer`
    posts messages to the event heap.  When no two start times tie, the
    start times alone fix that order and numpy's unstable ``argsort`` finds
    it; otherwise (or on a NaN) one stable ``np.lexsort`` over all three
    keys does.  The array drain orders its serial stages with it.
    """
    order = np.argsort(start)
    ordered = start[order]
    if (ordered[1:] > ordered[:-1]).all():      # no ties (and no NaN)
        return order
    return np.lexsort((dst, src, start))
