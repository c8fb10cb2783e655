"""The ``vector`` execution engine: per-rank state computed in bulk.

:class:`VectorSPMDExecutor` is the scaled counterpart of the per-rank-loop
:class:`~repro.simulator.executor.SPMDExecutor` (the ``loop`` oracle).  It
inherits all control flow — SPMD node dispatch, the data plane, charging,
which communication spec runs which collective with its byte counts and
``comm_stats`` — and overrides only the kernel hooks behind it:

* **iteration counting** — instead of one ``np.isin`` membership test per
  rank per loop dimension, each dimension's loop values are mapped to their
  owning processor coordinate once (:meth:`AxisMapping.owners_of`) and
  per-rank counts fall out of a ``bincount`` + gather, so the work is
  O(values) instead of O(p × values);
* **mask fractions** — the forall mask is contracted against per-dimension
  one-hot ownership indicators (integer ``tensordot``), producing the
  mask-true count of every rank's sub-block in one pass;
* **compute-time accrual** — the node cost model is evaluated once per
  *distinct* per-rank profile (:meth:`NodeCostModel.loop_nest_times`; block
  and cyclic layouts admit only a handful of distinct local shapes at any
  ``p``) and broadcast back, with system-load noise for the whole phase
  read as one row of the noise model's deviate tape
  (:meth:`NoiseModel.compute_batch`; each deviate is a pure function of
  ``(seed, stream, phase, rank)``, and the tape draws a block of phases ×
  ranks in one pass, so the row equals the loop engine's scalar draws bit
  for bit);
* **boundary exchanges** (:meth:`~VectorSPMDExecutor._shift_exchange`) —
  shift partners and boundary-slab sizes come from vectorised grid
  coordinate arithmetic and per-axis local-count tables;
* **collective completion** (:meth:`~VectorSPMDExecutor._shift_exchange`,
  :meth:`~VectorSPMDExecutor._collective`) — per-rank clocks stay an
  ``np.ndarray`` across whole communication phases: shifts, broadcasts,
  reductions and gathers run through the array-clock kernels of
  :mod:`repro.simulator.collectives` (``*_clocks``), communication noise
  for the whole phase is one tape row
  (:meth:`NoiseModel.communication_batch`), and clock advancement is a
  single vectorised maximum — no per-rank dict is built anywhere between
  phase entry and exit;
* **network draining** — each collective stage reaches the executor's
  :class:`~repro.simulator.network.Network` as a structure-of-arrays batch
  with the :class:`~repro.simulator.network.StageRoute` its plan built
  once (:meth:`Network.drain_stage`): link-disjoint stages (shift
  exchanges, crossbar stages, spread fat-tree channels) and pair-exchange
  stages (recursive doubling) are priced by one vectorised expression
  each, and stages whose links or NICs genuinely collide are drained level
  by level with array expressions;
* **per-trip reuse** — a loop nest, reduction or boundary shift inside a DO
  loop usually repeats its trip unchanged, so each keeps one entry per SPMD
  node (per comm spec for shifts): the trip's *signature* and the per-rank
  result it produced before noise, or for a shift its routed stage (see
  :meth:`VectorSPMDExecutor._per_trip`).
  A trip whose signature matches reuses the stored, read-only array and
  draws only its noise, which is keyed on the phase and so must be fresh.

Every override is arithmetically identical to the loop engine's scalar code
(integer counting, same expression order, same noise-phase sequence of
counter-keyed per-rank deviates), so the two engines agree on every per-rank
time bit-for-bit; the tier-1 property tests pin this across the whole
machine registry and all topology kinds.

Both engines report their phase timings through :mod:`repro.obs` spans —
``node_cost`` (cost-model sweeps), ``noise`` (deviate tape reads) and
``network`` (collective clock drains) — which is what the profiling script's
``--phase-breakdown`` and every run manifest's ``engine_shares`` read.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..compiler.spmd import LocalLoopNest, ReductionNode, SPMDNode
from ..distribution import ArrayDistribution
from ..interpreter.expression_cost import OpCount
from .collectives import (
    allreduce_clocks,
    broadcast_clocks,
    shift_exchange_clocks,
    unstructured_gather_clocks,
)
from .executor import SPMDExecutor
from .network import StageRoute
from .node import IterationProfile


class VectorSPMDExecutor(SPMDExecutor):
    """Array-based execution core (``SimulatorOptions(engine="vector")``)."""

    engine_name = "vector"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # id(spmd node or comm spec) -> (signature, result) of its last trip
        self._trips: dict[int, tuple[tuple, object]] = {}

    def _per_trip(self, key: int, signature: tuple, compute):
        """``compute()``, or the result stored under *key* when the last
        trip stored there had the same *signature*.

        The signature holds everything dynamic that the result depends on;
        the node itself (its distribution, op counts, precision) is static,
        hence the key.  Results are frozen read-only because reuse shares
        them.  The loop engine has no such cache: it stays an independent
        computation for the parity tests to compare against.
        """
        entry = self._trips.get(key)
        if entry is not None and entry[0] == signature:
            return entry[1]
        result = compute()
        for item in result if isinstance(result, tuple) else (result,):
            if isinstance(item, np.ndarray):    # a StageRoute freezes itself
                item.flags.writeable = False
        self._trips[key] = (signature, result)
        return result

    # ------------------------------------------------------------------
    # local loop nests
    # ------------------------------------------------------------------

    def _loop_nest_per_rank(self, node: LocalLoopNest, record, home_dist,
                            distributed: bool, count: OpCount,
                            element_size: int, precision: str) -> np.ndarray:
        with obs.span("node_cost"):
            # A triplet's values are an arithmetic sequence, so first, last
            # and length fix them; the mask is part of the trip when present.
            ranges = (record.triplet_ranges.get(dim.var.lower())
                      for dim in node.loops)
            signature = (
                tuple(None if values is None else
                      (int(values[0]), int(values[-1]), len(values))
                      for values in ranges),
                None if record.mask is None else record.mask.tobytes(),
            )
            raw = self._per_trip(id(node), signature, lambda: (
                self._loop_nest_raw(node, record, home_dist, distributed,
                                    count, element_size, precision)))
        with obs.span("noise"):
            return self.noise.compute_batch(raw)

    def _loop_nest_raw(self, node: LocalLoopNest, record, home_dist,
                       distributed: bool, count: OpCount, element_size: int,
                       precision: str) -> np.ndarray:
        """Per-rank loop-nest times of one trip, before noise."""
        p = self.nprocs
        pcoords = home_dist.axis_pcoords() if home_dist is not None else None

        # Per loop dimension: every rank's owned-value count, plus the
        # ownership map needed for the mask contraction.  ``owners`` is
        # None for dimensions whose selector is all-ones (replicated home
        # axis).
        rank_counts: list[np.ndarray] = []
        dim_groups: list[tuple[np.ndarray | None, int,
                               np.ndarray | None]] = []
        stride1 = False
        innermost = np.ones(p, dtype=np.float64)
        for dim in node.loops:
            values = record.triplet_ranges.get(dim.var.lower())
            if values is None:
                continue
            if distributed and dim.home_axis is not None and \
                    dim.home_axis < len(home_dist.axes) and \
                    home_dist.axes[dim.home_axis].is_distributed:
                axis = home_dist.axes[dim.home_axis]
                owners = axis.owners_of(
                    np.asarray(values, dtype=np.int64)
                    - home_dist.lower_bounds[dim.home_axis])
                by_pcoord = np.bincount(owners[owners >= 0],
                                        minlength=axis.nprocs)
                pc = pcoords[:, dim.home_axis]
                dim_counts = by_pcoord[pc]
                dim_groups.append((owners, axis.nprocs, pc))
            else:
                dim_counts = np.full(p, len(values), dtype=np.int64)
                dim_groups.append((None, 1, None))
            rank_counts.append(dim_counts)
            if dim.home_axis == 0:
                stride1 = True
                innermost = dim_counts.astype(np.float64)

        iterations = np.ones(p, dtype=np.float64)
        for dim_counts in rank_counts:
            iterations *= dim_counts
        if not stride1 and rank_counts:
            innermost = rank_counts[-1].astype(np.float64)

        mask_fractions = None
        if record.mask is not None and rank_counts:
            mask_counts = self._mask_counts(record.mask, dim_groups)
            sub_sizes = np.ones(p, dtype=np.int64)
            for dim_counts in rank_counts:
                sub_sizes *= dim_counts
            fractions = mask_counts / np.maximum(sub_sizes, 1)
            # ranks with an empty iteration space get no mask fraction
            # (negative encodes None for the batched cost model)
            mask_fractions = np.where(iterations > 0, fractions, -1.0)

        profile = IterationProfile(
            count=count,
            precision=precision,
            element_size=element_size,
            stride1=stride1 or not distributed,
            arrays_touched=max(len(count.arrays_touched), 1),
        )
        return self.cost.loop_nest_times(
            profile, depth=len(node.loops),
            local_elements=iterations,
            innermost_extents=np.maximum(innermost, 1.0),
            mask_fractions=mask_fractions,
        )

    def _mask_counts(self, mask: np.ndarray,
                     dim_groups: list[tuple[np.ndarray | None, int,
                                            np.ndarray | None]]) -> np.ndarray:
        """Mask-true count of every rank's sub-block, via ownership contraction.

        Equivalent to ``np.count_nonzero(mask[np.ix_(*selectors)])`` per rank:
        each loop dimension's axis is contracted with the (values × pcoords)
        one-hot ownership indicator (all-ones column for replicated axes);
        trailing mask axes beyond the loop dimensions are summed outright.
        Integer arithmetic throughout, so counts are exact.
        """
        k = len(dim_groups)
        counts = np.asarray(mask, dtype=np.int64)
        if counts.ndim > k:
            counts = counts.sum(axis=tuple(range(k, counts.ndim)))
        # Contract the last loop axis first; each tensordot removes one value
        # axis and appends that dimension's pcoord axis at the end, so the
        # result tensor carries the group axes in reverse dimension order.
        for d in range(k - 1, -1, -1):
            owners, groups, _pc = dim_groups[d]
            indicator = self._ownership_indicator(owners, groups, counts.shape[d])
            counts = np.tensordot(counts, indicator, axes=([d], [0]))
        p = self.nprocs
        index = tuple(
            pc if pc is not None else np.zeros(p, dtype=np.int64)
            for _owners, _groups, pc in reversed(dim_groups)
        )
        return counts[index]

    @staticmethod
    def _ownership_indicator(owners: np.ndarray | None, groups: int,
                             length: int) -> np.ndarray:
        """(length × groups) one-hot membership matrix of one loop dimension."""
        if owners is None:
            return np.ones((length, groups), dtype=np.int64)
        indicator = np.zeros((owners.shape[0], groups), dtype=np.int64)
        valid = owners >= 0
        indicator[np.nonzero(valid)[0], owners[valid]] = 1
        return indicator

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def _reduction_per_rank(self, node: ReductionNode,
                            dist: ArrayDistribution | None, count: OpCount,
                            total_extent: float, element_size: int,
                            precision: str) -> np.ndarray:
        with obs.span("node_cost"):
            raw = self._per_trip(id(node), (total_extent,), lambda: (
                self._reduction_raw(dist, count, total_extent, element_size,
                                    precision)))
        with obs.span("noise"):
            return self.noise.compute_batch(raw)

    def _reduction_raw(self, dist: ArrayDistribution | None, count: OpCount,
                       total_extent: float, element_size: int,
                       precision: str) -> np.ndarray:
        """Per-rank partial-reduction times of one trip, before noise."""
        p = self.nprocs
        if dist is not None and not dist.is_replicated:
            shares = dist.local_sizes().astype(np.float64) / max(dist.size, 1)
            local = total_extent * shares
        else:
            local = np.full(p, total_extent, dtype=np.float64)
        profile = IterationProfile(
            count=count,
            precision=precision,
            element_size=element_size,
            stride1=True,
            arrays_touched=max(len(count.arrays_touched), 1),
        )
        return self.cost.loop_nest_times(
            profile, depth=1,
            local_elements=local,
            innermost_extents=np.maximum(local, 1.0),
        )

    # ------------------------------------------------------------------
    # shifts
    # ------------------------------------------------------------------

    def _shift_copy_per_rank(self, dist: ArrayDistribution) -> np.ndarray:
        with obs.span("node_cost"):
            proc = self.cost.proc
            raw = dist.local_sizes().astype(np.float64) * (
                proc.assignment_overhead + self.cost.memory.hit_time * 2
            )
        with obs.span("noise"):
            return self.noise.compute_batch(raw)

    def _shift_plan_arrays(self, dist: ArrayDistribution, axis: int, axis_map,
                           offset: int, element_size: int, direction: int,
                           clamp_shift_axis: bool,
                           ) -> tuple[StageRoute, np.ndarray]:
        """Routed partners and boundary-slab byte counts of one shift."""
        p = self.nprocs
        grid = dist.grid
        coords = grid.coords_array()
        grid_axis = axis_map.grid_axis
        partner_coords = coords.copy()
        partner_coords[:, grid_axis] = \
            (coords[:, grid_axis] + direction) % grid.shape[grid_axis]
        partners = grid.linear_ranks(partner_coords)

        pcoords = dist.axis_pcoords()
        boundary = np.ones(p, dtype=np.float64)
        for axis_no, ax in enumerate(dist.axes):
            table = ax.local_counts()
            if table.shape[0] == 1:
                local = np.full(p, int(table[0]), dtype=np.int64)
            else:
                local = table[pcoords[:, axis_no]]
            if axis_no == axis:
                shifted = np.maximum(local, 1) if clamp_shift_axis else local
                factor = np.minimum(max(offset, 1), shifted)
            else:
                factor = np.maximum(local, 1)
            boundary *= factor
        nbytes = (boundary * element_size).astype(np.int64)

        ranks = np.arange(p, dtype=np.int64)
        exchanging = partners != ranks
        route = self.network.stage_route_info(ranks[exchanging],
                                              partners[exchanging])
        return route, nbytes[exchanging]

    # ------------------------------------------------------------------
    # communication phases (array clocks end to end)
    # ------------------------------------------------------------------

    def _shift_exchange(self, node: SPMDNode, key: int,
                        dist: ArrayDistribution, axis: int, axis_map,
                        offset: int, element_size: int, direction: int,
                        clamp_shift_axis: bool) -> None:
        """One boundary shift as a routed structure-of-arrays stage.

        The plan — routed partners and per-pair byte counts — is kept under
        *key* (the shift node or comm spec) for as long as the trip's offset
        and direction repeat, so a repeated trip neither re-derives the
        partners nor re-routes them.  ``comm_stats`` records the stage
        exactly like the loop engine's per-pair bookkeeping, also when the
        plan is reused.
        """
        route, nbytes = self._per_trip(
            key, (offset, direction, clamp_shift_axis),
            lambda: self._shift_plan_arrays(dist, axis, axis_map, offset,
                                            element_size, direction,
                                            clamp_shift_axis))
        self.comm_stats.messages += nbytes.shape[0]
        self.comm_stats.bytes += int(nbytes.sum())
        self.comm_stats.operations += nbytes.shape[0]
        with obs.span("network"):
            targets, participants = shift_exchange_clocks(
                self.network, route, nbytes, self.clocks,
                software_overhead=self.collective_overhead)
        self._finish_comm_phase(node, targets, participants)

    def _collective(self, node: SPMDNode, kind: str, nbytes: int) -> None:
        """The array-clock kernel of one ``"broadcast"`` (from rank 0),
        ``"reduce"`` or ``"gather"`` over every rank."""
        overhead = self.collective_overhead
        with obs.span("network"):
            if kind == "broadcast":
                targets = broadcast_clocks(self.network, 0, self.clocks,
                                           nbytes, software_overhead=overhead)
            elif kind == "reduce":
                targets = allreduce_clocks(
                    self.network, self.clocks, nbytes,
                    combine_time=self.cost.proc.flop_time_sp,
                    software_overhead=overhead)
            else:
                targets = unstructured_gather_clocks(
                    self.network, self.clocks, nbytes,
                    software_overhead=overhead)
        self._finish_comm_phase(node, targets)

    def _finish_comm_phase(self, node: SPMDNode, targets: np.ndarray,
                           participants: np.ndarray | None = None) -> None:
        """Noise the phase's clock advances and commit them.

        Mirrors the loop engine's ``_commit_comm``: one batched draw over
        exactly the ranks the collective returned (*participants* of a
        shift; everyone otherwise).  Each element is keyed on its **rank**
        and the shared phase counter, so the batch is bit-identical to the
        loop engine's scalar keyed draws.
        """
        entry = self.clocks
        with obs.span("noise"):
            if participants is None:
                noisy = self.noise.communication_batch(targets - entry) + entry
            else:
                idx = np.nonzero(participants)[0]
                noisy = entry.copy()
                noisy[idx] = self.noise.communication_batch(
                    targets[idx] - entry[idx], ranks=idx
                ) + entry[idx]
        self._charge(node, "communication", np.maximum(noisy - entry, 0.0))
