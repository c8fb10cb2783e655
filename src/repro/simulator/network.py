"""Message-level network simulation over a pluggable interconnect topology.

The unit of simulation is a :class:`Message` (source node, destination node,
byte count, earliest start time).  Messages traverse the route their
:class:`~repro.system.topology.Topology` assigns them (e-cube on a hypercube,
XY on a mesh, through the crossbar on a switched cluster); each link can
carry one message at a time, so concurrent messages that share a link
serialise — this is the contention the static interpreter's analytic
collective models do not capture.

Two drain paths apply the same per-message timing rules and produce
bit-identical results:

* the **per-message** drain (:meth:`Network.transfer`: one sorted pass
  that prices :class:`Message` objects one at a time), which the
  simulator's ``loop`` engine runs and the tests keep as the oracle;
* the **array** drain (:meth:`Network.drain_stage`), which the ``vector``
  engine runs: the phase arrives as a structure-of-arrays batch (start
  times and byte counts as numpy arrays, no :class:`Message` objects at
  all) together with its :class:`StageRoute`.  A route is built by
  :meth:`Network.stage_route_info` from the topology's route matrix, once,
  by the plan that owns the stage — the exchange schedule per partition
  size, the broadcast schedule per (size, root), the vector engine's shift
  plan per trip — and travels with that plan, so the drain never
  classifies, hashes or looks up a stage:

  - **link-disjoint** stages (shift exchanges, any stage on a
    :class:`~repro.system.topology.SwitchedTopology` with distinct endpoints,
    fat-tree stages that spread across parallel channels) have no link or NIC
    interaction at all, so the whole stage is priced with one vectorised
    expression;
  - **paired** stages — every route is a single link and collisions are only
    the two opposite directions of an exchange pair (recursive doubling on
    the hypercube, two-node rings) — admit a closed form: the later message
    of each pair waits for its partner's link to free;
  - **serial** stages genuinely collide on a link or a NIC.  They are
    drained level by level: each level holds the messages whose
    predecessors on their links and NIC are all priced, and is priced hop
    by hop with array expressions, so contention is never approximated.

The simulation is fully deterministic on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, NamedTuple

import numpy as np

from ..system.comm_models import message_packets
from ..system.sau import CommunicationComponent
from ..system.topology import Topology, make_topology

#: Stage verdicts of :meth:`Network.stage_route_info`.
STAGE_DISJOINT = "disjoint"   # no two messages share a link; sources distinct
STAGE_PAIRED = "paired"       # single-link routes; collisions only within a<->b pairs
STAGE_SERIAL = "serial"       # links or NICs collide: level-by-level drain

_NEG_INF = float("-inf")


@dataclass(slots=True)
class Message:
    """One point-to-point message."""

    src: int
    dst: int
    nbytes: int
    start_time: float = 0.0
    # filled by the simulation
    send_complete: float = 0.0
    recv_complete: float = 0.0


@dataclass
class TransferResult:
    """Result of simulating a batch of messages."""

    send_complete: dict[int, float] = field(default_factory=dict)   # per source node
    recv_complete: dict[int, float] = field(default_factory=dict)   # per destination node

    def completion(self, node: int, default: float = 0.0) -> float:
        """Time at which *node* has finished all its sends and receives."""
        return max(self.send_complete.get(node, default), self.recv_complete.get(node, default))


class StageRoute(NamedTuple):
    """One stage's routes and verdict, as :meth:`Network.stage_route_info`
    builds them.

    A route depends only on the stage's endpoints, never on its start times
    or sizes, so the plan that schedules the stage builds it once and hands
    it to every :meth:`Network.drain_stage` of that stage.  Its arrays are
    read-only: plans share them across trips.
    """

    #: sending node of each message
    src: np.ndarray
    #: receiving node of each message
    dst: np.ndarray
    #: link count of each message's route
    hops: np.ndarray
    #: :data:`STAGE_DISJOINT`, :data:`STAGE_PAIRED` or :data:`STAGE_SERIAL`
    verdict: str
    #: paired stages: each message's pair mate (itself when unpaired)
    partners: np.ndarray | None
    #: serial stages: the ``(n, H)`` route matrix of link ids, -1 padded
    links: np.ndarray | None
    #: some source sends more than once (only a serial stage allows it)
    shared_nic: bool
    #: no node receives more than once, so completions are assigned
    distinct_dst: bool
    #: every route has ``hops.max()`` links, so per-hop delays need no mask
    uniform_hops: bool


def batch_order(start: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Dispatch order of a structure-of-arrays message batch.

    Returns the permutation that visits messages in ascending
    ``(start_time, src, dst)`` order with input order breaking exact ties —
    the order in which :meth:`Network.transfer` prices them.  When no two
    start times tie, the start times alone fix that order and numpy's
    unstable ``argsort`` finds it; otherwise (or on a NaN) one stable
    ``np.lexsort`` over all three keys does.  The array drain orders its
    serial stages with it.
    """
    order = np.argsort(start)
    ordered = start[order]
    if (ordered[1:] > ordered[:-1]).all():      # no ties (and no NaN)
        return order
    return np.lexsort((dst, src, start))


def _frozen(array: np.ndarray | None) -> np.ndarray | None:
    if array is not None:
        array.flags.writeable = False
    return array


class Network:
    """Simulates batches of messages over one interconnect partition."""

    def __init__(self, comm: CommunicationComponent, num_nodes: int,
                 topology: Topology | None = None):
        self.comm = comm
        self.topology = topology if topology is not None \
            else make_topology("hypercube", max(num_nodes, 1))
        self.num_nodes = num_nodes
        #: nbytes -> (latency, link occupancy) for the array drain; both are
        #: pure functions of the communication parameter set.
        self._timing_cache: dict[int, tuple[float, float]] = {}
        #: collective schedules as stage routes, filled lazily by the
        #: array-clock kernels in :mod:`repro.simulator.collectives`.
        self._schedule_plans: dict = {}

    # -- batch simulation with link contention --------------------------------------

    def transfer(self, messages: list[Message]) -> TransferResult:
        """Simulate *messages* with link contention; fills per-message completions.

        The oracle drain (the ``loop`` engine's path): messages are priced
        one at a time in ``(start_time, src, dst)`` order, input order
        breaking ties, none before time 0.  Deliberately self-contained — it
        spells out the timing rules inline rather than sharing
        :meth:`_message_timing` or the topology's route matrix with the array
        drain, so the parity tests compare two independently-written
        implementations rather than one formula with itself.
        """
        result = TransferResult()
        link_free: dict[Hashable, float] = {}
        nic_free: dict[int, float] = {}
        comm = self.comm
        for msg in sorted(messages, key=lambda m: (m.start_time, m.src, m.dst)):
            # The sending node's interface is serially reusable.
            send_start = max(msg.start_time, 0.0, nic_free.get(msg.src, 0.0))
            launch = send_start + comm.latency(msg.nbytes)
            occupancy = msg.nbytes * comm.per_byte + (
                (message_packets(comm, msg.nbytes) - 1) * comm.per_packet_overhead
            )
            route = self.topology.route(msg.src, msg.dst)
            arrival = launch
            for hop_no, (a, b) in enumerate(route):
                lid = self.topology.link_id(a, b)
                ready = max(arrival + (comm.per_hop if hop_no > 0 else 0.0),
                            link_free.get(lid, 0.0))
                link_free[lid] = ready + occupancy
                arrival = ready
            recv_done = arrival + occupancy   # a self-message never leaves
            send_done = launch + occupancy * 0.5  # sender frees once data is streaming
            nic_free[msg.src] = send_done
            msg.send_complete = send_done
            msg.recv_complete = recv_done
            result.send_complete[msg.src] = max(result.send_complete.get(msg.src, 0.0), send_done)
            result.recv_complete[msg.dst] = max(result.recv_complete.get(msg.dst, 0.0), recv_done)
        return result

    def _message_timing(self, nbytes: int) -> tuple[float, float]:
        """Memoised ``(latency, link occupancy)`` of one message size.

        The timing formula of the array drain; the per-message oracle
        intentionally keeps its own inline copy (see :meth:`transfer`).
        """
        cached = self._timing_cache.get(nbytes)
        if cached is None:
            comm = self.comm
            occupancy = nbytes * comm.per_byte + (
                (message_packets(comm, nbytes) - 1) * comm.per_packet_overhead
            )
            cached = (comm.latency(nbytes), occupancy)
            self._timing_cache[nbytes] = cached
        return cached

    # -- array drain (structure-of-arrays phases) ------------------------------------

    def stage_route_info(self, src: np.ndarray, dst: np.ndarray) -> StageRoute:
        """Classify the stage of messages ``src[k] -> dst[k]``.

        The verdict is :data:`STAGE_DISJOINT` when no two messages share a
        link (and sources are distinct, so NICs never serialise either),
        :data:`STAGE_PAIRED` when every route is a single link and the only
        collisions are the two opposite directions of an exchange pair, and
        :data:`STAGE_SERIAL` otherwise.  Link sharing is read off the
        topology's :meth:`~repro.system.topology.Topology.route_matrix`.  A
        topology that declares ``link_disjoint_paths`` (the crossbar:
        per-node up/down links) is trusted structurally — distinct sources
        and destinations imply disjointness without routing a single
        message.  Nothing is memoised: the caller's plan keeps the route
        for as long as its stage repeats.
        """
        src = _frozen(np.array(src, dtype=np.int64))
        dst = _frozen(np.array(dst, dtype=np.int64))
        n = src.shape[0]
        distinct_src = int(np.bincount(src).max(initial=0)) <= 1
        distinct_dst = int(np.bincount(dst).max(initial=0)) <= 1

        def classified(hops, verdict, partners=None, links=None):
            uniform = not hops.size or int(hops.min()) == int(hops.max())
            return StageRoute(src, dst, _frozen(hops), verdict,
                              _frozen(partners), _frozen(links),
                              not distinct_src, distinct_dst, uniform)

        switch_hops = getattr(self.topology, "switch_hops", None)
        if distinct_src and distinct_dst and switch_hops is not None \
                and getattr(self.topology, "link_disjoint_paths", False):
            return classified(np.where(src == dst, 0, int(switch_hops)),
                              STAGE_DISJOINT)

        links, hops = self.topology.route_matrix(src, dst)
        if distinct_src:
            most = int(np.bincount(links[links >= 0]).max(initial=0))
            if most <= 1:
                return classified(hops, STAGE_DISJOINT)
            if most == 2 and int(hops.max()) <= 1:
                # single-link routes with distinct sources: a link is shared
                # only by the two opposite directions of one exchange pair
                rows = np.flatnonzero(hops)
                lids = links[rows, 0]
                by_link = np.argsort(lids, kind="stable")
                first = np.flatnonzero(lids[by_link[1:]] == lids[by_link[:-1]])
                a = rows[by_link[first]]
                b = rows[by_link[first + 1]]
                partners = np.arange(n, dtype=np.int64)
                partners[a] = b
                partners[b] = a
                return classified(hops, STAGE_PAIRED, partners=partners)
        return classified(hops, STAGE_SERIAL, links=links)

    def _stage_timing(self, nbytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-message ``(latency, occupancy)`` arrays, via the timing memo."""
        nbytes = np.asarray(nbytes).reshape(-1)
        # Collective stages overwhelmingly carry one message size; broadcast
        # the memoised scalar pair instead of paying np.unique's sort.
        if nbytes.shape[0] and int(nbytes.min()) == int(nbytes.max()):
            lat, occ = self._message_timing(int(nbytes[0]))
            return (np.full(nbytes.shape[0], lat),
                    np.full(nbytes.shape[0], occ))
        uniq, inverse = np.unique(nbytes, return_inverse=True)
        lat = np.empty(uniq.shape[0], dtype=np.float64)
        occ = np.empty(uniq.shape[0], dtype=np.float64)
        for i, size in enumerate(uniq.tolist()):
            lat[i], occ[i] = self._message_timing(size)
        inverse = np.asarray(inverse).reshape(-1)
        return lat[inverse], occ[inverse]

    def drain_stage(self, route: StageRoute, start: np.ndarray,
                    nbytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Array drain of one phase; the ``vector`` engine's collective core.

        Message *k* of *route* leaves ``route.src[k]`` at ``start[k]`` with
        ``nbytes[k]`` bytes.  Returns per-node ``(send_complete,
        recv_complete)`` arrays of length ``num_nodes`` (``-inf`` where a
        node neither sent nor received).  Link-disjoint and pair-exchange
        stages are priced by closed-form expressions, colliding stages by
        :meth:`_drain_levels`; every path applies exactly :meth:`transfer`'s
        timing rules.  *route* comes from :meth:`stage_route_info`, built
        once by the plan that repeats the stage.
        """
        p = self.num_nodes
        send_arr = np.full(p, _NEG_INF)
        recv_arr = np.full(p, _NEG_INF)
        src, dst = route.src, route.dst
        if src.shape[0] == 0:
            return send_arr, recv_arr

        latency, occupancy = self._stage_timing(nbytes)
        if route.verdict == STAGE_SERIAL:
            return self._drain_levels(start, latency, occupancy, route)

        launch = np.maximum(start, 0.0) + latency
        send_done = launch + occupancy * 0.5
        hops = route.hops

        if route.verdict == STAGE_DISJOINT:
            # No interactions at all: each message pays its own latency, hop
            # delays and occupancy.  The per-hop delay accrues by repeated
            # addition (hop by hop, exactly as transfer adds it) so the
            # float results stay bit-identical; when every route is as long
            # as the longest, the mask would select every message.
            arrival = launch                    # send_done is already taken
            for hop_no in range(1, int(hops.max())):
                if route.uniform_hops:
                    arrival += self.comm.per_hop
                else:
                    arrival[hops > hop_no] += self.comm.per_hop
            recv_done = arrival + occupancy
        else:                                   # STAGE_PAIRED
            # Single-link exchanges: the lexicographically later message of a
            # pair waits until its partner frees the shared link.
            mate = route.partners
            second = (start > start[mate]) | \
                ((start == start[mate]) & (src > src[mate]))
            ready = np.maximum(launch, launch[mate] + occupancy[mate])
            recv_done = np.where(second, ready, launch) + occupancy

        send_arr[src] = send_done               # sources are distinct
        if route.distinct_dst:
            recv_arr[dst] = recv_done
        else:
            np.maximum.at(recv_arr, dst, recv_done)
        return send_arr, recv_arr

    def _drain_levels(self, start: np.ndarray, latency: np.ndarray,
                      occupancy: np.ndarray,
                      route: StageRoute) -> tuple[np.ndarray, np.ndarray]:
        """Exact drain of a serial stage, level by level.

        Messages are taken in :meth:`transfer`'s dispatch order
        (:func:`batch_order`).  Each waits on its
        predecessor on its NIC (the previous message from its source) and,
        hop by hop, on its predecessor on each link (the previous message
        through that link).  A message's level is the length of the longest
        chain of such waits that ends at it, so messages of one level share
        no link and no NIC, and every predecessor sits at a lower level.
        Each level is then priced with :meth:`transfer`'s arithmetic as
        array expressions, in its operation order, reading and updating
        per-link and per-NIC free times; a node's completion is the latest
        of its messages, reported only when above 0.0.
        """
        order = batch_order(start, route.src, route.dst)
        links = route.links.take(order, axis=0)
        n, width = links.shape

        # waits[:, k] holds the dispatch positions message k waits on: its
        # link's previous user at each hop, then its NIC's previous message;
        # n (a slot whose level stays -1) where there is none
        waits = np.full((width + 1, n), n, dtype=np.int64)
        flat = links.ravel()
        entries = np.flatnonzero(flat >= 0)
        # entries sorted by link, dispatch order within a link (unique keys)
        by_link = entries[np.argsort(flat[entries] * flat.size + entries)]
        repeat = np.flatnonzero(flat[by_link[1:]] == flat[by_link[:-1]])
        later, earlier = by_link[repeat + 1], by_link[repeat]
        waiter, holder = later // width, earlier // width
        other = waiter != holder                # a route may reuse its own link
        waits[later[other] % width, waiter[other]] = holder[other]
        srcs = route.src[order]
        if route.shared_nic:
            by_src = np.argsort(srcs, kind="stable")
            repeat = np.flatnonzero(srcs[by_src[1:]] == srcs[by_src[:-1]])
            waits[width, by_src[repeat + 1]] = by_src[repeat]

        # longest-path relaxation; chains are short (a handful of levels)
        depth = np.zeros(n + 1, dtype=np.int64)
        depth[n] = -1
        while True:
            deeper = depth[waits].max(axis=0) + 1
            if np.array_equal(deeper, depth[:n]):
                break
            depth[:n] = deeper
        level = depth[:n]

        # visit level by level, longest routes first within a level, so the
        # messages still travelling at hop h are a prefix of their level;
        # cells[l][w - h] counts level l's messages of h hops
        key = level * (width + 1) + (width - route.hops[order])
        visit = np.argsort(key, kind="stable")
        cells = np.bincount(key, minlength=(int(level.max()) + 1) * (width + 1))
        cells = cells.reshape(-1, width + 1)
        bounds = np.concatenate(([0], np.cumsum(cells.sum(axis=1)))).tolist()
        # travelling[l][h]: messages of level l with more than h hops
        travelling = np.cumsum(cells[:, :-1], axis=1)[:, ::-1].tolist()

        order = order[visit]
        links = links.take(visit, axis=0)
        srcs = srcs[visit]
        starts = start[order]
        latency = latency[order]
        occupancy = occupancy[order]
        half = occupancy * 0.5
        launch = np.empty(n)
        arrival = np.empty(n)
        link_free = np.zeros(int(links.max(initial=-1)) + 1)
        nic_free = np.zeros(self.num_nodes)
        per_hop = self.comm.per_hop
        for lo, hi, moving in zip(bounds[:-1], bounds[1:], travelling):
            np.maximum(starts[lo:hi], nic_free[srcs[lo:hi]], out=launch[lo:hi])
            launch[lo:hi] += latency[lo:hi]
            arrival[lo:hi] = launch[lo:hi]      # a self-message never leaves
            for hop_no, m in enumerate(moving):
                if not m:
                    break
                ready = arrival[lo:lo + m]      # a view: arrival advances with it
                if hop_no:
                    ready += per_hop
                lid = links[lo:lo + m, hop_no]
                np.maximum(ready, link_free[lid], out=ready)
                link_free[lid] = ready + occupancy[lo:lo + m]
            nic_free[srcs[lo:hi]] = launch[lo:hi] + half[lo:hi]

        send_arr = np.zeros(self.num_nodes)
        recv_arr = np.zeros(self.num_nodes)
        np.maximum.at(send_arr, srcs, launch + half)
        np.maximum.at(recv_arr, route.dst[order], arrival + occupancy)
        return (np.where(send_arr > 0.0, send_arr, _NEG_INF),
                np.where(recv_arr > 0.0, recv_arr, _NEG_INF))
