"""Vector-engine tests: loop/vector parity, the array network drain against
the per-message drain, collective state hygiene, and the modern-cluster
target.

The ``vector`` engine is only allowed to exist because it is indistinguishable
from the ``loop`` oracle: every per-rank time within 1e-9 (bit-for-bit in
practice) on every registered machine and every topology kind.  These tests
are tier-1 — any divergence fails the build.
"""

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.distribution import ArrayDistribution, ProcessorGrid
from repro.distribution.distribute import AxisMapping, DimDistribution
from repro.frontend.errors import SimulationError
from repro.simulator import (
    ENGINES,
    STAGE_DISJOINT,
    STAGE_PAIRED,
    STAGE_SERIAL,
    Message,
    Network,
    SimulatorOptions,
    allgather,
    allgather_clocks,
    allreduce,
    allreduce_clocks,
    batch_order,
    broadcast,
    broadcast_clocks,
    shift_exchange,
    shift_exchange_clocks,
    simulate,
    unstructured_gather,
    unstructured_gather_clocks,
)
from repro.system import get_machine, machine_names
from repro.system.sau import CommunicationComponent

TOPOLOGY_KINDS = ("hypercube", "mesh", "torus", "fattree")

#: Exercises every per-rank hot path: masked forall (mask fractions), 2-D
#: block layout (shift exchanges), a reduction (allreduce + local partials)
#: and a broadcast of an off-processor element.
PARITY_SOURCE = """
      program parity
      integer, parameter :: n = 24
      integer, parameter :: steps = 3
      real, dimension(n, n) :: u, unew
      real, dimension(n) :: row
      real :: err
      integer :: iter
!HPF$ PROCESSORS p(2, 2)
!HPF$ TEMPLATE t(n, n)
!HPF$ ALIGN u(i, j) WITH t(i, j)
!HPF$ ALIGN unew(i, j) WITH t(i, j)
!HPF$ DISTRIBUTE t(BLOCK, BLOCK) ONTO p
      forall (i = 1:n, j = 1:n) u(i, j) = 0.1 * i + 0.01 * j
      forall (i = 1:n) row(i) = u(1, i)
      do iter = 1, steps
        forall (i = 2:n - 1, j = 2:n - 1, u(i, j) .gt. 0.5) &
          unew(i, j) = 0.25 * (u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1))
        err = sum(abs(unew(2:n - 1, 2:n - 1)))
        forall (i = 2:n - 1, j = 2:n - 1) u(i, j) = unew(i, j)
      end do
      print *, err
      end program parity
"""

CYCLIC_SOURCE = """
      program cyc
      integer, parameter :: n = 30
      real, dimension(n) :: a, b
      real :: total
!HPF$ PROCESSORS p(3)
!HPF$ TEMPLATE t(n)
!HPF$ ALIGN a(i) WITH t(i)
!HPF$ ALIGN b(i) WITH t(i)
!HPF$ DISTRIBUTE t(CYCLIC) ONTO p
      forall (i = 1:n) a(i) = 1.0 * i
      forall (i = 2:n - 1) b(i) = a(i - 1) + a(i + 1)
      total = sum(b)
      print *, total
      end program cyc
"""


def _per_rank(source, machine, engine, nprocs, **compile_kwargs):
    compiled = compile_source(source, nprocs=nprocs, **compile_kwargs)
    result = simulate(compiled, machine, options=SimulatorOptions(engine=engine))
    return result


class TestEnginePropertyParity:
    """Vector == loop on every registered machine x every topology kind."""

    @pytest.mark.parametrize("machine_name", machine_names())
    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_parity_machine_x_topology(self, machine_name, kind):
        nprocs = 4
        machine = get_machine(machine_name, nprocs)
        machine.topology_kind = kind           # cross product, as the ISSUE asks
        loop = _per_rank(PARITY_SOURCE, machine, "loop", nprocs)
        vector = _per_rank(PARITY_SOURCE, machine, "vector", nprocs)
        worst = np.max(np.abs(np.asarray(loop.per_rank_us)
                              - np.asarray(vector.per_rank_us)))
        assert worst <= 1e-9, \
            f"{machine_name}/{kind}: per-rank divergence {worst}"
        assert vector.array_checksum == loop.array_checksum
        assert vector.printed == loop.printed
        assert vector.totals.computation == pytest.approx(loop.totals.computation)
        assert vector.totals.communication == pytest.approx(loop.totals.communication)

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_parity_at_p1024(self, kind):
        """Array-clock drain == loop oracle at p=1024 on every wired fabric.

        This is the scale regime the array-clock core unlocked; the loop
        engine stays affordable here because the scenario is tiny (the
        network still prices 1024-rank collective stages every iteration).
        """
        from repro.suite import get_entry

        entry = get_entry("laplace_block_star")
        params = entry.params_for(32)
        params["maxiter"] = 2.0
        compiled = compile_source(entry.source, nprocs=1024, params=params)
        machine = get_machine("modern-cluster", 1024)
        machine.topology_kind = kind
        loop = simulate(compiled, machine,
                        options=SimulatorOptions(engine="loop"))
        vector = simulate(compiled, machine,
                          options=SimulatorOptions(engine="vector"))
        worst = np.max(np.abs(np.asarray(loop.per_rank_us)
                              - np.asarray(vector.per_rank_us)))
        assert worst <= 1e-9, f"{kind}: per-rank divergence {worst} at p=1024"
        assert vector.measured_time_us == loop.measured_time_us
        assert vector.comm_stats.messages == loop.comm_stats.messages
        assert vector.comm_stats.bytes == loop.comm_stats.bytes

    def test_parity_on_contended_hypercube_at_p1024(self):
        """Loop == vector where stages genuinely collide at scale.

        Laplace (BLOCK, BLOCK) on the iPSC/860 at p=1024 maps its 32x32 grid
        onto the cube, so each boundary shift is a serial stage of 1024
        messages of up to 5 e-cube hops, drained level by level by the
        vector engine and message by message by ``Network.transfer``.
        """
        from repro.suite import get_entry

        entry = get_entry("laplace_block_block")
        params = entry.params_for(256)
        params["maxiter"] = 2.0
        compiled = compile_source(entry.source, nprocs=1024, params=params)
        machine = get_machine("ipsc860", 1024)
        loop = simulate(compiled, machine,
                        options=SimulatorOptions(engine="loop"))
        vector = simulate(compiled, machine,
                          options=SimulatorOptions(engine="vector"))
        assert vector.per_rank_us == loop.per_rank_us
        assert vector.measured_time_us == loop.measured_time_us
        assert vector.array_checksum == loop.array_checksum

    @pytest.mark.parametrize("machine_name", ["ipsc860", "modern-cluster"])
    def test_parity_cyclic_and_odd_p(self, machine_name):
        # cyclic layout + non-power-of-two partition (partition-safe routes)
        nprocs = 3
        machine = get_machine(machine_name, nprocs)
        loop = _per_rank(CYCLIC_SOURCE, machine, "loop", nprocs)
        vector = _per_rank(CYCLIC_SOURCE, machine, "vector", nprocs)
        worst = np.max(np.abs(np.asarray(loop.per_rank_us)
                              - np.asarray(vector.per_rank_us)))
        assert worst <= 1e-9
        assert vector.comm_stats.messages == loop.comm_stats.messages
        assert vector.comm_stats.bytes == loop.comm_stats.bytes
        assert vector.comm_stats.operations == loop.comm_stats.operations


#: Every DO trip changes something the vector engine's per-trip reuse keys
#: on: the first forall's bound k and mask threshold t (trips 1-2 share
#: their bounds and differ only in the mask), the second forall's first
#: and last value at a fixed length and no mask, and through the stride st
#: the next three's first value, last value and length, each with the other
#: two fixed; then a CSHIFT offset and the extent of a reduced section.
#: Trips that repeat a signature are reused.
TRIPS_SOURCE = """
      program trips
      integer, parameter :: n = 32
      integer, parameter :: ntrips = 6
      real, dimension(n) :: a, b
      real :: t, s
      integer :: it, k, m, sh, st
!HPF$ PROCESSORS p(4)
!HPF$ TEMPLATE tp(n)
!HPF$ ALIGN a(i) WITH tp(i)
!HPF$ ALIGN b(i) WITH tp(i)
!HPF$ DISTRIBUTE tp(BLOCK) ONTO p
      forall (i = 1:n) a(i) = mod(7.0 * i, 5.0)
      forall (i = 1:n) b(i) = 0.0
      s = 0.0
      do it = 1, ntrips
        k = 8 * ((it + 1) / 2)
        t = 1.5 * mod(it, 2)
        m = 1 + 4 * (it / 2)
        sh = mod(it, 3) - 1
        st = 1 + mod(it, 2)
        forall (i = 1:k, a(i) > t) b(i) = a(i) + 1.0
        forall (i = m:m + 7) b(i) = 0.5 * b(i)
        forall (i = 24 - 3 * st:24:st) b(i) = b(i) + 0.25
        forall (i = 5:5 + 9 * st:3 * st) b(i) = b(i) - 0.125
        forall (i = 2:8:st) b(i) = 1.5 * b(i)
        forall (i = 2:n - 1) a(i) = 0.5 * (b(i - 1) + b(i + 1))
        b = cshift(b, sh)
        s = s + sum(b(1:k))
      end do
      print *, s
      end program trips
"""


class TestPerTripReuse:
    """The vector engine reuses a trip's node costs and shift plans only
    when the trip's signature matches; the loop engine recomputes them."""

    @pytest.mark.parametrize("machine_name", ["ipsc860", "modern-cluster"])
    @pytest.mark.parametrize("nprocs", [3, 4])
    def test_parity_when_bounds_mask_offset_and_extent_change(
            self, machine_name, nprocs):
        machine = get_machine(machine_name, nprocs)
        loop = _per_rank(TRIPS_SOURCE, machine, "loop", nprocs)
        vector = _per_rank(TRIPS_SOURCE, machine, "vector", nprocs)
        assert vector.per_rank_us == loop.per_rank_us
        assert vector.measured_time_us == loop.measured_time_us
        assert vector.array_checksum == loop.array_checksum
        assert vector.printed == loop.printed
        for field in ("messages", "bytes", "operations"):
            assert getattr(vector.comm_stats, field) \
                == getattr(loop.comm_stats, field)

    def test_node_costs_do_not_grow_with_the_trip_count(self, monkeypatch):
        """Laplace repeats every trip: each loop nest and reduction is priced
        on its first trip only, so 2 and 6 iterations make the same number
        of cost-model sweeps."""
        from repro.simulator.node import NodeCostModel
        from repro.suite import get_entry

        sweeps = []
        price = NodeCostModel.loop_nest_times
        monkeypatch.setattr(NodeCostModel, "loop_nest_times",
                            lambda *a, **k: sweeps.append(1) or price(*a, **k))
        entry = get_entry("laplace_block_block")
        counts = []
        for maxiter in (2.0, 6.0):
            params = {**entry.params_for(16), "maxiter": maxiter}
            compiled = compile_source(entry.source, nprocs=4, params=params)
            sweeps.clear()
            simulate(compiled, get_machine("ipsc860", 4))
            counts.append(len(sweeps))
        assert counts[0] == counts[1]

    def test_each_distinct_stage_is_routed_once_per_run(self, monkeypatch):
        """Laplace (BLOCK, BLOCK) at p=64 on the hypercube drains 200
        stages over 20 iterations, 80 of them serial.  The exchange plan
        and the shift plans route each distinct stage once, so a plan that
        lost its route and re-routed every trip fails here."""
        from repro.simulator.network import Network
        from repro.suite import get_entry
        from repro.system.topology import HypercubeTopology

        routed, drained = [], []
        route_matrix = HypercubeTopology.route_matrix
        drain = Network.drain_stage
        monkeypatch.setattr(
            HypercubeTopology, "route_matrix",
            lambda self, src, dst: routed.append(1) or route_matrix(self, src, dst))
        monkeypatch.setattr(
            Network, "drain_stage",
            lambda self, route, *a: drained.append(route) or drain(self, route, *a))
        entry = get_entry("laplace_block_block")
        params = {**entry.params_for(64), "maxiter": 20.0}
        compiled = compile_source(entry.source, nprocs=64, params=params)
        simulate(compiled, get_machine("ipsc860", 64))

        stages = {(route.src.tobytes(), route.dst.tobytes()) for route in drained}
        assert len(drained) == 200
        assert sum(route.verdict == STAGE_SERIAL for route in drained) == 80
        assert len(routed) == len(stages)


CSHIFT_SOURCE = """
      program rotate
      integer, parameter :: n = 16
      real, dimension(n) :: a, b
!HPF$ PROCESSORS p(4)
!HPF$ TEMPLATE t(n)
!HPF$ ALIGN a(i) WITH t(i)
!HPF$ ALIGN b(i) WITH t(i)
!HPF$ DISTRIBUTE t(BLOCK) ONTO p
      forall (i = 1:n) a(i) = 1.0 * i
      b = cshift(a, {shift})
      print *, b(1), b(n)
      end program rotate
"""


class TestCshiftDirection:
    """The sign of a CSHIFT offset picks the neighbour each rank sends to."""

    @staticmethod
    def _shift_pairs(monkeypatch, engine, shift):
        """(sender, receiver) pairs of every shift exchange the run prices."""
        import repro.simulator.executor as loop_engine
        import repro.simulator.vector as vector_engine

        pairs = []
        exchange = loop_engine.shift_exchange
        exchange_clocks = vector_engine.shift_exchange_clocks

        def record(network, shift_pairs, *args, **kwargs):
            pairs.extend(shift_pairs)
            return exchange(network, shift_pairs, *args, **kwargs)

        def record_clocks(network, route, *args, **kwargs):
            pairs.extend(zip(route.src.tolist(), route.dst.tolist()))
            return exchange_clocks(network, route, *args, **kwargs)

        monkeypatch.setattr(loop_engine, "shift_exchange", record)
        monkeypatch.setattr(vector_engine, "shift_exchange_clocks",
                            record_clocks)
        result = _per_rank(CSHIFT_SOURCE.format(shift=shift),
                           get_machine("ipsc860", 4), engine, 4)
        return sorted(pairs), result

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_shift_mirrors_positive(self, monkeypatch, engine):
        forward, _ = self._shift_pairs(monkeypatch, engine, 1)
        backward, _ = self._shift_pairs(monkeypatch, engine, -1)
        assert forward == [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert backward == sorted((dst, src) for src, dst in forward)

    def test_engines_agree_on_both_directions(self, monkeypatch):
        for shift in (1, -1):
            loop_pairs, loop = self._shift_pairs(monkeypatch, "loop", shift)
            vector_pairs, vector = self._shift_pairs(monkeypatch, "vector",
                                                     shift)
            assert loop_pairs == vector_pairs
            assert loop.per_rank_us == vector.per_rank_us
            assert loop.printed == vector.printed


class TestEngineSwitch:
    def test_options_type_is_exported_at_top_level(self):
        import repro
        assert repro.SimulatorOptions is SimulatorOptions
        assert repro.SimulatorOptions(engine="loop").engine == "loop"

    def test_default_engine_is_vector(self):
        assert SimulatorOptions().engine == "vector"
        assert set(ENGINES) == {"vector", "loop"}

    def test_vector_engine_overrides_only_kernels(self):
        # one control flow: the base executor dispatches every node and
        # communication spec, the vector engine supplies kernels only
        from repro.simulator import SPMDExecutor, VectorSPMDExecutor
        defined = set(vars(VectorSPMDExecutor))
        assert not [name for name in defined
                    if name.startswith("_exec_") or name.startswith("_set_clocks")]
        hooks = {"_loop_nest_per_rank", "_reduction_per_rank",
                 "_shift_copy_per_rank", "_shift_exchange", "_collective"}
        assert hooks <= defined
        assert all(callable(getattr(SPMDExecutor, hook)) for hook in hooks)

    def test_result_records_engine(self, laplace_compiled, machine4):
        vector = simulate(laplace_compiled, machine4)
        loop = simulate(laplace_compiled, machine4,
                        options=SimulatorOptions(engine="loop"))
        assert vector.engine == "vector"
        assert loop.engine == "loop"

    def test_unknown_engine_raises(self, laplace_compiled, machine4):
        with pytest.raises(SimulationError, match="unknown simulator engine"):
            simulate(laplace_compiled, machine4,
                     options=SimulatorOptions(engine="turbo"))

    def test_unknown_engine_fails_eagerly_and_names_the_engines(self):
        # the typo must fail at construction, not deep inside the run, and
        # the message must list every known engine
        with pytest.raises(SimulationError) as err:
            SimulatorOptions(engine="turbo")
        message = str(err.value)
        for name in ENGINES:
            assert repr(name) in message

    def test_runtime_backstop_catches_post_hoc_reassignment(
            self, laplace_compiled, machine4):
        options = SimulatorOptions()
        options.engine = "warp"            # bypasses __post_init__
        with pytest.raises(SimulationError, match="unknown simulator engine"):
            simulate(laplace_compiled, machine4, options=options)


class TestModernCluster:
    def test_registered_with_aliases(self):
        assert "modern-cluster" in machine_names()
        for alias in ("modern", "commodity", "beowulf", "MODERN-CLUSTER"):
            machine = get_machine(alias, 64)
            assert machine.name == "ModernCluster-64"

    def test_post_cm5_parameter_relationships(self):
        modern = get_machine("modern-cluster", 64)
        cm5 = get_machine("cm5", 64)
        assert modern.topology_kind == "switch"
        # faster nodes, lower latency, higher bandwidth than the CM-5 class
        assert modern.processing.flop_time_sp < cm5.processing.flop_time_sp / 10
        assert modern.communication.startup_latency < cm5.communication.startup_latency / 10
        assert modern.communication.per_byte < cm5.communication.per_byte

    def test_simulates_at_p64(self, laplace_source):
        compiled = compile_source(laplace_source, nprocs=64,
                                  params={"n": 64, "maxiter": 2})
        result = simulate(compiled, get_machine("modern-cluster", 64))
        assert result.measured_time_us > 0
        assert len(result.per_rank_us) == 64


# ---------------------------------------------------------------------------
# array drain: stage classification + equivalence with the per-message oracle
# ---------------------------------------------------------------------------


def _comm() -> CommunicationComponent:
    return CommunicationComponent(
        startup_latency=50.0, long_startup_latency=90.0,
        long_message_threshold=256, per_byte=0.05, per_hop=2.0,
        packetization_bytes=512, per_packet_overhead=3.0,
        barrier_per_stage=10.0, collective_call_overhead=20.0,
    )


def _arrays(specs):
    start = np.array([s[0] for s in specs], dtype=np.float64)
    src = np.array([s[1] for s in specs], dtype=np.int64)
    dst = np.array([s[2] for s in specs], dtype=np.int64)
    nbytes = np.array([s[3] for s in specs], dtype=np.int64)
    return start, src, dst, nbytes


def _drain_stage_vs_heap(kind, nodes, specs):
    """Run one stage through drain_stage and transfer; return both + verdict."""
    from repro.system.topology import make_topology
    start, src, dst, nbytes = _arrays(specs)
    array_net = Network(_comm(), nodes, make_topology(kind, nodes))
    heap_net = Network(_comm(), nodes, make_topology(kind, nodes))
    route = array_net.stage_route_info(src, dst)
    send_arr, recv_arr = array_net.drain_stage(route, start, nbytes)
    messages = [Message(src=s, dst=d, nbytes=n, start_time=t)
                for t, s, d, n in specs]
    result = heap_net.transfer(messages)
    return route.verdict, send_arr, recv_arr, result


def _assert_matches_heap(send_arr, recv_arr, result, nodes):
    for node in range(nodes):
        expected_send = result.send_complete.get(node, float("-inf"))
        expected_recv = result.recv_complete.get(node, float("-inf"))
        assert send_arr[node] == expected_send, f"send mismatch at node {node}"
        assert recv_arr[node] == expected_recv, f"recv mismatch at node {node}"


class TestStageClassification:
    """Contention-free stage detection: fast paths only where links never
    collide, and every verdict's times equal the per-message oracle's."""

    def test_link_disjoint_stage_is_fast_pathed(self):
        # hypercube 0->1 and 2->3: single distinct links, one vector expression
        specs = [(0.0, 0, 1, 256), (5.0, 2, 3, 512)]
        verdict, send_arr, recv_arr, result = _drain_stage_vs_heap("hypercube", 4, specs)
        assert verdict == STAGE_DISJOINT
        _assert_matches_heap(send_arr, recv_arr, result, 4)

    def test_pairwise_exchange_is_paired(self):
        # recursive-doubling stage: both directions share each undirected link
        specs = [(0.0, 0, 1, 128), (0.0, 1, 0, 128),
                 (2.0, 2, 3, 128), (1.0, 3, 2, 128)]
        verdict, send_arr, recv_arr, result = _drain_stage_vs_heap("hypercube", 4, specs)
        assert verdict == STAGE_PAIRED
        _assert_matches_heap(send_arr, recv_arr, result, 4)

    def test_colliding_stage_takes_the_slow_path(self):
        # mesh row 0->2 and 1->3: both cross link (1,2) — genuine contention,
        # must serialise through the level-by-level drain
        from repro.system.topology import MeshTopology
        specs = [(0.0, 0, 2, 1024), (0.0, 1, 3, 1024)]
        start, src, dst, nbytes = _arrays(specs)
        array_net = Network(_comm(), 4, MeshTopology(1, 4))
        heap_net = Network(_comm(), 4, MeshTopology(1, 4))
        route = array_net.stage_route_info(src, dst)
        assert route.verdict == STAGE_SERIAL
        send_arr, recv_arr = array_net.drain_stage(route, start, nbytes)
        result = heap_net.transfer([Message(src=s, dst=d, nbytes=n, start_time=t)
                                    for t, s, d, n in specs])
        _assert_matches_heap(send_arr, recv_arr, result, 4)

    def test_duplicate_source_takes_the_slow_path(self):
        # one NIC sending twice serialises at the source even on a crossbar
        specs = [(0.0, 0, 1, 64), (0.0, 0, 2, 64)]
        verdict, send_arr, recv_arr, result = _drain_stage_vs_heap("switch", 4, specs)
        assert verdict == STAGE_SERIAL
        _assert_matches_heap(send_arr, recv_arr, result, 4)

    def test_switch_is_structurally_disjoint(self):
        # the crossbar advertises link_disjoint_paths: distinct endpoints are
        # disjoint by construction, no link walk needed
        from repro.system.topology import SwitchedTopology, make_topology
        assert SwitchedTopology(8).link_disjoint_paths
        assert not make_topology("hypercube", 8).link_disjoint_paths
        specs = [(0.0, 0, 5, 256), (0.0, 1, 4, 256), (3.0, 2, 7, 2048)]
        verdict, send_arr, recv_arr, result = _drain_stage_vs_heap("switch", 8, specs)
        assert verdict == STAGE_DISJOINT
        _assert_matches_heap(send_arr, recv_arr, result, 8)

    @pytest.mark.parametrize("kind,nodes", [("hypercube", 8), ("mesh", 6),
                                            ("torus", 8), ("fattree", 8),
                                            ("switch", 8)])
    def test_random_stages_match_heap(self, kind, nodes):
        rng = np.random.default_rng(nodes)
        for trial in range(12):
            n = int(rng.integers(1, 2 * nodes))
            specs = [(float(rng.choice([0.0, 4.0, 9.5])),
                      int(rng.integers(0, nodes)), int(rng.integers(0, nodes)),
                      int(rng.integers(1, 4000))) for _ in range(n)]
            _verdict, send_arr, recv_arr, result = _drain_stage_vs_heap(kind, nodes, specs)
            _assert_matches_heap(send_arr, recv_arr, result, nodes)


def _message_batch(num_nodes: int, seed: int) -> list[tuple[float, int, int, int]]:
    """40 ``(start, src, dst, nbytes)`` messages: sources repeat, start
    times mostly tie, some messages are self-messages."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(40):
        src, dst = rng.integers(0, num_nodes, size=2)
        specs.append((float(rng.choice([0.0, 5.0, 5.0, 12.5])), int(src),
                      int(dst), int(rng.integers(1, 2000))))
    return specs


class TestBatchedNetwork:
    """A structure-of-arrays batch drained by the array path equals the
    per-message drain.

    Forty messages on eight nodes chain five or more deep on a NIC, so these
    batches drain through many levels of the serial path.
    """

    @pytest.mark.parametrize("kind,nodes", [("hypercube", 8), ("mesh", 6),
                                            ("torus", 8), ("fattree", 8),
                                            ("switch", 8)])
    def test_transfer_modes_identical(self, kind, nodes):
        from repro.system.topology import make_topology
        for seed in (1, 2, 3):
            specs = _message_batch(nodes, seed)
            verdict, send_arr, recv_arr, result = _drain_stage_vs_heap(
                kind, nodes, specs)
            assert verdict == STAGE_SERIAL
            _assert_matches_heap(send_arr, recv_arr, result, nodes)

        # one route drained again under new start times: the route must not
        # carry the old times (or the old dispatch order) along
        network = Network(_comm(), nodes, make_topology(kind, nodes))
        _start, src, dst, _nbytes = _arrays(_message_batch(nodes, 4))
        route = network.stage_route_info(src, dst)
        for shift in (0.0, 7.25, 0.0):
            specs = [(t + shift * (k % 3), s, d, n)
                     for k, (t, s, d, n) in enumerate(_message_batch(nodes, 4))]
            start, src, dst, nbytes = _arrays(specs)
            send_arr, recv_arr = network.drain_stage(route, start, nbytes)
            result = Network(_comm(), nodes, make_topology(kind, nodes)).transfer(
                [Message(src=s, dst=d, nbytes=n, start_time=t)
                 for t, s, d, n in specs])
            _assert_matches_heap(send_arr, recv_arr, result, nodes)

    def test_batch_order_matches_transfer_order(self, monkeypatch):
        # the order in which Network.transfer prices its messages, read off
        # the routes it asks for (no two messages share a (src, dst) pair);
        # a negative start sorts first, although both drains clamp it to 0
        from repro.system.topology import HypercubeTopology, make_topology
        priced = []
        route = HypercubeTopology.route
        monkeypatch.setattr(
            HypercubeTopology, "route",
            lambda self, s, d: priced.append((s, d)) or route(self, s, d))
        specs = [(5.0, 0, 1, 64), (1.0, 2, 3, 64), (5.0, 0, 2, 64),
                 (0.0, 4, 5, 64), (-2.0, 6, 7, 64), (0.0, 1, 0, 64)]
        Network(_comm(), 8, make_topology("hypercube", 8)).transfer(
            [Message(src=s, dst=d, nbytes=n, start_time=t)
             for t, s, d, n in specs])
        start, src, dst, _nbytes = _arrays(specs)
        assert [specs[k][1:3] for k in batch_order(start, src, dst)] == priced \
            == [(6, 7), (1, 0), (4, 5), (2, 3), (0, 1), (0, 2)]

        # tied start times: src, then dst, then input order, as Network.transfer
        # sorts its messages
        src = np.array([2, 1, 1, 1], dtype=np.int64)
        dst = np.array([0, 3, 0, 0], dtype=np.int64)
        assert batch_order(np.zeros(4), src, dst).tolist() == [2, 3, 1, 0]
        specs = _message_batch(8, seed=7)
        start, src, dst, _nbytes = _arrays(specs)
        assert batch_order(start, src, dst).tolist() == sorted(
            range(len(specs)), key=lambda k: specs[k][:3])
        # no two start times tie: the start times alone fix the order
        distinct = start + np.arange(len(specs)) * 1e-3
        assert batch_order(distinct, src, dst).tolist() \
            == np.lexsort((dst, src, distinct)).tolist()


# ---------------------------------------------------------------------------
# array-clock kernels == dict-based collectives
# ---------------------------------------------------------------------------


class TestArrayClockKernels:
    """The ``*_clocks`` kernels return bit-identical times to their
    dict-based twins and never mutate the entry clocks."""

    @pytest.mark.parametrize("kind,nodes", [("hypercube", 8), ("mesh", 6),
                                            ("torus", 8), ("fattree", 8),
                                            ("switch", 8), ("hypercube", 5)])
    def test_kernels_match_dict_collectives(self, kind, nodes):
        from repro.system.topology import make_topology
        network = Network(_comm(), nodes, make_topology(kind, nodes))
        ranks = list(range(nodes))
        rng = np.random.default_rng(17)
        clocks_arr = np.round(rng.uniform(0.0, 40.0, size=nodes), 3)
        clocks = {r: float(clocks_arr[r]) for r in ranks}
        entry = clocks_arr.copy()

        cases = [
            (allreduce_clocks(network, clocks_arr, 8, combine_time=0.5,
                              software_overhead=5.0),
             allreduce(network, ranks, 8, clocks, combine_time=0.5,
                       software_overhead=5.0)),
            (allgather_clocks(network, clocks_arr, 32, software_overhead=5.0),
             allgather(network, ranks, 32, clocks, software_overhead=5.0)),
            (unstructured_gather_clocks(network, clocks_arr, 32,
                                        software_overhead=5.0),
             unstructured_gather(network, ranks, 32, clocks,
                                 software_overhead=5.0)),
            (broadcast_clocks(network, 0, clocks_arr, 128,
                              software_overhead=5.0),
             broadcast(network, 0, ranks, 128, clocks, software_overhead=5.0)),
            (broadcast_clocks(network, 3, clocks_arr, 128,
                              software_overhead=5.0),
             broadcast(network, 3, ranks, 128, clocks, software_overhead=5.0)),
        ]
        for got, expected in cases:
            assert got.shape == (nodes,)
            for rank in ranks:
                assert got[rank] == expected[rank]
        np.testing.assert_array_equal(clocks_arr, entry)

    @pytest.mark.parametrize("kind,nodes", [("hypercube", 8), ("mesh", 6),
                                            ("switch", 8)])
    def test_shift_kernel_matches_dict_shift(self, kind, nodes):
        from repro.system.topology import make_topology
        network = Network(_comm(), nodes, make_topology(kind, nodes))
        ranks = list(range(nodes))
        clocks_arr = np.linspace(0.0, 21.0, nodes)
        clocks = {r: float(clocks_arr[r]) for r in ranks}
        pairs = [(r, (r + 1) % nodes) for r in ranks]
        sizes = {pair: 64 * (i + 1) for i, pair in enumerate(pairs)}
        src = np.array([a for a, _ in pairs], dtype=np.int64)
        dst = np.array([b for _, b in pairs], dtype=np.int64)
        nbytes = np.array([sizes[pair] for pair in pairs], dtype=np.int64)

        entry = clocks_arr.copy()
        got, participants = shift_exchange_clocks(
            network, network.stage_route_info(src, dst), nbytes, clocks_arr,
            software_overhead=5.0)
        expected = shift_exchange(network, pairs, sizes, clocks,
                                  software_overhead=5.0)
        assert participants.all()          # a full ring: everyone exchanges
        for rank in ranks:
            assert got[rank] == expected[rank]
        np.testing.assert_array_equal(clocks_arr, entry)

    def test_shift_kernel_flags_non_participants(self):
        from repro.system.topology import make_topology
        network = Network(_comm(), 8, make_topology("hypercube", 8))
        clocks_arr = np.full(8, 3.0)
        src = np.array([0], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        nbytes = np.array([64], dtype=np.int64)
        got, participants = shift_exchange_clocks(
            network, network.stage_route_info(src, dst), nbytes, clocks_arr,
            software_overhead=5.0)
        assert participants.tolist() == [True, True] + [False] * 6
        np.testing.assert_array_equal(got[~participants], 3.0)
        assert (got[participants] >= 8.0).all()

    def test_empty_shift_stage_is_identity(self):
        from repro.system.topology import make_topology
        network = Network(_comm(), 4, make_topology("hypercube", 4))
        clocks_arr = np.array([1.0, 2.0, 3.0, 4.0])
        empty = np.array([], dtype=np.int64)
        got, participants = shift_exchange_clocks(
            network, network.stage_route_info(empty, empty), empty.copy(),
            clocks_arr, software_overhead=5.0)
        assert not participants.any()
        np.testing.assert_array_equal(got, clocks_arr)
        assert got is not clocks_arr

    def test_broadcast_stage_reusing_a_sender_raises(self, monkeypatch):
        # the array kernel drains each broadcast stage at once, which is only
        # the dict routine's semantics when no stage reuses a NIC or receiver
        from repro.simulator.collectives import _broadcast_stages
        from repro.system.topology import SwitchedTopology
        monkeypatch.setattr(SwitchedTopology, "broadcast_schedule",
                            lambda self, p: [[(0, 1), (0, 2)]])
        network = Network(_comm(), 3, SwitchedTopology(3))
        with pytest.raises(SimulationError, match="reuses a sender"):
            _broadcast_stages(network, 3, 0)
        with pytest.raises(SimulationError):
            broadcast_clocks(network, 0, np.zeros(3), 64)


# ---------------------------------------------------------------------------
# collectives: fresh dicts, no shared mutable state between phases
# ---------------------------------------------------------------------------


class TestCollectiveStateHygiene:
    """Every collective returns a fresh dict and never mutates its inputs."""

    def _network(self):
        from repro.system.topology import make_topology
        return Network(_comm(), 8, make_topology("hypercube", 8))

    def test_fresh_dict_and_unmutated_clocks(self):
        network = self._network()
        ranks = list(range(8))
        clocks = {r: 10.0 * r for r in ranks}
        snapshot = dict(clocks)
        pairs = [(r, (r + 1) % 8) for r in ranks]
        sizes = {pair: 64 for pair in pairs}

        calls = [
            lambda: shift_exchange(network, pairs, sizes, clocks,
                                   software_overhead=5.0),
            lambda: broadcast(network, 0, ranks, 128, clocks,
                              software_overhead=5.0),
            lambda: allreduce(network, ranks, 8, clocks, combine_time=0.5,
                              software_overhead=5.0),
            lambda: allgather(network, ranks, 32, clocks,
                              software_overhead=5.0),
            lambda: unstructured_gather(network, ranks, 32, clocks,
                                        software_overhead=5.0),
        ]
        for call in calls:
            first = call()
            second = call()
            assert first is not clocks, "collective returned the caller's dict"
            assert second is not first, "collective reused a result dict"
            assert first == second, "repeated collective call changed times"
            assert clocks == snapshot, "collective mutated the input clocks"

    def test_clock_kernels_return_fresh_arrays(self):
        # the kernels share the schedule plans kept on the network; no
        # result may alias the entry clocks, a planned array, or another result
        network = self._network()
        clocks = np.linspace(0.0, 35.0, 8)
        src = np.arange(8, dtype=np.int64)
        dst = (src + 1) % 8
        nbytes = np.full(8, 64, dtype=np.int64)
        route = network.stage_route_info(src, dst)

        calls = [
            lambda: shift_exchange_clocks(network, route, nbytes, clocks,
                                          software_overhead=5.0)[0],
            lambda: broadcast_clocks(network, 3, clocks, 128,
                                     software_overhead=5.0),
            lambda: allreduce_clocks(network, clocks, 8, combine_time=0.5,
                                     software_overhead=5.0),
            lambda: allgather_clocks(network, clocks, 32,
                                     software_overhead=5.0),
            lambda: unstructured_gather_clocks(network, clocks, 32,
                                               software_overhead=5.0),
        ]
        entry = clocks.copy()
        for call in calls:
            first = call()
            expected = first.copy()
            first[:] = -1.0
            second = call()
            assert second is not clocks, "kernel returned the entry clocks"
            assert second.tobytes() == expected.tobytes(), \
                "a kernel's result was shared with a later call"
            np.testing.assert_array_equal(clocks, entry)

    def test_degenerate_single_rank_is_fresh_too(self):
        network = self._network()
        clocks = {0: 3.0}
        for result in (broadcast(network, 0, [0], 64, clocks),
                       allreduce(network, [0], 8, clocks),
                       allgather(network, [0], 8, clocks),
                       unstructured_gather(network, [0], 8, clocks),
                       shift_exchange(network, [], 0, clocks)):
            assert result is not clocks
            result[0] = -1.0
            assert clocks[0] == 3.0


# ---------------------------------------------------------------------------
# vectorised distribution helpers == their scalar counterparts
# ---------------------------------------------------------------------------


def _axis(extent, kind, nprocs, block=1, offset=0, template_extent=None):
    return AxisMapping(extent=extent, dist=DimDistribution(kind=kind, block=block),
                       nprocs=nprocs, grid_axis=0 if kind != "collapsed" else None,
                       template_extent=template_extent, offset=offset)


class TestVectorisedDistributionHelpers:
    @pytest.mark.parametrize("kind,block", [("block", 1), ("cyclic", 1),
                                            ("cyclic", 3)])
    @pytest.mark.parametrize("offset", [0, 2])
    def test_owners_of_matches_isin(self, kind, block, offset):
        axis = _axis(extent=17, kind=kind, nprocs=4, block=block, offset=offset,
                     template_extent=19 if offset else None)
        values = np.arange(-3, 22, dtype=np.int64)
        owners = axis.owners_of(values)
        for pcoord in range(4):
            expected = np.isin(values, axis.local_indices(pcoord))
            np.testing.assert_array_equal(owners == pcoord, expected)

    @pytest.mark.parametrize("kind,block", [("block", 1), ("cyclic", 1),
                                            ("cyclic", 2), ("collapsed", 1)])
    def test_local_counts_match_local_count(self, kind, block):
        nprocs = 5 if kind != "collapsed" else 1
        axis = _axis(extent=23, kind=kind, nprocs=nprocs, block=block)
        counts = axis.local_counts()
        if kind == "collapsed":
            assert counts.tolist() == [23]
        else:
            assert counts.tolist() == [axis.local_count(p) for p in range(nprocs)]

    def test_local_sizes_match_local_size(self):
        grid = ProcessorGrid("p", (2, 3))
        dist = ArrayDistribution(
            name="a", shape=(10, 9),
            axes=[
                AxisMapping(extent=10, dist=DimDistribution("block"),
                            nprocs=2, grid_axis=0),
                AxisMapping(extent=9, dist=DimDistribution("cyclic"),
                            nprocs=3, grid_axis=1),
            ],
            grid=grid,
        )
        np.testing.assert_array_equal(
            dist.local_sizes(),
            np.array([dist.local_size(r) for r in range(6)]))
        pcoords = dist.axis_pcoords()
        for rank in range(6):
            for axis_no in range(2):
                assert pcoords[rank, axis_no] == \
                    dist._axis_pcoord(rank, dist.axes[axis_no])

    def test_coords_array_and_linear_ranks_roundtrip(self):
        grid = ProcessorGrid("p", (3, 4, 2))
        coords = grid.coords_array()
        for rank in range(grid.size):
            assert tuple(coords[rank]) == grid.coords(rank)
        np.testing.assert_array_equal(grid.linear_ranks(coords),
                                      np.arange(grid.size))
