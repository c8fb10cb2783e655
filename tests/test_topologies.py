"""Tests for the topology-agnostic network layer and the machine registry:
property tests over the three topologies, the partition-safety fix for
non-power-of-two hypercubes, the collective schedules, the registry, and a
cross-machine golden test holding predicted-vs-simulated agreement to the
same bound the iPSC/860 integration tests assert."""

import hashlib
import math

import numpy as np
import pytest

from repro import interpret, measure, predict, simulate, stages
from repro.simulator import Network
from repro.suite import get_entry
from repro.system import (
    CommunicationComponent,
    FatTreeTopology,
    HypercubeTopology,
    MeshTopology,
    SwitchedTopology,
    Topology,
    TopologyError,
    TorusTopology,
    canonical_machine_name,
    get_machine,
    machine_names,
    make_topology,
    near_square_shape,
    register_machine,
    resolve_machine,
    ring_distance,
)
from repro.system.topology import SWITCH_NODE

ALL_TOPOLOGIES = [
    HypercubeTopology(2),
    HypercubeTopology(5),
    HypercubeTopology(6),
    HypercubeTopology(8),
    MeshTopology(1, 5),
    MeshTopology(2, 4),
    MeshTopology(3, 3),
    TorusTopology(1, 5),
    TorusTopology(2, 4),
    TorusTopology(3, 4),
    TorusTopology(4, 4),
    SwitchedTopology(3),
    SwitchedTopology(8),
    FatTreeTopology(5),
    FatTreeTopology(8),
    FatTreeTopology(16),
    FatTreeTopology(16, arity=2),
]

IDS = [f"{t.kind}-{t.num_nodes}" for t in ALL_TOPOLOGIES]


@pytest.mark.parametrize("topo", ALL_TOPOLOGIES, ids=IDS)
class TestTopologyProperties:
    def test_satisfies_protocol(self, topo):
        assert isinstance(topo, Topology)

    def test_route_length_equals_hop_count(self, topo):
        for src in topo.nodes():
            for dst in topo.nodes():
                assert len(topo.route(src, dst)) == topo.hops(src, dst)

    def test_routes_stay_in_partition(self, topo):
        # only switch/fat-tree interconnects own pseudo-nodes: the crossbar
        # exactly SWITCH_NODE, the fat tree any negative switch label;
        # direct networks must never emit one
        allowed = set(topo.nodes())

        def pseudo(label):
            if topo.kind == "switch":
                return label == SWITCH_NODE
            return topo.kind == "fattree" and label < 0

        for src in topo.nodes():
            for dst in topo.nodes():
                for a, b in topo.route(src, dst):
                    assert a in allowed or pseudo(a)
                    assert b in allowed or pseudo(b)

    def test_routes_chain_from_src_to_dst(self, topo):
        for src in topo.nodes():
            for dst in topo.nodes():
                route = topo.route(src, dst)
                if src == dst:
                    assert route == []
                    continue
                assert route[0][0] == src and route[-1][1] == dst
                for (_, b), (c, _) in zip(route, route[1:]):
                    assert b == c

    def test_neighbors_in_partition_and_symmetric(self, topo):
        for node in topo.nodes():
            for other in topo.neighbors(node):
                assert 0 <= other < topo.num_nodes
                assert node in topo.neighbors(other)

    def test_out_of_partition_endpoints_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.route(0, topo.num_nodes)
        with pytest.raises(TopologyError):
            topo.route(-1 if topo.kind != "switch" else topo.num_nodes + 3, 0)
        # TopologyError stays catchable as the historical ValueError
        with pytest.raises(ValueError):
            topo.route(0, topo.num_nodes)

    def test_diameter_bounds_every_route(self, topo):
        diameter = topo.diameter()
        for src in topo.nodes():
            for dst in topo.nodes():
                assert topo.hops(src, dst) <= diameter

    def test_average_distance_positive_and_below_diameter(self, topo):
        if topo.num_nodes > 1:
            assert 0 < topo.average_distance() <= topo.diameter()

    def test_broadcast_schedule_covers_every_position(self, topo):
        for p in (2, 3, topo.num_nodes):
            reached = {0}
            for stage in topo.broadcast_schedule(p):
                for sender, receiver in stage:
                    assert sender in reached, "sender must already hold the data"
                    assert 0 <= receiver < p
                    reached.add(receiver)
            assert reached == set(range(p))

    def test_exchange_schedule_stage_count(self, topo):
        p = topo.num_nodes
        if p > 1:
            assert len(topo.exchange_schedule(p)) == int(math.ceil(math.log2(p)))

    def test_route_matrix_matches_routes(self, topo):
        # every ordered pair in one call: row k is route k's links in order,
        # padded with -1, and two hops share an id exactly when they share
        # a link_id (on non-power-of-two hypercubes some rows take the
        # partition-safe route)
        pairs = [(s, d) for s in topo.nodes() for d in topo.nodes()]
        src = np.array([s for s, _ in pairs], dtype=np.int64)
        dst = np.array([d for _, d in pairs], dtype=np.int64)
        links, hops = topo.route_matrix(src, dst)
        assert links.dtype == hops.dtype == np.int64
        assert links.shape == (len(pairs), max(topo.hops(s, d) for s, d in pairs))
        ids: dict = {}
        for k, (s, d) in enumerate(pairs):
            route = topo.route(s, d)
            assert hops[k] == len(route)
            assert (links[k, len(route):] == -1).all()
            for h, (a, b) in enumerate(route):
                assert ids.setdefault(topo.link_id(a, b), links[k, h]) == links[k, h]
        assert len(set(ids.values())) == len(ids)


def test_exchange_stages_pair_each_position_with_its_xor_partner():
    # recursive doubling as arrays; exchange_schedule is their list view
    topo = make_topology("mesh", 4)
    for p in (1, 2, 3, 5, 8, 12, 100):
        stages = topo.exchange_stages(p)
        assert len(stages) == (p - 1).bit_length()
        for s, (i, j) in enumerate(stages):
            span = 1 << s
            assert i.dtype == j.dtype == np.int64
            assert i.tolist() == [a for a in range(p) if a < a ^ span < p]
            assert (j == i ^ span).all()
        assert topo.exchange_schedule(p) == [
            list(zip(i.tolist(), j.tolist())) for i, j in stages]


class TestHypercubePartitionSafety:
    """Satellite fix: non-power-of-two partitions never route off-partition."""

    @pytest.mark.parametrize("p", [3, 5, 6, 7])
    def test_routes_never_visit_missing_nodes(self, p):
        topo = HypercubeTopology(p)
        for src in range(p):
            for dst in range(p):
                for a, b in topo.route(src, dst):
                    assert a < p and b < p

    def test_classic_ecube_would_leave_partition(self):
        # 5 -> 2 in a 6-node partition passes through node 6 under ascending
        # e-cube order; the partition-safe fallback must avoid it.
        topo = HypercubeTopology(6)
        route = topo.route(5, 2)
        assert all(b < 6 for _, b in route)
        assert len(route) == topo.hops(5, 2) == 3  # still minimal

    @pytest.mark.parametrize("p", [3, 5, 6, 7])
    def test_neighbors_never_exceed_partition(self, p):
        topo = HypercubeTopology(p)
        for node in range(p):
            assert all(other < p for other in topo.neighbors(node))

    def test_unroutable_pair_raises_topology_error(self):
        with pytest.raises(TopologyError):
            HypercubeTopology(6).route(0, 6)
        with pytest.raises(TopologyError):
            HypercubeTopology(6).neighbors(7)


class TestMeshTopology:
    def test_xy_routes_are_minimal(self):
        topo = MeshTopology(4, 4)
        for src in topo.nodes():
            for dst in topo.nodes():
                (r1, c1), (r2, c2) = topo.coords(src), topo.coords(dst)
                manhattan = abs(r1 - r2) + abs(c1 - c2)
                assert len(topo.route(src, dst)) == manhattan

    def test_xy_order_goes_column_first(self):
        topo = MeshTopology(3, 3)
        route = topo.route(0, 8)  # (0,0) -> (2,2)
        # first hops change the column, later hops the row
        cols = [topo.coords(b)[1] for _, b in route]
        assert cols == [1, 2, 2, 2]

    def test_shape_metrics(self):
        topo = MeshTopology(4, 4)
        assert topo.diameter() == 6
        assert topo.bisection_links() == 4
        assert len(topo.links()) == 2 * 4 * 3  # 24 undirected links

    def test_factory_factorises_near_square(self):
        assert near_square_shape(12) == (3, 4)
        assert near_square_shape(16) == (4, 4)
        assert near_square_shape(5) == (1, 5)
        topo = make_topology("mesh", 12)
        assert topo.shape == (3, 4)

    def test_explicit_shape_validated(self):
        with pytest.raises(TopologyError):
            make_topology("mesh", 8, shape=(3, 3))


class TestSwitchedTopology:
    def test_constant_hops(self):
        topo = SwitchedTopology(8)
        for src in topo.nodes():
            for dst in topo.nodes():
                assert topo.hops(src, dst) == (0 if src == dst else 2)

    def test_routes_pass_through_switch(self):
        topo = SwitchedTopology(4)
        assert topo.route(1, 3) == [(1, SWITCH_NODE), (SWITCH_NODE, 3)]

    def test_up_and_down_links_are_distinct(self):
        topo = SwitchedTopology(4)
        up = topo.link_id(1, SWITCH_NODE)
        down = topo.link_id(SWITCH_NODE, 1)
        assert up != down
        assert len(topo.links()) == 8

    def test_disjoint_pairs_do_not_contend(self):
        from repro.simulator import Message
        comm = CommunicationComponent()
        network = Network(comm, 4, topology=SwitchedTopology(4))
        msgs = [Message(src=0, dst=1, nbytes=2048), Message(src=2, dst=3, nbytes=2048)]
        result = network.transfer(msgs)
        assert abs(msgs[0].recv_complete - msgs[1].recv_complete) < 1.0
        assert set(result.recv_complete) == {1, 3}


class TestMakeTopology:
    def test_kinds_and_aliases(self):
        assert make_topology("hypercube", 8).kind == "hypercube"
        assert make_topology("cube", 8).kind == "hypercube"
        assert make_topology("mesh", 8).kind == "mesh"
        assert make_topology("torus", 8).kind == "torus"
        assert make_topology("wrapmesh", 8).kind == "torus"
        assert make_topology("crossbar", 8).kind == "switch"
        assert make_topology("switched", 8).kind == "switch"

    def test_unknown_kind_rejected(self):
        with pytest.raises(TopologyError):
            make_topology("dragonfly", 8)

    def test_empty_partition_rejected(self):
        with pytest.raises(TopologyError):
            make_topology("mesh", 0)

    def test_torus_shape_validated(self):
        assert make_topology("torus", 12, shape=(3, 4)).shape == (3, 4)
        with pytest.raises(TopologyError):
            make_topology("torus", 8, shape=(3, 3))


class TestTorusTopology:
    def test_wrap_links_present(self):
        topo = TorusTopology(4, 4)
        assert topo.node_at(0, 3) in topo.neighbors(topo.node_at(0, 0))
        assert topo.node_at(3, 0) in topo.neighbors(topo.node_at(0, 0))

    def test_hops_take_shorter_way_around(self):
        topo = TorusTopology(4, 4)
        assert topo.hops(topo.node_at(0, 0), topo.node_at(0, 3)) == 1
        assert topo.hops(topo.node_at(0, 0), topo.node_at(3, 3)) == 2
        assert ring_distance(0, 3, 4) == 1

    def test_diameter_half_of_mesh(self):
        assert TorusTopology(4, 4).diameter() == 4
        assert MeshTopology(4, 4).diameter() == 6

    def test_bisection_doubles_mesh(self):
        # wrap links double the label-halving cut when the rings are > 2 long
        assert TorusTopology(4, 4).bisection_links() == 8
        assert MeshTopology(4, 4).bisection_links() == 4

    def test_degenerate_rings_collapse_to_mesh_links(self):
        # 2-rings: the wrap link would duplicate the direct link
        topo = TorusTopology(2, 2)
        for node in topo.nodes():
            assert len(topo.neighbors(node)) == 2
        line = TorusTopology(1, 4)
        assert set(line.neighbors(0)) == {1, 3}

    def test_average_distance_closed_form_matches_enumeration(self):
        topo = TorusTopology(3, 4)
        brute = sum(topo.hops(a, b) for a in topo.nodes() for b in topo.nodes()
                    if a != b) / (12 * 11)
        assert topo.average_distance() == pytest.approx(brute)

    def test_torus_cluster_machine_registered(self):
        machine = get_machine("torus-cluster", 8)
        assert machine.topology_kind == "torus"
        assert machine.topology().kind == "torus"
        assert get_machine("torus", 8).name == machine.name
        assert get_machine("t3d", 8).name == machine.name
        assert "torus-cluster" in machine_names()

    def test_topology_shape_threads_through_machine(self):
        machine = get_machine("torus-cluster", 8, topology_shape=(2, 4))
        assert machine.topology().shape == (2, 4)
        # subpartitions the shape does not tile fall back to near-square
        assert machine.topology(4).shape == (2, 2)
        scaled = machine.scaled(flop_scale=2.0)
        assert scaled.topology_shape == (2, 4)

    def test_bad_shapes_rejected_with_topology_error(self):
        with pytest.raises(TopologyError):
            get_machine("torus-cluster", 8, topology_shape=(3, 3))
        with pytest.raises(TopologyError):
            get_machine("paragon", 8, topology_shape=(2, 3))
        with pytest.raises(TopologyError):
            get_machine("cluster", 8, topology_shape=(2, 4))

    @pytest.mark.parametrize("key, size", [
        ("lfk1", 1024),
        ("laplace_block_star", 64),
    ])
    def test_prediction_error_within_paper_band(self, key, size):
        entry = get_entry(key)
        errors = []
        for nprocs in (1, 4, 8):
            compiled = entry.compile(size, nprocs)
            machine = get_machine("torus-cluster", nprocs)
            est = interpret(compiled, machine, options=entry.interpreter_options(size))
            sim = simulate(compiled, machine)
            errors.append(abs(est.predicted_time_us - sim.measured_time_us)
                          / sim.measured_time_us * 100.0)
        assert max(errors) < 20.0, f"torus-cluster/{key}: {errors}"


class TestFatTreeTopology:
    def test_leaf_group_peers_are_two_hops(self):
        topo = FatTreeTopology(16)
        assert set(topo.neighbors(0)) == {1, 2, 3}
        assert topo.hops(0, 3) == 2
        assert topo.hops(0, 4) == 4          # different leaf group: via level 2

    def test_diameter_grows_logarithmically(self):
        assert FatTreeTopology(4).diameter() == 2
        assert FatTreeTopology(16).diameter() == 4
        assert FatTreeTopology(64).diameter() == 6
        assert FatTreeTopology(16, arity=2).diameter() == 8

    @pytest.mark.parametrize("n, arity", [(5, 4), (8, 4), (16, 4), (16, 2),
                                          (27, 3), (13, 3)])
    def test_average_distance_closed_form_matches_enumeration(self, n, arity):
        topo = FatTreeTopology(n, arity=arity)
        brute = sum(topo.hops(a, b) for a in topo.nodes() for b in topo.nodes()
                    if a != b) / (n * (n - 1))
        assert topo.average_distance() == pytest.approx(brute)

    @pytest.mark.parametrize("arity", [2, 3, 4, 5, 7, 8])
    def test_levels_exact_at_powers_of_arity(self, arity):
        # float log would overstate levels at exact powers (log(125,5) > 3)
        for exponent in (1, 2, 3):
            topo = FatTreeTopology(arity ** exponent, arity=arity)
            assert topo.levels == exponent
            if topo.num_nodes > 1:
                assert topo.diameter() == 2 * topo.levels
                assert topo.bisection_links() > 0

    def test_parallel_upper_links_spread_disjoint_routes(self):
        # the fat part: two disjoint cross-group pairs whose (src + dst)
        # channel seeds differ must not share an upper link, so they never
        # contend even though both leave leaf group 0 for leaf group 1
        topo = FatTreeTopology(16)
        links_a = {topo.link_id(a, b) for a, b in topo.route(0, 4)}   # seed 4
        links_b = {topo.link_id(a, b) for a, b in topo.route(2, 7)}   # seed 9
        assert not (links_a & links_b)

    def test_switch_labels_are_unique_pseudo_nodes(self):
        topo = FatTreeTopology(16, arity=2)
        seen = {}
        for level in range(1, topo.levels + 1):
            groups = -(-topo.num_nodes // topo.arity ** level)
            for group in range(groups):
                for channel in range(topo._width(level)):
                    label = topo._switch(level, group, channel)
                    assert label < 0
                    assert label not in seen, (seen[label], (level, group, channel))
                    seen[label] = (level, group, channel)

    def test_bisection_positive_and_richer_than_single_switch(self):
        assert FatTreeTopology(4).bisection_links() == 2
        assert FatTreeTopology(16).bisection_links() >= 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TopologyError):
            FatTreeTopology(0)
        with pytest.raises(TopologyError):
            FatTreeTopology(8, arity=1)

    def test_make_topology_aliases(self):
        for alias in ("fattree", "fat-tree", "fat_tree", "tree"):
            assert make_topology(alias, 8).kind == "fattree"
        assert make_topology("fattree", 27, arity=3).arity == 3

    def test_cm5_machine_registered(self):
        machine = get_machine("cm5", 8)
        assert machine.topology_kind == "fattree"
        assert machine.topology().kind == "fattree"
        assert get_machine("cm-5", 8).name == machine.name
        assert get_machine("fat-tree", 8).name == machine.name
        # shapes are a mesh/torus concept; the fat tree must reject them
        with pytest.raises(TopologyError):
            get_machine("cm5", 8, topology_shape=(2, 4))

    def test_control_network_barriers_cheapest_of_registry(self):
        cm5_comm = get_machine("cm5", 8).communication
        for other in ("ipsc860", "paragon", "cluster", "torus-cluster"):
            assert cm5_comm.barrier_per_stage < \
                get_machine(other, 8).communication.barrier_per_stage

    @pytest.mark.parametrize("key, size", [
        ("lfk1", 1024),
        ("laplace_block_star", 64),
    ])
    def test_prediction_error_within_paper_band(self, key, size):
        entry = get_entry(key)
        errors = []
        for nprocs in (1, 4, 8):
            compiled = entry.compile(size, nprocs)
            machine = get_machine("cm5", nprocs)
            est = interpret(compiled, machine, options=entry.interpreter_options(size))
            sim = simulate(compiled, machine)
            errors.append(abs(est.predicted_time_us - sim.measured_time_us)
                          / sim.measured_time_us * 100.0)
        assert max(errors) < 20.0, f"cm5/{key}: {errors}"


#: sha256 over ``repr(machine)``, ``machine.sag.describe()`` and
#: :func:`repro.stages.machine_stage_token` of every registered machine at
#: each of :data:`REGISTRY_PROC_COUNTS`, in that order.  Computed while each
#: machine module still built its own SAG; the shared builder must not move
#: it, nor any price-cache or store key derived from these fields.
REGISTRY_DIGEST = \
    "d3fbc2df8fd4aa4b5b5d6d0fec281e82e69b4c2e6b40b07ca99d78324f964da9"
REGISTRY_PROC_COUNTS = (1, 3, 8, 64, 1024)


class TestMachineRegistry:
    def test_builtin_machines(self):
        assert {"ipsc860", "paragon", "cluster", "torus-cluster",
                "cm5"} <= set(machine_names())
        for name, kind in (("ipsc860", "hypercube"), ("paragon", "mesh"),
                           ("cluster", "switch"), ("cm5", "fattree")):
            machine = get_machine(name, 8)
            assert machine.num_nodes == 8
            assert machine.topology().kind == kind
            assert machine.topology().num_nodes == 8
            assert machine.communication.startup_latency > 0

    def test_aliases_resolve(self):
        assert get_machine("iPSC/860", 4).topology_kind == "hypercube"
        assert get_machine("mesh", 4).topology_kind == "mesh"
        assert get_machine("delta", 4).topology_kind == "switch"
        # the factories' own names and spaced or upper-case spellings
        for name, canonical in (("torus_cluster", "torus-cluster"),
                                ("modern_cluster", "modern-cluster"),
                                ("Modern Cluster", "modern-cluster"),
                                ("TORUS CLUSTER", "torus-cluster")):
            assert canonical_machine_name(name) == canonical
            assert get_machine(name, 4).name == get_machine(canonical, 4).name

    def test_unknown_machine_raises(self):
        with pytest.raises(KeyError):
            get_machine("sx-4", 8)

    def test_registry_digest(self):
        digest = hashlib.sha256()
        for name in machine_names():
            for nprocs in REGISTRY_PROC_COUNTS:
                machine = get_machine(name, nprocs)
                for text in (repr(machine), machine.sag.describe(),
                             stages.machine_stage_token(machine)):
                    digest.update(text.encode())
        assert digest.hexdigest() == REGISTRY_DIGEST

    def test_resolve_machine_accepts_name_instance_and_none(self):
        machine = get_machine("paragon", 4)
        assert resolve_machine(machine, 8) is machine   # instance passes through
        assert resolve_machine("cluster", 4).topology_kind == "switch"
        assert resolve_machine(None, 4).topology_kind == "hypercube"

    def test_register_custom_machine(self):
        from repro.system.registry import _ALIASES, _MACHINES

        def tiny(nprocs=2, noise_seed=0):
            machine = get_machine("ipsc860", nprocs, noise_seed)
            machine.name = "Tiny"
            return machine

        register_machine("tinycube", tiny, description="test-only target")
        try:
            assert get_machine("tinycube", 2).name == "Tiny"
            assert "tinycube" in machine_names()
        finally:
            _MACHINES.pop("tinycube", None)
            _ALIASES.pop("tinycube", None)

    def test_scaled_machine_preserves_topology(self):
        machine = get_machine("paragon", 8)
        scaled = machine.scaled(flop_scale=2.0)
        assert scaled.topology_kind == "mesh"
        assert scaled.communication.startup_latency == machine.communication.startup_latency


class TestTopLevelMachineThreading:
    SOURCE = (
        "      program t\n"
        "      integer, parameter :: n = 64\n"
        "      real, dimension(n) :: a\n"
        "!HPF$ PROCESSORS p(4)\n"
        "!HPF$ DISTRIBUTE a(BLOCK) ONTO p\n"
        "      forall (i = 1:n) a(i) = i * 0.5\n"
        "      s = sum(a)\n"
        "      print *, s\n"
        "      end program t\n"
    )

    def test_predict_and_measure_accept_machine_names(self):
        for name in machine_names():
            est = predict(self.SOURCE, nprocs=4, machine=name)
            sim = measure(self.SOURCE, nprocs=4, machine=name)
            assert est.predicted_time_us > 0
            assert sim.measured_time_us > 0

    def test_predict_accepts_machine_instance(self):
        machine = get_machine("paragon", 8)
        est = predict(self.SOURCE, nprocs=8, machine=machine)
        assert est.machine is machine

    def test_machines_rank_differently_from_comm_weight(self):
        # the cluster's huge startup latency must surface in comm-heavy code
        est_cluster = predict(self.SOURCE, nprocs=4, machine="cluster")
        est_paragon = predict(self.SOURCE, nprocs=4, machine="paragon")
        assert est_cluster.total.communication > est_paragon.total.communication


class TestCrossMachineGolden:
    """Predicted-vs-simulated agreement on the new machines stays within the
    bound the iPSC/860 integration tests assert (§5.1: worst < 20 %)."""

    @pytest.mark.parametrize("machine_name", ["paragon", "cluster"])
    @pytest.mark.parametrize("key, size", [
        ("lfk1", 1024),
        ("pbs4", 1024),
        ("laplace_block_star", 64),
    ])
    def test_prediction_error_within_paper_band(self, machine_name, key, size):
        entry = get_entry(key)
        errors = []
        for nprocs in (1, 4, 8):
            compiled = entry.compile(size, nprocs)
            machine = get_machine(machine_name, nprocs)
            est = interpret(compiled, machine, options=entry.interpreter_options(size))
            sim = simulate(compiled, machine)
            errors.append(abs(est.predicted_time_us - sim.measured_time_us)
                          / sim.measured_time_us * 100.0)
        assert max(errors) < 20.0, f"{machine_name}/{key}: {errors}"
        assert min(errors) < 6.0

    @pytest.mark.parametrize("machine_name", ["paragon", "cluster"])
    def test_every_suite_entry_runs_on_every_machine(self, machine_name):
        """Both pipelines run the whole suite on the new machines, within bound."""
        from repro.suite import all_entries

        for key, entry in all_entries().items():
            size = entry.sizes[0]
            compiled = entry.compile(size, nprocs=4)
            machine = get_machine(machine_name, 4)
            est = interpret(compiled, machine, options=entry.interpreter_options(size))
            sim = simulate(compiled, machine)
            assert est.predicted_time_us > 0, key
            assert sim.measured_time_us > 0, key
            error = abs(est.predicted_time_us - sim.measured_time_us) \
                / sim.measured_time_us * 100.0
            assert error < 20.0, f"{machine_name}/{key}: {error:.1f}%"

    def test_network_layer_is_hypercube_free(self):
        """Acceptance: routing in network/collectives goes through the protocol."""
        import inspect

        import repro.simulator.collectives as collectives
        import repro.simulator.network as network
        for module in (network, collectives):
            source = inspect.getsource(module)
            assert "from .hypercube" not in source
            assert "import hypercube" not in source
            assert "HypercubeTopology" not in source
