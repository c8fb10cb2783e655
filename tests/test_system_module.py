"""Tests for the Systems Module: SAU/SAG, iPSC/860 abstraction, cost models."""

import pytest

from repro.system import (
    SAG,
    SAU,
    CommunicationComponent,
    ExperimentationCostModel,
    MemoryComponent,
    ProcessingComponent,
    allgather_time,
    allreduce_time,
    average_hypercube_hops,
    barrier_time,
    broadcast_time,
    cshift_cost,
    gather_time,
    get_machine,
    hypercube_dim,
    ipsc860,
    message_packets,
    p2p_time,
    reduction_cost,
    shift_exchange_time,
    sum_cost,
    unstructured_gather_time,
)
from repro.system.ipsc860 import PROGRAM_STARTUP_US


class TestSAUAndSAG:
    def test_ipsc860_sag_structure(self):
        sag = ipsc860(8).sag
        assert sag.find("host") is not None
        assert sag.find("cube") is not None
        assert sag.find("node") is not None
        assert sag.num_nodes() == 8

    def test_sau_components_present(self):
        machine = ipsc860(8)
        node = machine.node
        assert isinstance(node.processing, ProcessingComponent)
        assert isinstance(node.memory, MemoryComponent)
        assert isinstance(node.communication, CommunicationComponent)

    def test_i860_headline_parameters(self):
        machine = ipsc860(8)
        assert machine.processing.clock_mhz == 40.0
        assert machine.processing.peak_mflops_sp == 80.0
        assert machine.memory.dcache_kbytes == 8.0
        assert machine.memory.main_memory_mbytes == 8.0
        assert machine.communication.startup_latency == pytest.approx(75.0)

    def test_double_precision_slower_than_single(self):
        proc = ipsc860(4).processing
        assert proc.flop_time("double") > proc.flop_time("real")

    def test_memory_access_time_interpolates(self):
        mem = ipsc860(4).memory
        assert mem.access_time(1.0) == pytest.approx(mem.hit_time)
        assert mem.access_time(0.0) == pytest.approx(mem.miss_penalty)
        assert mem.hit_time < mem.access_time(0.5) < mem.miss_penalty

    def test_sau_find_and_walk(self):
        sag = ipsc860(4).sag
        names = {sau.name for sau in sag.walk()}
        assert {"system", "host", "cube", "node"} <= names
        assert sag.find("nonexistent") is None

    def test_machine_scaled_perturbation(self):
        machine = ipsc860(8)
        perturbed = machine.scaled(latency_scale=2.0, bandwidth_scale=0.5)
        assert perturbed.communication.startup_latency == pytest.approx(150.0)
        assert perturbed.communication.per_byte == pytest.approx(0.72)
        # original untouched
        assert machine.communication.startup_latency == pytest.approx(75.0)

    @pytest.mark.parametrize("name", ["modern-cluster", "ipsc860"])
    def test_machine_scaled_keeps_the_sag_shape(self, name):
        machine = get_machine(name, 64)
        perturbed = machine.scaled(flop_scale=3.0, latency_scale=2.0)
        # root, fabric and node export the same perturbed components
        for sau in (perturbed.sag.root, perturbed.cube, perturbed.node):
            assert sau.processing == perturbed.processing
            assert sau.communication == perturbed.communication
        assert perturbed.sag.root.processing.clock_mhz \
            == machine.sag.root.processing.clock_mhz
        assert perturbed.node.communication.startup_latency \
            == 2.0 * machine.communication.startup_latency
        # same shape, host, descriptions and attributes; only the name moves
        assert [(s.name, s.level, s.description, s.attributes)
                for s in perturbed.sag.walk()] \
            == [(s.name, s.level, s.description, s.attributes)
                for s in machine.sag.walk()]
        assert perturbed.host == machine.host
        assert perturbed.name == f"{machine.name}-scaled"

    def test_sag_describe(self):
        sag = ipsc860(2).sag
        assert "iPSC/860" in sag.describe()

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            ipsc860(0)

    def test_program_startup_constant_positive(self):
        assert PROGRAM_STARTUP_US > 0


class TestCommModels:
    COMM = CommunicationComponent()

    def test_p2p_monotone_in_size(self):
        times = [p2p_time(self.COMM, nbytes) for nbytes in (0, 64, 1024, 65536)]
        assert times == sorted(times)
        assert times[0] >= self.COMM.startup_latency

    def test_long_message_protocol_switch(self):
        short = p2p_time(self.COMM, self.COMM.long_message_threshold)
        longer = p2p_time(self.COMM, self.COMM.long_message_threshold + 1)
        assert longer - short > self.COMM.per_byte  # jumps by the protocol difference

    def test_hop_penalty(self):
        near = p2p_time(self.COMM, 256, hops=1)
        far = p2p_time(self.COMM, 256, hops=3)
        assert far == pytest.approx(near + 2 * self.COMM.per_hop)

    def test_packetization(self):
        assert message_packets(self.COMM, 0) == 1
        assert message_packets(self.COMM, 1024) == 1
        assert message_packets(self.COMM, 1025) == 2

    def test_collectives_scale_logarithmically(self):
        b2 = broadcast_time(self.COMM, 4, 2)
        b8 = broadcast_time(self.COMM, 4, 8)
        assert b8 > b2
        assert b8 < 4 * b2  # log2(8)=3 stages, not 4x

    @pytest.mark.parametrize("func", [broadcast_time, allreduce_time, allgather_time,
                                      gather_time, unstructured_gather_time])
    def test_collectives_zero_on_single_node(self, func):
        assert func(self.COMM, 128, 1) == 0.0

    def test_reduce_vs_allreduce(self):
        from repro.system import reduce_time
        assert allreduce_time(self.COMM, 8, 8) >= reduce_time(self.COMM, 8, 8) * 0.99

    def test_barrier_time(self):
        assert barrier_time(self.COMM, 1) == 0.0
        assert barrier_time(self.COMM, 8) == pytest.approx(3 * self.COMM.barrier_per_stage)

    def test_shift_exchange_greater_than_p2p(self):
        assert shift_exchange_time(self.COMM, 512) > p2p_time(self.COMM, 512)

    def test_hypercube_helpers(self):
        assert hypercube_dim(8) == 3
        assert hypercube_dim(1) == 0
        assert average_hypercube_hops(8) == pytest.approx(1.5)
        assert average_hypercube_hops(1) == 1.0

    def test_allgather_grows_with_block(self):
        small = allgather_time(self.COMM, 16, 8)
        large = allgather_time(self.COMM, 4096, 8)
        assert large > small


class TestCommModelDegenerateInputs:
    """Satellite guards: zero-byte and single-node collectives cost nothing,
    negative sizes and hop counts are clamped instead of corrupting costs."""

    COMM = CommunicationComponent()

    @pytest.mark.parametrize("func", [broadcast_time, allreduce_time, allgather_time,
                                      gather_time, unstructured_gather_time])
    def test_single_node_collectives_cost_zero(self, func):
        assert func(self.COMM, 4096, 1) == 0.0
        assert func(self.COMM, 4096, 0) == 0.0
        assert func(self.COMM, 4096, -3) == 0.0

    @pytest.mark.parametrize("func", [broadcast_time, allreduce_time, allgather_time,
                                      gather_time, unstructured_gather_time])
    def test_zero_byte_collectives_cost_zero(self, func):
        assert func(self.COMM, 0, 8) == 0.0
        assert func(self.COMM, -128, 8) == 0.0

    def test_reduce_time_guards(self):
        from repro.system import reduce_time
        assert reduce_time(self.COMM, 0, 8) == 0.0
        assert reduce_time(self.COMM, 8, 1) == 0.0

    def test_barrier_single_node_is_free(self):
        assert barrier_time(self.COMM, 1) == 0.0
        assert barrier_time(self.COMM, 0) == 0.0

    def test_negative_hops_clamped(self):
        assert p2p_time(self.COMM, 256, hops=-4) == p2p_time(self.COMM, 256, hops=1)
        assert shift_exchange_time(self.COMM, 256, hops=-1) == \
            shift_exchange_time(self.COMM, 256, hops=1)

    def test_negative_bytes_clamped(self):
        assert p2p_time(self.COMM, -512) == p2p_time(self.COMM, 0)
        assert message_packets(self.COMM, -1) == 1

    def test_topology_aware_costs_match_legacy_on_hypercube(self):
        """Passing the hypercube topology must reproduce the original model."""
        from repro.system import HypercubeTopology
        for p in (2, 4, 8):
            topo = HypercubeTopology(p)
            assert broadcast_time(self.COMM, 512, p, topology=topo) == \
                pytest.approx(broadcast_time(self.COMM, 512, p))
            assert allreduce_time(self.COMM, 8, p, topology=topo) == \
                pytest.approx(allreduce_time(self.COMM, 8, p))
            assert allgather_time(self.COMM, 256, p, topology=topo) == \
                pytest.approx(allgather_time(self.COMM, 256, p))

    def test_mesh_and_switch_collectives_cost_more_per_stage_distance(self):
        """Multi-hop stages surface in the topology-aware collective costs."""
        from repro.system import MeshTopology, SwitchedTopology
        flat = broadcast_time(self.COMM, 512, 8)
        mesh = broadcast_time(self.COMM, 512, 8, topology=MeshTopology(2, 4))
        switch = broadcast_time(self.COMM, 512, 8, topology=SwitchedTopology(8))
        assert mesh >= flat        # one two-hop row stage on the 2x4 mesh
        assert switch > flat       # every stage crosses the switch (2 hops)


class TestIntrinsicCosts:
    PROC = ProcessingComponent()
    COMM = CommunicationComponent()

    def test_cshift_local_only_when_single_proc(self):
        local = cshift_cost(self.PROC, self.COMM, 1000, 1, 4, nprocs_along_axis=1)
        distributed = cshift_cost(self.PROC, self.COMM, 1000, 1, 4, nprocs_along_axis=4)
        assert distributed > local
        assert distributed - local >= self.COMM.startup_latency

    def test_reduction_cost_scales_with_local_elements(self):
        small = sum_cost(self.PROC, self.COMM, 100, 8)
        large = sum_cost(self.PROC, self.COMM, 10000, 8)
        assert large > small

    def test_reduction_cost_includes_collective(self):
        serial = reduction_cost(self.PROC, self.COMM, 1000, 1)
        parallel = reduction_cost(self.PROC, self.COMM, 1000, 8)
        assert parallel > serial

    def test_maxloc_costs_more_than_sum(self):
        from repro.system import maxloc_cost
        assert maxloc_cost(self.PROC, self.COMM, 1000, 8) > 0


class TestWorkflowModel:
    def test_measured_workflow_dominated_by_fixed_steps(self):
        model = ExperimentationCostModel()
        measured = model.measured_minutes(configurations=3, runs_per_config=3,
                                          avg_run_time_s=0.5)
        interpreted = model.interpreted_minutes(configurations=3, interpret_time_s=1.0)
        assert measured > interpreted
        assert measured > 20.0

    def test_queue_wait_matters(self):
        model = ExperimentationCostModel()
        with_queue = model.measured_minutes(3, 3, 0.5, include_queue=True)
        without_queue = model.measured_minutes(3, 3, 0.5, include_queue=False)
        assert with_queue > without_queue

    def test_more_runs_cost_more(self):
        model = ExperimentationCostModel()
        assert model.measured_minutes(1, 10, 1.0) > model.measured_minutes(1, 1, 1.0)
