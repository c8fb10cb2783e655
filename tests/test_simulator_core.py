"""Tests for the simulator substrates: hypercube, network, collectives,
node cost model and noise."""

from dataclasses import replace

import numpy as np
import pytest

from repro.interpreter.expression_cost import OpCount
from repro.simulator import (
    IterationProfile,
    Message,
    Network,
    NodeCostModel,
    NoiseModel,
    NoiseOptions,
    allgather,
    allreduce,
    broadcast,
    shift_exchange,
    unstructured_gather,
)
from repro.system import CommunicationComponent, ipsc860
from repro.system.topology import (
    HypercubeTopology,
    cube_dimension,
    ecube_route,
    hamming_distance,
)


class TestHypercube:
    def test_dimension(self):
        assert cube_dimension(1) == 0
        assert cube_dimension(2) == 1
        assert cube_dimension(8) == 3
        assert cube_dimension(5) == 3

    def test_route_length_equals_hamming_distance(self):
        for src in range(8):
            for dst in range(8):
                assert len(ecube_route(src, dst)) == hamming_distance(src, dst)

    def test_route_endpoints(self):
        route = ecube_route(0, 7)
        assert route[0][0] == 0 and route[-1][1] == 7
        # consecutive hops chain together
        for (a, b), (c, d) in zip(route, route[1:]):
            assert b == c

    def test_neighbors_within_partition(self):
        topo = HypercubeTopology(6)
        for node in topo.nodes():
            for other in topo.neighbors(node):
                assert other < 6
                assert hamming_distance(node, other) == 1

    def test_average_distance_of_8_cube(self):
        topo = HypercubeTopology(8)
        assert topo.average_distance() == pytest.approx(12.0 / 7.0, rel=1e-6)

    def test_route_outside_partition_rejected(self):
        with pytest.raises(ValueError):
            HypercubeTopology(4).route(0, 5)


class TestNetwork:
    COMM = CommunicationComponent()

    def test_single_message_matches_analytic_time(self):
        network = Network(self.COMM, 8)
        msg = Message(src=0, dst=1, nbytes=256, start_time=0.0)
        result = network.transfer([msg])
        assert msg.recv_complete == pytest.approx(
            self.COMM.latency(256) + 256 * self.COMM.per_byte, rel=0.05)
        assert result.completion(1) >= result.completion(0) * 0.5

    def test_multi_hop_message_costs_more(self):
        network = Network(self.COMM, 8)
        near = Message(src=0, dst=1, nbytes=1024)
        far = Message(src=0, dst=7, nbytes=1024)
        network.transfer([near])
        network.transfer([far])
        assert far.recv_complete > near.recv_complete

    def test_link_contention_serialises(self):
        network = Network(self.COMM, 8)
        # two messages that share the 0-1 link
        a = Message(src=0, dst=1, nbytes=4096)
        b = Message(src=0, dst=1, nbytes=4096)
        result = network.transfer([a, b])
        solo = Network(self.COMM, 8).transfer([Message(src=0, dst=1, nbytes=4096)])
        assert result.completion(1) > solo.completion(1) * 1.5

    def test_disjoint_messages_proceed_in_parallel(self):
        network = Network(self.COMM, 8)
        msgs = [Message(src=0, dst=1, nbytes=2048), Message(src=2, dst=3, nbytes=2048)]
        result = network.transfer(msgs)
        assert abs(msgs[0].recv_complete - msgs[1].recv_complete) < 1.0
        assert set(result.recv_complete) == {1, 3}

    def test_start_times_respected(self):
        network = Network(self.COMM, 4)
        msg = Message(src=0, dst=1, nbytes=64, start_time=500.0)
        network.transfer([msg])
        assert msg.recv_complete > 500.0

    def test_empty_transfer(self):
        network = Network(self.COMM, 4)
        result = network.transfer([])
        assert result.send_complete == {} and result.recv_complete == {}

    def _solo(self, src, dst, nbytes, start_time=0.0):
        msg = Message(src=src, dst=dst, nbytes=nbytes, start_time=start_time)
        Network(self.COMM, 8).transfer([msg])
        return msg.recv_complete

    def test_messages_priced_in_start_time_order(self):
        # listed latest first: the earlier start still takes the NIC and link
        late = Message(src=0, dst=1, nbytes=4096, start_time=100.0)
        early = Message(src=0, dst=1, nbytes=4096, start_time=0.0)
        Network(self.COMM, 8).transfer([late, early])
        assert early.recv_complete == self._solo(0, 1, 4096)
        assert late.recv_complete > early.recv_complete
        assert late.recv_complete > self._solo(0, 1, 4096, start_time=100.0)

    def test_ties_broken_by_input_order(self):
        for first, second in ((4096, 64), (64, 4096)):
            msgs = [Message(src=0, dst=1, nbytes=first), Message(src=0, dst=1, nbytes=second)]
            Network(self.COMM, 8).transfer(msgs)
            assert msgs[0].recv_complete == self._solo(0, 1, first)
            assert msgs[1].recv_complete > msgs[0].recv_complete

    def test_negative_start_clamped_to_zero(self):
        msg = Message(src=0, dst=3, nbytes=512, start_time=-50.0)
        Network(self.COMM, 8).transfer([msg])
        assert msg.recv_complete == self._solo(0, 3, 512)
        assert msg.send_complete > 0.0


class TestCollectives:
    COMM = CommunicationComponent()

    def _network(self, p=8):
        return Network(self.COMM, p)

    def test_shift_exchange_advances_all_participants(self):
        network = self._network(4)
        clocks = {r: 0.0 for r in range(4)}
        pairs = [(r, (r + 1) % 4) for r in range(4)]
        done = shift_exchange(network, pairs, 512, clocks)
        assert all(done[r] > 0 for r in range(4))
        # a ring on a hypercube has one wrap-around pair that contends for links,
        # so completions spread by at most a couple of message times
        spread = max(done.values()) - min(done.values())
        single_message = self.COMM.long_startup_latency + 512 * self.COMM.per_byte
        assert spread < 2.5 * single_message

    def test_broadcast_reaches_everyone_and_scales(self):
        network = self._network(8)
        clocks = {r: 0.0 for r in range(8)}
        done8 = broadcast(network, 0, list(range(8)), 128, clocks)
        done2 = broadcast(self._network(2), 0, [0, 1], 128, {0: 0.0, 1: 0.0})
        assert max(done8.values()) > max(done2.values())
        assert all(done8[r] > 0 for r in range(1, 8))

    def test_allreduce_synchronises_ranks(self):
        network = self._network(8)
        clocks = {r: float(100 * r) for r in range(8)}
        done = allreduce(network, list(range(8)), 8, clocks)
        # everyone ends at least as late as the slowest starter
        assert min(done.values()) >= 700.0

    def test_allgather_grows_with_block_size(self):
        network = self._network(8)
        clocks = {r: 0.0 for r in range(8)}
        small = max(allgather(network, list(range(8)), 64, clocks).values())
        large = max(allgather(self._network(8), list(range(8)), 8192, clocks).values())
        assert large > small

    def test_unstructured_gather_adds_unpack_cost(self):
        network = self._network(8)
        clocks = {r: 0.0 for r in range(8)}
        plain = max(allgather(network, list(range(8)), 1024, clocks).values())
        gathered = max(unstructured_gather(self._network(8), list(range(8)), 1024,
                                           clocks).values())
        assert gathered > plain

    def test_single_rank_collectives_are_noops(self):
        network = self._network(1)
        clocks = {0: 5.0}
        assert allreduce(network, [0], 8, clocks)[0] >= 5.0
        assert broadcast(network, 0, [0], 8, clocks)[0] >= 5.0


class TestNodeCostModelAndNoise:
    def _profile(self, **kwargs):
        defaults = dict(count=OpCount(flops=4, mem_reads=3, mem_writes=1, int_ops=5),
                        local_elements=1000.0, innermost_extent=100.0, stride1=True,
                        arrays_touched=3)
        defaults.update(kwargs)
        return IterationProfile(**defaults)

    def test_iteration_time_positive(self):
        model = NodeCostModel(ipsc860(4))
        assert model.iteration_time(self._profile()) > 0

    def test_cache_resident_faster_than_streaming(self):
        model = NodeCostModel(ipsc860(4))
        small = model.loop_nest_time(self._profile(local_elements=100.0))
        large = model.loop_nest_time(self._profile(local_elements=100000.0))
        assert large / 1000.0 > small / 1.0 * 0.09  # per-element cost grows out of cache
        assert model.hit_ratio(self._profile(local_elements=100.0)) > \
            model.hit_ratio(self._profile(local_elements=100000.0))

    def test_strided_access_slower(self):
        model = NodeCostModel(ipsc860(4))
        stride1 = model.hit_ratio(self._profile(local_elements=1e6, stride1=True))
        strided = model.hit_ratio(self._profile(local_elements=1e6, stride1=False))
        assert strided < stride1

    def test_short_loop_penalty(self):
        model = NodeCostModel(ipsc860(4))
        short = model.iteration_time(self._profile(innermost_extent=2.0))
        long = model.iteration_time(self._profile(innermost_extent=64.0))
        assert short > long

    def test_mixed_mask_penalty(self):
        model = NodeCostModel(ipsc860(4))
        pure = model.iteration_time(self._profile(mask_fraction=1.0))
        mixed = model.iteration_time(self._profile(mask_fraction=0.5))
        assert mixed > pure

    def test_masked_nest_cheaper_when_mostly_false(self):
        model = NodeCostModel(ipsc860(4))
        mostly_false = model.loop_nest_time(self._profile(mask_fraction=0.05))
        mostly_true = model.loop_nest_time(self._profile(mask_fraction=0.95))
        assert mostly_false < mostly_true

    @pytest.mark.parametrize("p", [1, 8, 300, 8192])
    @pytest.mark.parametrize("varying", ["every column", "one column",
                                         "no column"])
    def test_loop_nest_times_equal_a_per_rank_loop(self, p, varying):
        """The bulk form equals one loop_nest_time per rank, bit for bit, on
        either side of its dedupe threshold: with and without masks, with
        repeated rows and with -1 ("no mask") fractions."""
        model = NodeCostModel(ipsc860(4))
        rng = np.random.default_rng(p)
        elements = rng.choice([0.0, 1.0, 64.0, 4096.0, 1e6], size=p)
        inner = rng.choice([1.0, 3.0, 64.0], size=p)
        fractions = rng.choice([-1.0, 0.0, 0.25, 1.0], size=p)
        if varying != "every column":
            inner[:] = 3.0
            fractions[:] = 0.25
        if varying == "no column":
            elements[:] = 64.0
        profile = self._profile()
        for masks in (None, fractions):
            got = model.loop_nest_times(profile, depth=2,
                                        local_elements=elements,
                                        innermost_extents=inner,
                                        mask_fractions=masks)
            expected = np.array([
                model.loop_nest_time(replace(
                    profile, local_elements=float(elements[rank]),
                    innermost_extent=float(inner[rank]),
                    mask_fraction=None if masks is None or masks[rank] < 0
                    else float(masks[rank])), depth=2)
                for rank in range(p)])
            assert got.tobytes() == expected.tobytes()

    def test_noise_is_deterministic_per_seed(self):
        a = NoiseModel(seed=42)
        b = NoiseModel(seed=42)
        c = NoiseModel(seed=43)
        seq_a = [a.compute(1000.0) for _ in range(5)]
        seq_b = [b.compute(1000.0) for _ in range(5)]
        seq_c = [c.compute(1000.0) for _ in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_noise_is_small_relative_perturbation(self):
        noise = NoiseModel(seed=1)
        values = np.array([noise.compute(10000.0) for _ in range(200)])
        assert abs(values.mean() / 10000.0 - 1.0) < 0.02

    def test_noise_disabled_is_identity(self):
        noise = NoiseModel(seed=1, options=NoiseOptions(enabled=False))
        assert noise.compute(123.0) == 123.0
        assert noise.communication_keyed(noise.begin_phase(), 0, 55.0) == 55.0
        assert noise.quantise(77.7) == 77.7

    def test_quantisation(self):
        noise = NoiseModel(seed=1, options=NoiseOptions(timer_resolution_us=10.0))
        assert noise.quantise(123.4) == 120.0
