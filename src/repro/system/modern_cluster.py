"""Off-line abstraction of a modern commodity cluster (the post-CM5 target).

The sixth machine target of the registry, and the regime the scaled
simulator core exists for: hundreds of GHz-class superscalar nodes behind a
non-blocking switched fabric — the commodity successor of the machines the
paper characterised.  The parameter set follows the same off-line
methodology as the other targets (vendor specifications + instruction
counts + benchmarking-style constants); as always, the *relationships*
between the numbers define the machine class:

* node flops two orders of magnitude past the i860s (GHz clock, fused
  multiply-add pipelines), with large write-back caches, so local compute
  almost vanishes relative to the historical targets and communication
  structure dominates design choices at scale,
* user-level messaging (kernel-bypass NICs): single-digit-µs startup — an
  order of magnitude below even the T3D-class torus — and ~GB/s-class
  per-port bandwidth,
* a central non-blocking crossbar fabric (every node one switch crossing
  apart, disjoint pairs never contend inside the fabric), the structure of
  a folded-Clos/fat-tree datacenter network seen from the endpoints,
* cheap hardware-offloaded collectives (low per-stage barrier cost and
  collective-call overhead).

Typical partitions are p ∈ {64, 128, 256}; the scale benchmark
(``benchmarks/test_bench_simulator_scale.py``) demonstrates the vector
engine's wall-clock advantage on exactly this target.
"""

from __future__ import annotations

from .machine import Machine, build_machine
from .sau import (
    CommunicationComponent,
    IOComponent,
    MemoryComponent,
    ProcessingComponent,
)

# Node-level components -------------------------------------------------------

MODERN_PROCESSING = ProcessingComponent(
    clock_mhz=2000.0,
    flop_time_sp=0.0008,         # ~2.5 GFLOPS sustained scalar+SIMD
    flop_time_dp=0.0012,
    divide_time=0.012,
    int_op_time=0.0005,
    branch_time=0.0015,
    loop_iteration_overhead=0.002,
    loop_startup_overhead=0.05,
    conditional_overhead=0.004,
    call_overhead=0.03,
    assignment_overhead=0.001,
    peak_mflops_sp=4000.0,
    peak_mflops_dp=2000.0,
)

MODERN_MEMORY = MemoryComponent(
    icache_kbytes=512.0,
    dcache_kbytes=512.0,         # private L2-class capacity per core
    main_memory_mbytes=4096.0,
    cache_line_bytes=64,
    hit_time=0.001,
    miss_penalty=0.08,
    write_through_penalty=0.0,   # write-back hierarchies
    memory_bandwidth_mbs=6000.0,
)

MODERN_COMMUNICATION = CommunicationComponent(
    startup_latency=3.0,         # kernel-bypass send/receive path
    long_startup_latency=6.0,
    long_message_threshold=8192,
    per_byte=0.001,              # ~1 GB/s sustained per node port
    per_hop=0.3,                 # switch traversal
    packetization_bytes=8192,
    per_packet_overhead=0.6,
    barrier_per_stage=2.0,       # offloaded collective engine
    collective_call_overhead=4.0,
)

MODERN_NODE_IO = IOComponent(open_close_time=2000.0, per_byte=0.01, seek_time=4000.0)


def modern_cluster(num_nodes: int = 64, noise_seed: int = 0) -> Machine:
    """A modern-cluster partition with *num_nodes* compute nodes."""
    return build_machine(
        num_nodes, noise_seed, label="ModernCluster", topology_kind="switch",
        processing=MODERN_PROCESSING, memory=MODERN_MEMORY,
        communication=MODERN_COMMUNICATION, io=MODERN_NODE_IO,
        system="modern commodity cluster ({n} nodes)",
        fabric="fabric",
        fabric_description="{n}-node partition behind a non-blocking switched "
                           "fabric (kernel-bypass messaging)",
        node_description="GHz-class superscalar node: 512 KB cache, 4 GB "
                         "memory",
    )
