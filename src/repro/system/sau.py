"""System Abstraction Units (SAUs) and their four components.

§3.1 of the paper: *"The systems module abstracts a HPC system by
hierarchically decomposing it to form a rooted tree structure called the
System Abstraction Graph (SAG).  Each node of the SAG is a System Abstraction
Unit (SAU) which abstracts a part of the HPC system into a set of parameters
representing its performance.  A SAU is composed of 4 components: (1)
Processing Component (P), (2) Memory Component (M), (3) Communication/
Synchronization Component (C/S), and (4) Input/Output Component (I/O)."*

All times are in **microseconds** (the natural unit on the iPSC/860, whose
message latencies are tens of microseconds and whose flops are fractions of a
microsecond).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class ProcessingComponent:
    """Parameters of the processing element (the i860 node CPU, or the SRM host)."""

    clock_mhz: float = 40.0
    # effective per-operation times for compiled Fortran 77 node code (µs)
    flop_time_sp: float = 0.105          # single-precision add/mul
    flop_time_dp: float = 0.175          # double-precision add/mul
    divide_time: float = 0.90            # floating divide (not pipelined on i860)
    int_op_time: float = 0.045           # integer ALU op / index arithmetic
    branch_time: float = 0.12            # taken-branch / compare overhead
    loop_iteration_overhead: float = 0.18  # per-iteration counter+branch cost
    loop_startup_overhead: float = 1.6     # loop preamble (bounds, registers)
    conditional_overhead: float = 0.22     # IF guard evaluation overhead
    call_overhead: float = 1.4             # subroutine call/return
    assignment_overhead: float = 0.05      # store scheduling slot
    peak_mflops_sp: float = 80.0
    peak_mflops_dp: float = 40.0

    def flop_time(self, precision: str = "real") -> float:
        return self.flop_time_dp if precision == "double" else self.flop_time_sp


@dataclass(frozen=True)
class MemoryComponent:
    """Parameters of one level of the memory subsystem seen by a processing element."""

    icache_kbytes: float = 4.0
    dcache_kbytes: float = 8.0
    main_memory_mbytes: float = 8.0
    cache_line_bytes: int = 32
    hit_time: float = 0.025              # cached access (µs)
    miss_penalty: float = 0.55           # main-memory access penalty (µs)
    write_through_penalty: float = 0.10  # store buffer stall
    memory_bandwidth_mbs: float = 60.0   # streaming bandwidth to main memory
    page_size_bytes: int = 4096

    @property
    def dcache_bytes(self) -> float:
        return self.dcache_kbytes * 1024.0

    def access_time(self, hit_ratio: float) -> float:
        """Average access time for a given cache hit ratio."""
        hit_ratio = min(max(hit_ratio, 0.0), 1.0)
        return hit_ratio * self.hit_time + (1.0 - hit_ratio) * self.miss_penalty


@dataclass(frozen=True)
class CommunicationComponent:
    """Parameters of the communication / synchronisation subsystem (C/S)."""

    # point-to-point (Direct-Connect Module of the iPSC/860)
    startup_latency: float = 75.0        # short-message latency (µs)
    long_startup_latency: float = 160.0  # long-message (> threshold) protocol startup
    long_message_threshold: int = 100    # bytes; iPSC/860 switches protocol at 100 B
    per_byte: float = 0.36               # 1 / bandwidth  (µs per byte  ≈ 2.8 MB/s)
    per_hop: float = 10.5                # additional per-hop latency (µs)
    packetization_bytes: int = 1024      # hardware packet size
    per_packet_overhead: float = 8.0     # per-packet handling (µs)
    # synchronisation
    barrier_per_stage: float = 90.0      # cost of one stage of a log2(P) barrier
    # collective library software overhead per invocation
    collective_call_overhead: float = 30.0

    def latency(self, nbytes: int) -> float:
        """Protocol startup latency for a message of *nbytes*."""
        if nbytes > self.long_message_threshold:
            return self.long_startup_latency
        return self.startup_latency


@dataclass(frozen=True)
class IOComponent:
    """Parameters of the input/output subsystem (host filesystem / CFS)."""

    open_close_time: float = 12000.0     # µs
    per_byte: float = 1.1                # µs per byte (≈ 0.9 MB/s to the SRM disk)
    seek_time: float = 18000.0


@dataclass
class SAU:
    """One System Abstraction Unit: a named part of the machine plus its 4 components."""

    name: str
    level: str = "node"                  # 'system' | 'cluster' | 'host' | 'node'
    processing: ProcessingComponent = field(default_factory=ProcessingComponent)
    memory: MemoryComponent = field(default_factory=MemoryComponent)
    communication: CommunicationComponent = field(default_factory=CommunicationComponent)
    io: IOComponent = field(default_factory=IOComponent)
    description: str = ""
    children: list["SAU"] = field(default_factory=list)
    attributes: dict[str, float] = field(default_factory=dict)

    def add_child(self, child: "SAU") -> "SAU":
        self.children.append(child)
        return child

    def find(self, name: str) -> Optional["SAU"]:
        """Depth-first search for a SAU by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def leaf_count(self) -> int:
        if not self.children:
            return 1
        return sum(child.leaf_count() for child in self.children)

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.level.upper()} SAU '{self.name}': {self.description}"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)
