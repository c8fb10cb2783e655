"""The fully-characterised target machine handed to Phase 2 and the simulator.

A :class:`Machine` bundles the off-line SAG/SAU parameter characterisation
with the structural interconnect abstraction (:mod:`repro.system.topology`).
:func:`build_machine` turns one parameter set into a :class:`Machine`; each
concrete machine module (the iPSC/860 hypercube, the Paragon-class 2-D mesh,
the switched cluster, ...) holds only its parameter set and one such call,
and :mod:`repro.system.registry` makes it discoverable by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .sag import SAG
from .sau import (
    SAU,
    CommunicationComponent,
    IOComponent,
    MemoryComponent,
    ProcessingComponent,
)
from .topology import Topology, make_topology


@dataclass
class Machine:
    """A fully-characterised target machine handed to Phase 2 and the simulator."""

    name: str
    sag: SAG
    num_nodes: int
    noise_seed: int = 0
    topology_kind: str = "hypercube"
    #: optional (rows, cols) override for shaped interconnects (mesh, torus);
    #: applied only to partitions the shape exactly tiles — subpartitions fall
    #: back to the near-square factorisation
    topology_shape: tuple[int, int] | None = None
    attributes: dict[str, float] = field(default_factory=dict)

    @property
    def node(self) -> SAU:
        return self.sag.node_sau()

    @property
    def cube(self) -> SAU:
        return self.sag.cube_sau()

    @property
    def host(self) -> SAU | None:
        return self.sag.host_sau()

    @property
    def processing(self) -> ProcessingComponent:
        return self.node.processing

    @property
    def memory(self) -> MemoryComponent:
        return self.node.memory

    @property
    def communication(self) -> CommunicationComponent:
        return self.cube.communication

    def topology(self, num_nodes: int | None = None) -> Topology:
        """The interconnect topology of a *num_nodes* partition of this machine."""
        nodes = num_nodes or self.num_nodes
        shape = self.topology_shape
        if shape is not None and shape[0] * shape[1] != nodes:
            shape = None
        return make_topology(self.topology_kind, nodes, shape=shape)

    def scaled(self, *, flop_scale: float = 1.0, latency_scale: float = 1.0,
               bandwidth_scale: float = 1.0, name: str | None = None) -> "Machine":
        """A perturbed copy of this machine (for sensitivity/ablation studies).

        The copy keeps this machine's SAG: its shape, host, descriptions and
        attributes.  Its root, fabric and node all export the perturbed
        processing and communication components, as :func:`build_machine`
        gives all three the same components.
        """
        processing = replace(
            self.processing,
            flop_time_sp=self.processing.flop_time_sp * flop_scale,
            flop_time_dp=self.processing.flop_time_dp * flop_scale,
        )
        communication = replace(
            self.communication,
            startup_latency=self.communication.startup_latency * latency_scale,
            long_startup_latency=self.communication.long_startup_latency * latency_scale,
            per_byte=self.communication.per_byte / max(bandwidth_scale, 1e-9),
        )

        def perturbed(sau: SAU, *children: SAU) -> SAU:
            return replace(sau, processing=processing,
                           communication=communication,
                           children=list(children),
                           attributes=dict(sau.attributes))

        host = self.host
        cube = perturbed(self.cube, perturbed(self.node))
        root = perturbed(self.sag.root,
                         *([host] if host is not None else []), cube)
        sag = SAG(root=root, machine_name=name or f"{self.name}-scaled")
        return Machine(name=sag.machine_name, sag=sag, num_nodes=self.num_nodes,
                       noise_seed=self.noise_seed, topology_kind=self.topology_kind,
                       topology_shape=self.topology_shape,
                       attributes=dict(self.attributes))


def build_machine(num_nodes: int, noise_seed: int, *, label: str,
                  topology_kind: str, processing: ProcessingComponent,
                  memory: MemoryComponent,
                  communication: CommunicationComponent, io: IOComponent,
                  system: str, fabric: str, fabric_description: str,
                  node_description: str, host: SAU | None = None) -> Machine:
    """A *num_nodes*-node partition of the machine one parameter set describes.

    The SAG is the paper's off-line tree (§3.1, §4.4): a ``system`` root,
    the *host* SAU when the machine has a front end, the compute fabric
    (named *fabric*, ``attributes={"num_nodes": n}``) and one ``node`` SAU
    under it.  The root, fabric and node all export the same four
    components.  ``{n}`` in *system* and *fabric_description* is replaced
    by *num_nodes*, and the SAG is named ``f"{label}-{num_nodes}"``.

    A new target is one call of this function plus
    :func:`~repro.system.registry.register_machine`.  Here an iPSC/860
    whose links move bytes twice as fast:

        >>> from dataclasses import replace
        >>> from repro import predict, register_machine
        >>> from repro.system.ipsc860 import (
        ...     CUBE_COMMUNICATION, I860_MEMORY, I860_PROCESSING, NODE_IO)
        >>> def fast_cube(num_nodes=8, noise_seed=0):
        ...     return build_machine(
        ...         num_nodes, noise_seed, label="FastCube",
        ...         topology_kind="hypercube", processing=I860_PROCESSING,
        ...         memory=I860_MEMORY, io=NODE_IO,
        ...         communication=replace(CUBE_COMMUNICATION, per_byte=0.18),
        ...         system="iPSC/860 with doubled link bandwidth ({n} nodes)",
        ...         fabric="cube", fabric_description="{n}-node i860 hypercube",
        ...         node_description="i860 XR node")
        >>> register_machine("fastcube", fast_cube)
        >>> src = '''
        ...       program shift
        ...       integer, parameter :: n = 4096
        ...       real, dimension(n) :: x, y
        ... !HPF$ PROCESSORS p(4)
        ... !HPF$ DISTRIBUTE x(BLOCK) ONTO p
        ... !HPF$ ALIGN y(i) WITH x(i)
        ...       forall (i = 1:n) x(i) = 1.0 * i
        ...       y = cshift(x, 1024)
        ...       end program shift
        ... '''
        >>> fast = predict(src, nprocs=4, machine="fastcube")
        >>> slow = predict(src, nprocs=4, machine="ipsc860")
        >>> fast.machine.name, fast.predicted_time_us < slow.predicted_time_us
        ('FastCube-4', True)
    """
    if num_nodes < 1:
        raise ValueError(
            f"{label}: a partition needs at least one node, got {num_nodes}")
    components = dict(processing=processing, memory=memory,
                      communication=communication, io=io)
    root = SAU(name="system", level="system",
               description=system.format(n=num_nodes), **components)
    if host is not None:
        root.add_child(host)
    cube = root.add_child(SAU(
        name=fabric, level="cluster",
        description=fabric_description.format(n=num_nodes),
        attributes={"num_nodes": float(num_nodes)}, **components))
    cube.add_child(SAU(name="node", level="node",
                       description=node_description, **components))
    sag = SAG(root=root, machine_name=f"{label}-{num_nodes}")
    return Machine(name=sag.machine_name, sag=sag, num_nodes=num_nodes,
                   noise_seed=noise_seed, topology_kind=topology_kind)
