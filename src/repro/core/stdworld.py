"""Convenience construction of Two-Chains worlds: the standard two-node
testbed and arbitrary N-node fabrics.

Used by tests, examples, and every benchmark driver: a world is a
:class:`~repro.rdma.fabric.Fabric` (nodes + HCAs + QP mesh, described by
a :class:`~repro.rdma.fabric.Topology`) with one Two-Chains runtime per
node and a named package loaded on every side.  The default topology is
the paper's back-to-back pair (§VI-C); ``Topology.chain(k)`` and custom
topologies build the N-node worlds docs/TOPOLOGY.md describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TwoChainsError
from ..machine.hierarchy import HierarchyConfig
from ..rdma.fabric import Fabric, Topology
from ..rdma.params import LinkParams, DEFAULT_LINK
from ..ucp.worker import UcpConfig
from .config import RuntimeConfig
from .message import frame_wire_size
from .runtime import TwoChainsRuntime
from .stdjams import build_std_package
from .toolchain import PackageBuild

#: Named package builders for :func:`make_world`'s ``package`` argument.
#: Workload modules register their packages here on import (e.g.
#: ``repro.workloads.chainkv`` registers ``"chainkv"``).
PACKAGE_BUILDERS = {"std": build_std_package}


@dataclass
class WorldCheckpoint:
    """Opaque state capture of one :class:`World` (see ``World.snapshot``)."""

    engine: tuple
    rngs: dict
    nodes: list            # per-node dicts, in node-id order
    hcas: list             # per-HCA tuples, in node-id order
    qps: dict              # (src, dst) -> QueuePair tuple
    runtimes: list         # per-runtime dicts, in node-id order


@dataclass
class World:
    __test__ = False  # not a pytest class

    bed: Fabric
    runtimes: list[TwoChainsRuntime]
    build: PackageBuild

    @property
    def engine(self):
        return self.bed.engine

    @property
    def topology(self) -> Topology:
        return self.bed.topology

    # node0/node1 keep their historical names on the two-node world; the
    # fabric surface addresses every node by id or role.
    @property
    def client(self) -> TwoChainsRuntime:
        return self.runtimes[0]

    @property
    def server(self) -> TwoChainsRuntime:
        return self.runtimes[1]

    def runtime(self, who) -> TwoChainsRuntime:
        """The runtime of one node, by node id or role name."""
        return self.runtimes[self.topology.resolve(who)]

    def node(self, who):
        """The machine node, by node id or role name."""
        return self.bed.nodes[self.topology.resolve(who)]

    def frame_size_for(self, jam_name: str, payload_bytes: int,
                       inject: bool) -> int:
        """Fixed frame size for a benchmark point (paper: messages sized
        to the nearest 64 B)."""
        code = len(self.build.jam(jam_name).blob) if inject else 0
        return frame_wire_size(code, payload_bytes)

    # -- driver reads ------------------------------------------------------
    # Bench drivers and perfbench read guest state through these rather
    # than reaching into node objects.

    def read_u64(self, node_id: int, addr: int) -> int:
        return self.bed.nodes[node_id].mem.read_u64(addr)

    def board_counters(self) -> dict[str, int]:
        """Every node's Scoreboard counters, summed in node-id order."""
        out: dict[str, int] = {}
        for node in self.bed.nodes:
            for name, value in node.board.counters.items():
                out[name] = out.get(name, 0) + int(value)
        return out

    # -- checkpoint / restore ----------------------------------------------

    def snapshot(self) -> WorldCheckpoint:
        """Checkpoint every mutable subsystem of this world.

        Requires quiescence — empty event queue, no parked WFE waiters,
        no in-flight UCX requests — which is exactly the state right
        after :func:`make_world` or after a completed benchmark shape.
        Violations raise instead of producing an approximate capture.
        """
        bed = self.bed
        return WorldCheckpoint(
            engine=bed.engine.snapshot(),
            rngs=bed.rngs.snapshot(),
            nodes=[node.snapshot() for node in bed.nodes],
            hcas=[hca.snapshot() for hca in bed.hcas],
            qps={pair: qp.snapshot() for pair, qp in bed.qps.items()},
            runtimes=[rt.snapshot() for rt in self.runtimes],
        )

    def restore(self, cp: WorldCheckpoint) -> None:
        """Rewind this world to a checkpoint, in place.

        After the rewind every observable — memory bytes, cache/LRU
        state, DRAM ledger, RNG streams, rkey sequence, scoreboard
        counters, simulated clock — matches the snapshot instant
        exactly, so a restored world measures byte-identically to a
        freshly built one (enforced by the restore determinism tests).
        """
        bed = self.bed
        bed.engine.restore(cp.engine)
        bed.rngs.restore(cp.rngs)
        for node, snap in zip(bed.nodes, cp.nodes):
            node.restore(snap)
        for hca, snap in zip(bed.hcas, cp.hcas):
            hca.restore(snap)
        for pair, snap in cp.qps.items():
            bed.qps[pair].restore(snap)
        for rt, snap in zip(self.runtimes, cp.runtimes):
            rt.restore(snap)


def make_world(hier_cfg: HierarchyConfig | None = None,
               client_cfg: RuntimeConfig | None = None,
               server_cfg: RuntimeConfig | None = None,
               link: LinkParams = DEFAULT_LINK,
               ucp_cfg: UcpConfig | None = None,
               build: PackageBuild | None = None,
               seed: int | None = None,
               topology: Topology | None = None,
               package: str = "std") -> World:
    """Build a world: a fabric, one runtime per node, the package loaded
    everywhere.

    ``topology`` defaults to the two-node pair over ``link``; pass
    ``Topology.chain(k)`` (or any custom Topology) for an N-node world.
    ``client_cfg`` configures node 0 (the initiator by convention),
    ``server_cfg`` every other node.  ``package`` names a registered
    builder in :data:`PACKAGE_BUILDERS`; an explicit ``build`` overrides
    it.
    """
    bed = Fabric.create(hier_cfg=hier_cfg, link=link, seed=seed,
                        topology=topology)
    runtimes = []
    for i, (node, hca) in enumerate(zip(bed.nodes, bed.hcas)):
        if i == 0:
            cfg = client_cfg
        elif i == 1 or server_cfg is None:
            cfg = server_cfg
        else:
            # Nodes beyond the pair get their own config instance: a
            # RuntimeConfig is mutable and must not alias across nodes.
            cfg = RuntimeConfig(**vars(server_cfg))
        runtimes.append(TwoChainsRuntime(bed.engine, node, hca,
                                         bed.qps_from(i), cfg=cfg,
                                         ucp_cfg=ucp_cfg))
    if build is not None:
        pkg_build = build
    else:
        try:
            builder = PACKAGE_BUILDERS[package]
        except KeyError:
            raise TwoChainsError(
                f"unknown world package {package!r}; registered: "
                f"{sorted(PACKAGE_BUILDERS)}") from None
        pkg_build = builder()
    for rt in runtimes:
        rt.load_package(pkg_build)
    return World(bed=bed, runtimes=runtimes, build=pkg_build)

