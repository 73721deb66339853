"""The N-node world fabric: topologies, nodes, HCAs, and the QP mesh.

The paper's testbed (§VI-C) is exactly two servers cabled back-to-back;
this module generalizes it.  A :class:`Topology` describes a world —
node count, named roles, and a per-directed-pair link model — and a
:class:`Fabric` instantiates it: one :class:`~repro.machine.node.Node`
and one :class:`~repro.rdma.verbs.Hca` per topology node plus a
reliable-connected queue pair for every directed pair, so `put`/`get`
and mailbox delivery can address *any* peer by node id.

``Testbed`` remains as an alias of :class:`Fabric`; the default
two-node topology reproduces the original back-to-back testbed exactly
(same construction order, same costs, byte-identical benchmark rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import RdmaError
from ..machine.hierarchy import HierarchyConfig
from ..machine.node import Node
from ..sim.engine import Engine
from ..sim.rng import RngPool
from .params import DEFAULT_LINK, LinkParams
from .verbs import Hca, QueuePair, connect

DEFAULT_MEM_SIZE = 64 * 1024 * 1024


@dataclass(frozen=True)
class Topology:
    """A world description: how many nodes, what they are called, and
    what every pair's cable looks like.

    ``links`` overrides the link model per *directed* pair
    ``(src, dst)``; unlisted pairs use ``default_link``.  ``roles`` maps
    stable names ("client", "head", "tail", …) to node ids so workloads
    never hard-code peer indices.  Topologies are frozen value objects.
    """

    nodes: int = 2
    roles: Mapping[str, int] = field(default_factory=dict)
    links: Mapping[tuple[int, int], LinkParams] = field(default_factory=dict)
    default_link: LinkParams = DEFAULT_LINK
    mem_size: int = DEFAULT_MEM_SIZE

    def __post_init__(self):
        if self.nodes < 1:
            raise RdmaError(f"topology needs at least 1 node, got {self.nodes}")
        for name, nid in self.roles.items():
            if not (0 <= nid < self.nodes):
                raise RdmaError(f"role {name!r} names node {nid}, but the "
                                f"topology has {self.nodes} node(s)")
        for (src, dst) in self.links:
            if src == dst or not (0 <= src < self.nodes
                                  and 0 <= dst < self.nodes):
                raise RdmaError(f"link override ({src}, {dst}) is not a "
                                f"valid directed pair of {self.nodes} nodes")

    # -- lookups -----------------------------------------------------------

    def link_for(self, src: int, dst: int) -> LinkParams:
        """The link model governing puts from ``src`` to ``dst``."""
        return self.links.get((src, dst), self.default_link)

    def role_id(self, role: str) -> int:
        try:
            return self.roles[role]
        except KeyError:
            raise RdmaError(f"topology has no role {role!r}; "
                            f"known: {sorted(self.roles)}") from None

    def resolve(self, who: int | str) -> int:
        """A node id, from either an id or a role name."""
        return self.role_id(who) if isinstance(who, str) else who

    def pairs(self) -> list[tuple[int, int]]:
        """Every unordered pair, in canonical (i < j) order."""
        return [(i, j) for i in range(self.nodes)
                for j in range(i + 1, self.nodes)]

    # -- constructors ------------------------------------------------------

    @classmethod
    def pair(cls, link: LinkParams = DEFAULT_LINK,
             mem_size: int = DEFAULT_MEM_SIZE) -> "Topology":
        """The paper's two-node back-to-back testbed: node 0 is the
        client/initiator, node 1 the server/target."""
        return cls(nodes=2, roles={"client": 0, "server": 1},
                   default_link=link, mem_size=mem_size)

    @classmethod
    def chain(cls, replicas: int, link: LinkParams = DEFAULT_LINK,
              mem_size: int = DEFAULT_MEM_SIZE) -> "Topology":
        """A chain-replication world: node 0 is the client, nodes
        1..replicas the chain (head = 1, tail = replicas)."""
        if replicas < 1:
            raise RdmaError("chain needs at least 1 replica")
        roles = {"client": 0, "head": 1, "tail": replicas}
        return cls(nodes=replicas + 1, roles=roles, default_link=link,
                   mem_size=mem_size)


@dataclass
class Fabric:
    """N servers, N HCAs, and a full QP mesh, built from a Topology.

    For the default two-node topology the legacy attribute surface
    (``node0``/``node1``/``hca0``/``hca1``/``qp01``/``qp10``) still
    works; new code addresses peers by id via :meth:`node`, :meth:`hca`,
    and :meth:`qp`.
    """

    __test__ = False  # not a pytest class despite the legacy alias

    engine: Engine
    rngs: RngPool
    topology: Topology
    nodes: list[Node]
    hcas: list[Hca]
    qps: dict[tuple[int, int], QueuePair]

    @classmethod
    def create(cls, hier_cfg: HierarchyConfig | None = None,
               link: LinkParams = DEFAULT_LINK, seed: int | None = None,
               mem_size: int | None = None,
               topology: Topology | None = None) -> "Fabric":
        from ..sim.rng import DEFAULT_SEED
        if topology is None:
            topology = Topology.pair(link=link,
                                     mem_size=mem_size or DEFAULT_MEM_SIZE)
        engine = Engine()
        rngs = RngPool(DEFAULT_SEED if seed is None else seed)
        cfg0 = hier_cfg or HierarchyConfig()
        nodes: list[Node] = []
        for i in range(topology.nodes):
            # Each node gets its own hierarchy instance with identical
            # config (node 0 owns the caller's instance, like before).
            cfg = cfg0 if i == 0 else HierarchyConfig(**vars(cfg0))
            nodes.append(Node(engine, i, mem_size=topology.mem_size,
                              hier_cfg=cfg))
        # One HCA per node; its default link is the topology default (the
        # per-pair override rides on the QP, not the HCA).
        hcas = [Hca(node, topology.default_link) for node in nodes]
        qps: dict[tuple[int, int], QueuePair] = {}
        for i, j in topology.pairs():
            qps[(i, j)], qps[(j, i)] = connect(
                engine, hcas[i], hcas[j],
                link_out=topology.link_for(i, j),
                link_back=topology.link_for(j, i))
        return cls(engine, rngs, topology, nodes, hcas, qps)

    # -- fabric-aware addressing -------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def hca(self, node_id: int) -> Hca:
        return self.hcas[node_id]

    def qp(self, src: int, dst: int) -> QueuePair:
        try:
            return self.qps[(src, dst)]
        except KeyError:
            raise RdmaError(f"no queue pair {src} -> {dst}") from None

    def peers_of(self, node_id: int) -> list[int]:
        """Every peer ``node_id`` holds a QP to, in ascending id order."""
        return sorted(dst for (src, dst) in self.qps if src == node_id)

    def qps_from(self, node_id: int) -> dict[int, QueuePair]:
        """Outbound QPs of one node, keyed by destination node id."""
        return {dst: self.qps[(node_id, dst)]
                for dst in self.peers_of(node_id)}

    # -- legacy two-node surface -------------------------------------------

    @property
    def node0(self) -> Node:
        return self.nodes[0]

    @property
    def node1(self) -> Node:
        return self.nodes[1]

    @property
    def hca0(self) -> Hca:
        return self.hcas[0]

    @property
    def hca1(self) -> Hca:
        return self.hcas[1]

    @property
    def qp01(self) -> QueuePair:
        return self.qps[(0, 1)]

    @property
    def qp10(self) -> QueuePair:
        return self.qps[(1, 0)]

    def qp_from(self, node_id: int) -> QueuePair:
        """Two-node legacy helper: the node's QP to the other node."""
        return self.qps[(node_id, 1 - node_id)]


#: Historical name for the two-node instantiation; same class.
Testbed = Fabric
