"""Tests for the N-node world fabric: Topology value objects, Fabric
construction/routing, and N-node world construction through stdworld
(docs/TOPOLOGY.md).
"""

from __future__ import annotations

import pytest

from repro.core.stdworld import make_world
from repro.errors import RdmaError, TwoChainsError
from repro.rdma.fabric import Fabric, Testbed, Topology
from repro.rdma.params import DEFAULT_LINK, LinkParams
from repro.workloads.chainkv import chain_topology  # registers "chainkv"


# ---------------------------------------------------------------------------
# Topology: validation and lookups
# ---------------------------------------------------------------------------

class TestTopology:
    def test_pair_is_the_papers_testbed(self):
        t = Topology.pair()
        assert t.nodes == 2
        assert t.roles == {"client": 0, "server": 1}
        assert t.link_for(0, 1) is DEFAULT_LINK
        assert t.link_for(1, 0) is DEFAULT_LINK

    def test_chain_roles(self):
        t = Topology.chain(4)
        assert t.nodes == 5
        assert t.role_id("client") == 0
        assert t.role_id("head") == 1
        assert t.role_id("tail") == 4

    def test_chain_of_one_replica_head_is_tail(self):
        t = Topology.chain(1)
        assert t.nodes == 2
        assert t.role_id("head") == t.role_id("tail") == 1

    def test_chain_needs_a_replica(self):
        with pytest.raises(RdmaError):
            Topology.chain(0)

    def test_needs_at_least_one_node(self):
        with pytest.raises(RdmaError):
            Topology(nodes=0)

    def test_role_must_name_a_real_node(self):
        with pytest.raises(RdmaError):
            Topology(nodes=2, roles={"oops": 2})

    def test_link_override_must_be_a_valid_directed_pair(self):
        slow = LinkParams(wire_prop_ns=500.0)
        with pytest.raises(RdmaError):
            Topology(nodes=2, links={(0, 0): slow})
        with pytest.raises(RdmaError):
            Topology(nodes=2, links={(0, 2): slow})

    def test_link_for_honors_per_direction_overrides(self):
        slow = LinkParams(wire_prop_ns=500.0)
        t = Topology(nodes=3, links={(0, 2): slow})
        assert t.link_for(0, 2) is slow
        assert t.link_for(2, 0) is DEFAULT_LINK   # other direction untouched
        assert t.link_for(0, 1) is DEFAULT_LINK

    def test_resolve_accepts_ids_and_roles(self):
        t = Topology.chain(3)
        assert t.resolve("tail") == 3
        assert t.resolve(2) == 2
        with pytest.raises(RdmaError, match="no role"):
            t.resolve("nope")

    def test_pairs_are_canonical(self):
        assert Topology(nodes=3).pairs() == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# Fabric: N nodes, full QP mesh, per-pair links
# ---------------------------------------------------------------------------

class TestFabric:
    def test_mesh_shape(self):
        bed = Fabric.create(topology=Topology(nodes=4))
        assert len(bed.nodes) == 4 and len(bed.hcas) == 4
        # full mesh: one QP per directed pair
        assert len(bed.qps) == 4 * 3
        assert bed.peers_of(2) == [0, 1, 3]
        assert set(bed.qps_from(0)) == {1, 2, 3}
        for dst, qp in bed.qps_from(0).items():
            assert qp.src is bed.hca(0) and qp.dst is bed.hca(dst)

    def test_missing_qp_raises(self):
        bed = Fabric.create()
        with pytest.raises(RdmaError, match="no queue pair"):
            bed.qp(0, 5)

    def test_per_pair_link_rides_on_the_qp(self):
        slow = LinkParams(wire_prop_ns=9000.0)
        topo = Topology(nodes=3, links={(1, 2): slow})
        bed = Fabric.create(topology=topo)
        assert bed.qp(1, 2).link is slow
        assert bed.qp(2, 1).link is DEFAULT_LINK
        assert bed.qp(0, 1).link is DEFAULT_LINK

    def test_legacy_two_node_surface(self):
        bed = Testbed.create()
        assert bed.node0 is bed.nodes[0] and bed.node1 is bed.nodes[1]
        assert bed.hca0 is bed.hcas[0] and bed.hca1 is bed.hcas[1]
        assert bed.qp01 is bed.qps[(0, 1)] and bed.qp10 is bed.qps[(1, 0)]
        assert bed.qp_from(0) is bed.qp01 and bed.qp_from(1) is bed.qp10

    def test_default_topology_is_the_pair(self):
        bed = Fabric.create()
        assert bed.topology.nodes == 2
        assert bed.topology.role_id("server") == 1


# ---------------------------------------------------------------------------
# stdworld: N-node worlds and named packages
# ---------------------------------------------------------------------------

class TestNNodeWorld:
    def test_chain_world_has_one_runtime_per_node(self):
        w = make_world(topology=chain_topology(2), package="chainkv")
        assert len(w.runtimes) == 3
        assert w.runtime("client") is w.runtimes[0]
        assert w.runtime("tail") is w.runtimes[2]
        assert w.node("head") is w.bed.nodes[1]
        # every runtime holds an endpoint to every peer
        for i, rt in enumerate(w.runtimes):
            peers = {p for p in range(3) if p != i}
            assert {c for c in rt.worker.eps} == peers

    def test_unknown_package_raises_with_registry(self):
        with pytest.raises(TwoChainsError, match="chainkv"):
            make_world(package="not-a-package")

    def test_default_world_unchanged(self):
        """The default world is still the paper's two-node testbed with
        the std package — the byte-identity anchor for every committed
        baseline."""
        w = make_world()
        assert w.topology.nodes == 2
        assert w.client is w.runtimes[0] and w.server is w.runtimes[1]
        assert w.build.jam("jam_ss_sum")
