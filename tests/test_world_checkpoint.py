"""Tests for world checkpoints: snapshot round-trips, quiescence
enforcement, and the restore determinism contract — a world rewound to
the checkpoint taken right after its build must measure
**byte-identically** to a freshly built one, for every world flavour
the benchmark specs and perfbench build.
"""

from __future__ import annotations

import pytest

from repro.bench.shapes import am_injection_rate, am_pingpong
from repro.core.config import RuntimeConfig, WaitMode
from repro.core.stdworld import make_world
from repro.errors import SimulationError
from repro.machine.hierarchy import HierarchyConfig
from repro.machine.memory import PhysicalMemory
from repro.perf import COUNTERS
from repro.workloads.chainkv import chain_point, chain_topology


# ---------------------------------------------------------------------------
# subsystem round-trips
# ---------------------------------------------------------------------------

def test_physical_memory_snapshot_roundtrip():
    mem = PhysicalMemory(1 << 16)
    mem.write(0x100, b"hello world")
    snap = mem.snapshot(upto=0x200)
    mem.write(0x100, b"XXXXXXXXXXX")
    mem.write(0x1000, b"late allocation")  # beyond the snapshot bound
    mem.restore(snap, dirty_upto=0x1100)
    assert mem.read(0x100, 11) == b"hello world"
    # bytes written after the snapshot bound read as fresh zeros again
    assert mem.read(0x1000, 15) == b"\x00" * 15


def test_world_snapshot_restores_memory_caches_and_rngs():
    w = make_world(seed=7)
    node = w.bed.node0
    cp = w.snapshot()

    before_mem = bytes(node.mem.data[: 1 << 20])
    before_l1d = [dict(c._map) for c in node.hier.l1d]
    before_llc = dict(node.hier.llc._map)
    before_rngs = w.bed.rngs.snapshot()

    # Perturb every captured subsystem: memory bytes, cache residency
    # and LRU state, DRAM ledger, RNG streams, the simulated clock.
    addr = node.mem.size // 2
    node.mem.write(addr, b"scribble")
    for i in range(256):
        node.hier.access(0.0, 0, addr + 64 * i, 8, "write")
    w.bed.rngs.child("test").random()
    w.engine.now += 123.0

    w.restore(cp)
    assert bytes(node.mem.data[: 1 << 20]) == before_mem
    assert [dict(c._map) for c in node.hier.l1d] == before_l1d
    assert dict(node.hier.llc._map) == before_llc
    assert w.bed.rngs.snapshot() == before_rngs
    assert w.engine.snapshot() == cp.engine


def test_snapshot_rejects_non_quiescent_engine():
    w = make_world()
    w.engine.call_after(1.0, lambda: None)
    with pytest.raises(SimulationError):
        w.snapshot()


# ---------------------------------------------------------------------------
# restore determinism: restored == fresh, in full, for every world flavour
# ---------------------------------------------------------------------------

def _pair_shape(w):
    return (am_pingpong(w, "jam_indirect_put", 64, warmup=2, iters=8),
            am_injection_rate(w, "jam_indirect_put", 64, messages=64))


def _stress_shape(w):
    return am_pingpong(w, "jam_ss_sum", 64, warmup=4, iters=40, stress=True)


def _wfe_shape(w):
    return am_pingpong(w, "jam_indirect_put", 64, warmup=2, iters=8)


def _loop_shape(w):
    return am_pingpong(w, "jam_ss_sum_naive", 1024, warmup=6, iters=16)


def _chain_shape(w):
    return chain_point(w, value_bytes=64, warmup=2, iters=6, stream_count=8,
                       mcast_iters=2)


_WFE = RuntimeConfig(wait_mode=WaitMode.WFE)

FLAVOURS = {
    "pair": (dict(), _pair_shape),
    "stash_stress": (dict(hier_cfg=HierarchyConfig(stash_enabled=True)),
                     _stress_shape),
    "nonstash_stress": (dict(hier_cfg=HierarchyConfig(stash_enabled=False)),
                        _stress_shape),
    "wfe_client": (dict(client_cfg=_WFE, server_cfg=_WFE), _wfe_shape),
    "guest_loop": (dict(), _loop_shape),
    "chain3": (dict(topology=chain_topology(3), package="chainkv"),
               _chain_shape),
}


def _measure(world, shape):
    """The shape's full outcome plus every Scoreboard counter."""
    return shape(world), world.board_counters()


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_restored_world_measures_like_fresh(flavour):
    kwargs, shape = FLAVOURS[flavour]
    fresh = _measure(make_world(**kwargs), shape)

    world = make_world(**kwargs)
    cp = world.snapshot()
    first = _measure(world, shape)
    world.restore(cp)
    before = COUNTERS.snapshot()
    again = _measure(world, shape)
    traced = COUNTERS.delta(before)["trace_instructions"]

    assert first == fresh
    assert again == fresh
    if flavour == "guest_loop":
        # The trace tier engaged on the restored world, whose branch
        # profiles survived the restore, and still changed nothing.
        assert traced > 0
