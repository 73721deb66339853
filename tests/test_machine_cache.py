"""Unit + property tests for the set-associative cache and DRAM ledger."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.machine import Dram, SetAssocCache, cache as cache_mod, lines_touched

from .util import EagerCache


class TestSetAssocCache:
    def make(self, size=4096, ways=2):
        return SetAssocCache("t", size, ways)

    def test_miss_then_install_then_hit(self):
        c = self.make()
        assert not c.access(0x100)
        assert c.install(0x100) is None
        assert c.access(0x100)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction_order(self):
        # 2-way: fill both ways of set 0, touch the first, install a third;
        # the second (true LRU) must be evicted.
        c = self.make(size=4096, ways=2)  # 32 sets
        s = c.sets
        a, b, d = 0, s, 2 * s  # three lines mapping to set 0
        c.install(a)
        c.install(b)
        assert c.access(a)  # refresh a
        ev = c.install(d)
        assert ev == (b, False)
        assert c.probe(a) and c.probe(d) and not c.probe(b)

    def test_dirty_eviction_reported(self):
        c = self.make(size=4096, ways=2)
        s = c.sets
        c.install(0, dirty=True)
        c.install(s)
        ev = c.install(2 * s)
        assert ev == (0, True)

    def test_write_access_sets_dirty(self):
        c = self.make(size=4096, ways=1)
        c.install(5)
        c.access(5, write=True)
        assert c.invalidate(5) is True

    def test_install_existing_refreshes_not_evicts(self):
        c = self.make(size=4096, ways=2)
        c.install(0)
        assert c.install(0) is None
        assert c.occupancy == 1

    def test_invalidate_absent_is_noop(self):
        c = self.make()
        assert c.invalidate(0x999) is False

    def test_flush_all_reports_dirty(self):
        c = self.make()
        c.install(1, dirty=True)
        c.install(2, dirty=False)
        assert c.flush_all() == 1
        assert c.occupancy == 0

    def test_bad_geometry_rejected(self):
        with pytest.raises(MachineError):
            SetAssocCache("bad", 1000, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=2**20), min_size=1,
                       max_size=300),
    )
    def test_property_occupancy_bounded_and_present_lines_hit(self, lines):
        """Occupancy never exceeds capacity, and any line just installed
        (and not since evicted) must hit."""
        c = SetAssocCache("p", 8192, 4)
        live = set()
        for ln in lines:
            ev = c.install(ln)
            live.add(ln)
            if ev is not None:
                live.discard(ev[0])
            assert c.occupancy <= c.sets * c.ways
        for ln in live:
            assert c.probe(ln), f"line {ln} should be resident"

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2**18), min_size=1, max_size=200))
    def test_property_probe_has_no_side_effects(self, lines):
        c = SetAssocCache("p", 4096, 2)
        for ln in lines:
            c.install(ln)
        before = (c.hits, c.misses, c.occupancy)
        for ln in lines:
            c.probe(ln)
        assert (c.hits, c.misses, c.occupancy) == before

    @settings(max_examples=60, deadline=None)
    @given(
        warm=st.lists(st.integers(0, 2**12), max_size=80),
        dirty_lines=st.lists(st.integers(0, 2**12), max_size=20),
        bulk=st.lists(st.integers(0, 2**12), min_size=1, max_size=300),
    )
    def test_property_install_many_equivalent_to_install_loop(
            self, warm, dirty_lines, bulk):
        """install_many(L) must leave the exact state a dirty=False
        install() loop leaves — tags, LRU ticks, dirty bits, stats —
        and return the same dirty-eviction count, from any starting
        state (including dirty residents and partially filled sets)."""
        a = SetAssocCache("a", 4096, 2)
        b = SetAssocCache("b", 4096, 2)
        for ln in warm:
            a.install(ln)
            b.install(ln)
        for ln in dirty_lines:
            a.install(ln, dirty=True)
            b.install(ln, dirty=True)
        ndirty = 0
        for ln in bulk:
            ev = a.install(ln)
            if ev is not None and ev[1]:
                ndirty += 1
        assert b.install_many(bulk) == ndirty
        assert b.snapshot() == a.snapshot()


_LINE = st.integers(0, 255)   # 16 candidate lines per set of a 16-set cache
_CACHE_OPS = st.one_of(
    st.tuples(st.just("pollute"), st.lists(_LINE, min_size=1, max_size=120)),
    st.tuples(st.just("access"), _LINE, st.booleans()),
    st.tuples(st.just("install"), _LINE, st.booleans()),
    st.tuples(st.just("stash"), _LINE, st.integers(1, 24)),
    st.tuples(st.just("span"), _LINE, st.integers(1, 40)),
    st.tuples(st.just("invalidate"), _LINE),
    st.tuples(st.just("probe"), _LINE),
    st.tuples(st.just("evictions")),
    st.tuples(st.just("occupancy")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("flush")),
)
# PENDING_CAP: the shipped value, and small ones that bring the settle of
# a log about to pass the cap into reach.
_CAPS = st.sampled_from([cache_mod.PENDING_CAP, 40, 200])


def _drive(c, op, saved):
    kind = op[0]
    if kind == "pollute":
        return c.install_many(op[1])
    if kind == "access":
        return c.access(op[1], write=op[2])
    if kind == "install":
        return c.install(op[1], dirty=op[2])
    if kind == "stash":   # a DMA-style run of dirty fills
        return [c.install(line, dirty=True)
                for line in range(op[1], op[1] + op[2])]
    if kind == "span":
        return c.settle_span(op[1], op[2])
    if kind == "invalidate":
        return c.invalidate(op[1])
    if kind == "probe":
        return c.probe(op[1])
    if kind == "evictions":
        return c.evictions
    if kind == "occupancy":
        return c.occupancy
    if kind == "snapshot":
        saved[id(c)] = snap = c.snapshot()
        return snap
    if kind == "restore":
        if id(c) in saved:
            c.restore(saved[id(c)])
        return None
    return c.flush_all()


class TestDeferredPollution:
    """``install_many`` only logs clean-set lines; every observation
    settles first.  Whatever the interleaving, each call must return what
    the eager install loop returns, and the settled state must equal the
    eager state field for field."""

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_CACHE_OPS, min_size=1, max_size=40), cap=_CAPS)
    def test_property_lazy_equals_eager(self, ops, cap):
        with mock.patch.object(cache_mod, "PENDING_CAP", cap):
            lazy = SetAssocCache("lazy", 4096, 4)
            eager = EagerCache("eager", 4096, 4)
            saved: dict = {}
            for op in ops:
                assert _drive(lazy, op, saved) == _drive(eager, op, saved), op
            assert lazy.snapshot() == eager.snapshot()
            assert lazy._npend == 0 and lazy._log is None

    def test_pending_lines_wait_for_an_observer(self):
        c = SetAssocCache("c", 4096, 4)
        assert c.install_many([1, 17, 33]) == 0
        assert c._npend == 3 and c._tick == 3
        assert c.tags == {} and c._map == {}      # nothing applied yet
        assert c.probe(17)                         # settles set 1 only
        assert c._map == {1: 0, 17: 1, 33: 2}
        assert c.lru[1] == [1, 2, 3, 0]

    def test_dirty_sets_install_at_once(self):
        """A set holding a dirty line is never deferred, so the call that
        evicts the dirty line reports it."""
        c = SetAssocCache("c", 2048, 2)           # 16 sets
        c.install(0, dirty=True)
        c.install(16)
        assert c.install_many([32, 1]) == 1        # 32 evicts dirty line 0
        assert c._map.get(32) is not None and not c.probe(0)
        assert c._pending[0] == 0 and c._pending[1] == 1

    def test_restore_drops_the_log(self):
        c = SetAssocCache("c", 4096, 4)
        snap = c.snapshot()
        c.install_many(list(range(200)))
        c.restore(snap)
        assert c._npend == 0 and c._log is None and not any(c._pending)
        assert c.evictions == 0 and c.occupancy == 0


class TestLinesTouched:
    def test_within_one_line(self):
        assert list(lines_touched(0, 64)) == [0]
        assert list(lines_touched(10, 8)) == [0]

    def test_spanning(self):
        assert list(lines_touched(60, 8)) == [0, 1]
        assert list(lines_touched(64, 128)) == [1, 2]

    def test_zero_size(self):
        assert list(lines_touched(100, 0)) == []

    @given(st.integers(0, 2**20), st.integers(1, 4096))
    @settings(max_examples=100, deadline=None)
    def test_property_covers_every_byte(self, addr, size):
        lines = set(lines_touched(addr, size))
        for byte in (addr, addr + size - 1, addr + size // 2):
            assert byte >> 6 in lines


class TestDram:
    def test_idle_access_pays_base_latency_only(self):
        d = Dram(base_latency_ns=90.0, bandwidth_gbps=20.0)
        assert d.access(now=1000.0) == 90.0

    def test_back_to_back_accesses_queue(self):
        d = Dram(base_latency_ns=90.0, bandwidth_gbps=20.0)
        d.access(now=0.0, lines=10)  # occupies 10*3.2ns = 32ns
        lat = d.access(now=0.0)
        assert lat == pytest.approx(90.0 + 32.0)

    def test_queue_drains_with_time(self):
        d = Dram(base_latency_ns=90.0, bandwidth_gbps=20.0)
        d.access(now=0.0, lines=10)
        assert d.queue_delay(100.0) == 0.0

    def test_inject_busy_delays_later_access(self):
        d = Dram(base_latency_ns=90.0, bandwidth_gbps=20.0)
        d.inject_busy(0.0, 500.0)
        assert d.access(0.0) == pytest.approx(590.0)

    def test_queue_cap(self):
        d = Dram(base_latency_ns=90.0, bandwidth_gbps=20.0, queue_cap_ns=100.0)
        d.inject_busy(0.0, 10_000.0)
        assert d.queue_delay(0.0) == 100.0

    def test_charge_bandwidth_tracks_lines(self):
        d = Dram()
        d.charge_bandwidth(0.0, 7)
        assert d.lines_moved == 7
