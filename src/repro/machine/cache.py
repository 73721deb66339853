"""Set-associative cache with true-LRU replacement.

All caches in the hierarchy (L1I/L1D/L2/L3/LLC) are instances of
:class:`SetAssocCache`.  State is kept in plain Python ints — per-set
rows of resident line addresses, LRU ticks and dirty bits — plus a
``line -> way`` dict (``_map``) covering every resident line.  The dict
makes the three operations that dominate simulator profiles O(1):
presence probes (DMA snoops are >90% misses), hit lookups, and
invalidations.  Only the install path still scans a set row, and that
row is a tiny list of ints (``ways`` <= 16).

An earlier numpy-backed layout paid a scalar-scan (`row[way] == tag`)
per probe; at the access counts our benchmarks reach the dict design is
~4x faster end to end (see docs/ARCHITECTURE.md, "Performance
engineering").

Deferred pollution
------------------
``install_many`` (the stress model's LLC pollution: millions of lines
per loaded figure) does not walk the sets.  It advances ``_tick``
as an install loop would and appends each line, with the tick it would
have received, to a pending log.  A line only ever interacts with its
own set, so a set's pending lines can be applied ("settled") at any
time before that set is next read or written — in tick order — and the
result is exactly the state the install loop would have left.  Hence:

* every method here settles the set it touches, and the whole-cache
  reads (``evictions``, ``occupancy``, ``snapshot``, ``flush_all``)
  settle everything; ``restore`` drops the log;
* code that reaches into ``_map``/``tags``/``lru``/``dirty`` directly
  (the hierarchy's inlined LLC paths) must call :meth:`settle_set` or
  :meth:`settle_span` first;
* deferral is exact only for clean sets, because evicting a dirty line
  charges a DRAM write-back at the moment it happens.  ``_dirty_sets``
  flags every set that may hold a dirty line; pollution lines of those
  sets are installed at once.  ``install``/``access`` keep the flags, and
  so must any direct writer of a dirty bit (the hierarchy's stash DMA,
  through :meth:`mark_dirty_span`).

Addresses are node-physical.  The cache works in units of *lines*
(``line_addr = addr >> 6`` for 64-byte lines).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import MachineError

LINE_SHIFT = 6
LINE_BYTES = 1 << LINE_SHIFT

#: Pending lines a cache holds before it applies them all at once; bounds
#: the log's memory (20 bytes a line, so at most 10 MB) on long loaded
#: runs.  The longest default fig11/fig12 point logs ~362k lines per LLC,
#: so those points never reach it and their unobserved lines (~95%) are
#: dropped at restore instead of applied.
PENDING_CAP = 1 << 19


def line_of(addr: int) -> int:
    return addr >> LINE_SHIFT


def lines_touched(addr: int, size: int) -> range:
    """Range of line addresses overlapped by [addr, addr+size)."""
    if size <= 0:
        return range(0)
    return range(addr >> LINE_SHIFT, (addr + size - 1 >> LINE_SHIFT) + 1)


class _PendingLog:
    """Lines ``install_many`` deferred, each with the tick it would have
    received.  Entries are chained per set in tick order (``head[s]`` ->
    ``nxt`` -> ... -> -1; ``tail[s]`` is the last), so one set's lines are
    found without scanning the log.  Chaining is itself deferred to the
    first lookup after an append, then vectorized over every entry
    appended since.  Taking a set's lines unlinks them; the entries are
    reclaimed when the cache drops the whole log.  The arrays double as
    the log grows, so a log's memory follows what it holds (a loaded
    perfbench op logs ~30k lines per LLC), not ``PENDING_CAP``."""

    __slots__ = ("mask", "lines", "ticks", "nxt", "head", "tail", "flags",
                 "n", "linked")

    def __init__(self, sets: int, flags: bytearray):
        self.mask = sets - 1
        self.lines = np.empty(0, np.int64)
        self.ticks = np.empty(0, np.int64)
        self.nxt = np.empty(0, np.int32)
        self.head = np.full(sets, -1, np.int32)
        self.tail = np.full(sets, -1, np.int32)
        self.flags = np.frombuffer(flags, np.uint8)   # cache._pending view
        self.n = 0
        self.linked = 0

    def append(self, lines, ticks, sets) -> None:
        n = self.n
        m = n + len(lines)
        if m > len(self.lines):
            size = min(max(m, 2 * len(self.lines)), PENDING_CAP)
            for name in ("lines", "ticks", "nxt"):
                old = getattr(self, name)
                grown = np.empty(size, old.dtype)
                grown[:n] = old[:n]
                setattr(self, name, grown)
        self.lines[n:m] = lines
        self.ticks[n:m] = ticks
        self.flags[sets] = 1
        self.n = m

    def _link(self) -> None:
        i0 = self.linked
        n = self.n
        sets = self.lines[i0:n] & self.mask
        order = np.argsort(sets, kind="stable")
        sets = sets[order]
        idx = order + i0
        first = np.empty(len(sets), bool)
        first[0] = True
        np.not_equal(sets[1:], sets[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:] - 1
        ends[-1] = len(sets) - 1
        nxt = self.nxt
        nxt[idx[:-1]] = idx[1:]
        nxt[idx[ends]] = -1
        group = sets[starts]
        gfirst = idx[starts]
        prev = self.tail[group]
        cont = prev >= 0
        nxt[prev[cont]] = gfirst[cont]
        fresh = ~cont
        self.head[group[fresh]] = gfirst[fresh]
        self.tail[group] = idx[ends]
        self.linked = n

    def take_set(self, sidx: int) -> list[int]:
        """Unlink set ``sidx``'s pending lines; their log indices in tick
        order."""
        if self.linked != self.n:
            self._link()
        head = self.head
        i = head.item(sidx)
        head[sidx] = -1
        self.tail[sidx] = -1
        nxt = self.nxt
        out = []
        while i >= 0:
            out.append(i)
            i = nxt.item(i)
        return out

    def take_sets(self, sets):
        """Unlink the pending lines of ``sets`` (distinct indices of sets
        with pending lines); their log indices, walked in lockstep (every
        set's first line, then every set's second, ...), so each set's
        lines stay in tick order."""
        if self.linked != self.n:
            self._link()
        cur = self.head[sets]
        self.head[sets] = -1
        self.tail[sets] = -1
        self.flags[sets] = 0
        steps = []
        while len(cur):
            steps.append(cur)
            cur = self.nxt[cur]
            cur = cur[cur >= 0]
        return np.concatenate(steps) if steps else cur


class SetAssocCache:
    """One cache level.

    Parameters
    ----------
    name:
        Label for stats (e.g. ``"L2.c0"``).
    size_bytes:
        Total capacity; must be sets*ways*64.
    ways:
        Associativity.
    """

    __slots__ = (
        "name", "size_bytes", "ways", "sets", "_set_mask", "_map",
        "tags", "lru", "dirty", "_tick", "hits", "misses", "_evictions",
        "_npend", "_pending", "_log", "_dirty_sets",
    )

    def __init__(self, name: str, size_bytes: int, ways: int):
        if size_bytes % (ways * LINE_BYTES):
            raise MachineError(
                f"{name}: size {size_bytes} not divisible by ways*line"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.sets = size_bytes // (ways * LINE_BYTES)
        if self.sets & (self.sets - 1):
            raise MachineError(f"{name}: set count {self.sets} not a power of 2")
        self._set_mask = self.sets - 1
        # Per-set rows: resident line address (-1 = invalid), LRU tick,
        # dirty bit.  Rows are created lazily on first install into a
        # set — a 32 MB LLC has 32k sets, and benchmarks construct whole
        # hierarchies per sweep point, so eager allocation dominates the
        # constructor.  A line present in ``_map`` (line -> way, every
        # resident line) implies its set's rows exist.
        self.tags: dict[int, list[int]] = {}
        self.lru: dict[int, list[int]] = {}
        self.dirty: dict[int, list[bool]] = {}
        self._map: dict[int, int] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self._evictions = 0
        # Deferred pollution (module docstring).  ``_npend`` is the log
        # length (0: nothing pending anywhere, the one test every settle
        # site pays), ``_pending[s]`` is 1 while set s has pending lines;
        # both it and ``_log`` are created by the first install_many (most
        # caches never receive one).  ``_dirty_sets`` is built from the
        # dirty rows when install_many first needs it (None until then,
        # and again after restore/flush_all).
        self._npend = 0
        self._pending: Optional[bytearray] = None
        self._log: Optional[_PendingLog] = None
        self._dirty_sets: Optional[bytearray] = None

    # -- deferred pollution -------------------------------------------------

    def settle_set(self, sidx: int) -> None:
        """Apply set ``sidx``'s pending lines.  Callers test
        ``_npend and _pending[sidx]`` first (the cheap common case)."""
        self._pending[sidx] = 0
        self._apply(self._log.take_set(sidx))

    def settle_span(self, first: int, nlines: int) -> None:
        """Settle every set that lines ``first .. first+nlines-1`` map to."""
        if not self._npend:
            return
        pending = self._pending
        mask = self._set_mask
        if nlines <= 8:
            for line in range(first, first + nlines):
                if pending[line & mask]:
                    self.settle_set(line & mask)
            return
        flags = self._log.flags
        lo = first & mask
        hi = lo + nlines
        if nlines >= self.sets:
            hot = np.flatnonzero(flags)
        elif hi <= self.sets:
            hot = np.flatnonzero(flags[lo:hi]) + lo
        else:
            hot = np.concatenate((np.flatnonzero(flags[lo:]) + lo,
                                  np.flatnonzero(flags[:hi - self.sets])))
        if len(hot):
            self._apply(self._log.take_sets(hot))

    def settle(self) -> None:
        """Apply every pending line."""
        if self._npend:
            self._apply(self._log.take_sets(np.flatnonzero(self._log.flags)))
            self._drop_log()

    def _drop_log(self) -> None:
        # The arrays are freed, not kept for reuse: a settled or restored
        # cache holds no log memory.
        self._log.flags.fill(0)
        self._log = None
        self._npend = 0

    def _apply(self, idx) -> None:
        """Install the log entries ``idx`` clean, each at its own tick:
        the install loop, run late, with the per-line lookups hoisted.
        Sets are independent, so any order that keeps each set's entries
        in tick order leaves the state the loop would have.  A set with
        pending lines holds no dirty line, so no eviction here owes a
        write-back."""
        log = self._log
        mask = self._set_mask
        mp = self._map
        mget = mp.get
        tags = self.tags
        tget = tags.get
        lru = self.lru
        ways = self.ways
        evictions = 0
        for line, tick in zip(log.lines[idx].tolist(),
                              log.ticks[idx].tolist()):
            sidx = line & mask
            way = mget(line)
            if way is not None:
                lru[sidx][way] = tick
                continue
            row = tget(sidx)
            if row is None:
                row = tags[sidx] = [-1] * ways
                lrow = lru[sidx] = [0] * ways
                self.dirty[sidx] = [False] * ways
                way = 0
            elif -1 in row:
                way = row.index(-1)
                lrow = lru[sidx]
            else:
                lrow = lru[sidx]
                way = lrow.index(min(lrow))
                del mp[row[way]]
                evictions += 1
            row[way] = line
            mp[line] = way
            lrow[way] = tick
        self._evictions += evictions

    def mark_dirty_span(self, first: int, nlines: int) -> None:
        """Flag the sets of lines ``first .. first+nlines-1`` as possibly
        dirty; for writers that set dirty bits directly (stash DMA)."""
        flags = self._dirty_sets
        if flags is None or nlines <= 0:
            return
        lo = first & self._set_mask
        hi = lo + min(nlines, self.sets)
        if hi <= self.sets:
            flags[lo:hi] = b"\x01" * (hi - lo)
        else:
            flags[lo:] = b"\x01" * (self.sets - lo)
            flags[:hi - self.sets] = b"\x01" * (hi - self.sets)

    def _scan_dirty(self) -> bytearray:
        flags = bytearray(self.sets)
        for s, row in self.dirty.items():
            if True in row:
                flags[s] = 1
        return flags

    # -- operations ---------------------------------------------------------

    def probe(self, line_addr: int) -> bool:
        """Presence test with no LRU side effects (used by DMA snoop)."""
        if self._npend and self._pending[line_addr & self._set_mask]:
            self.settle_set(line_addr & self._set_mask)
        return line_addr in self._map

    def access(self, line_addr: int, write: bool = False) -> bool:
        """Look up a line; on hit update LRU (and dirty for writes).

        Returns True on hit.  Misses do NOT allocate — callers decide
        whether to ``install`` after fetching from the next level.
        """
        if self._npend and self._pending[line_addr & self._set_mask]:
            self.settle_set(line_addr & self._set_mask)
        way = self._map.get(line_addr)
        if way is None:
            self.misses += 1
            return False
        self.hits += 1
        self._tick += 1
        sidx = line_addr & self._set_mask
        self.lru[sidx][way] = self._tick
        if write:
            self.dirty[sidx][way] = True
            if self._dirty_sets is not None:
                self._dirty_sets[sidx] = 1
        return True

    def install(self, line_addr: int, dirty: bool = False
                ) -> Optional[tuple[int, bool]]:
        """Fill a line, evicting the LRU way if the set is full.

        Returns (evicted_line_addr, evicted_dirty) or None.  Installing a
        line already present just refreshes it.
        """
        sidx = line_addr & self._set_mask
        if self._npend and self._pending[sidx]:
            self.settle_set(sidx)
        if dirty and self._dirty_sets is not None:
            self._dirty_sets[sidx] = 1
        self._tick = tick = self._tick + 1
        way = self._map.get(line_addr)
        if way is not None:
            self.lru[sidx][way] = tick
            if dirty:
                self.dirty[sidx][way] = True
            return None
        row = self.tags.get(sidx)
        if row is None:
            row = self.tags[sidx] = [-1] * self.ways
            self.lru[sidx] = [0] * self.ways
            self.dirty[sidx] = [False] * self.ways
        evicted: Optional[tuple[int, bool]] = None
        # Prefer an invalid way; otherwise evict true-LRU.  Scans stay
        # at C speed (list `in`/`index`/`min`); ticks are unique, so
        # `index(min(...))` is the unambiguous LRU way.
        if -1 in row:
            way = row.index(-1)
        else:
            lru_row = self.lru[sidx]
            way = lru_row.index(min(lru_row))
            old_line = row[way]
            evicted = (old_line, self.dirty[sidx][way])
            del self._map[old_line]
            self._evictions += 1
        row[way] = line_addr
        self._map[line_addr] = way
        self.lru[sidx][way] = tick
        self.dirty[sidx][way] = dirty
        return evicted

    def install_many(self, line_addrs) -> int:
        """Bulk clean-fill; returns the count of dirty lines evicted.

        Observably identical to calling :meth:`install` once per element
        with ``dirty=False`` — same ticks, same eviction decisions — but
        lines of sets that cannot hold a dirty line are only logged, and
        applied when their set is next observed (module docstring).
        Lines of the other sets are installed now, so the dirty-eviction
        count is returned at the call that causes it.  Exists for the
        stress workload's LLC pollution.
        """
        lines = np.asarray(line_addrs, dtype=np.int64)
        k = len(lines)
        if not k:
            return 0
        if k > PENDING_CAP:    # more than a log holds: log it in pieces
            return sum(self.install_many(lines[lo:lo + PENDING_CAP])
                       for lo in range(0, k, PENDING_CAP))
        tick0 = self._tick
        sets = lines & self._set_mask
        ticks = np.arange(tick0 + 1, tick0 + k + 1)
        ndirty = 0
        dirty_sets = self._dirty_sets
        if dirty_sets is None:
            dirty_sets = self._dirty_sets = self._scan_dirty()
        if dirty_sets.find(1) >= 0:
            now = np.frombuffer(dirty_sets, np.uint8)[sets].astype(bool)
            if now.any():
                for j in np.flatnonzero(now).tolist():
                    self._tick = tick0 + j     # install() takes the next
                    ev = self.install(lines.item(j))
                    if ev is not None and ev[1]:
                        ndirty += 1
                later = ~now
                lines = lines[later]
                sets = sets[later]
                ticks = ticks[later]
        self._tick = tick0 + k
        if not len(lines):
            return ndirty
        if self._npend + len(lines) > PENDING_CAP:
            self.settle()
        log = self._log
        if log is None:
            if self._pending is None:
                self._pending = bytearray(self.sets)
            log = self._log = _PendingLog(self.sets, self._pending)
        log.append(lines, ticks, sets)
        self._npend = log.n
        return ndirty

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns whether it was dirty."""
        if self._npend and self._pending[line_addr & self._set_mask]:
            self.settle_set(line_addr & self._set_mask)
        way = self._map.pop(line_addr, None)
        if way is None:
            return False
        sidx = line_addr & self._set_mask
        was_dirty = self.dirty[sidx][way]
        self.tags[sidx][way] = -1
        self.dirty[sidx][way] = False
        self.lru[sidx][way] = 0
        return was_dirty

    def flush_all(self) -> int:
        """Invalidate everything; returns count of dirty lines dropped."""
        self.settle()
        ndirty = sum(row.count(True) for row in self.dirty.values())
        self.tags.clear()
        self.dirty.clear()
        self.lru.clear()
        self._map.clear()
        self._dirty_sets = None
        return ndirty

    def snapshot(self) -> tuple:
        """Full replacement-state capture (tags/LRU/dirty/stats)."""
        self.settle()
        return (
            {s: row[:] for s, row in self.tags.items()},
            {s: row[:] for s, row in self.lru.items()},
            {s: row[:] for s, row in self.dirty.items()},
            dict(self._map),
            self._tick, self.hits, self.misses, self._evictions,
        )

    def restore(self, snap: tuple) -> None:
        tags, lru, dirty, amap, tick, hits, misses, evictions = snap
        if self._log is not None:
            self._drop_log()
        self.tags = {s: row[:] for s, row in tags.items()}
        self.lru = {s: row[:] for s, row in lru.items()}
        self.dirty = {s: row[:] for s, row in dirty.items()}
        self._map = dict(amap)
        self._tick = tick
        self.hits = hits
        self.misses = misses
        self._evictions = evictions
        self._dirty_sets = None

    @property
    def evictions(self) -> int:
        self.settle()
        return self._evictions

    @property
    def occupancy(self) -> int:
        self.settle()
        return len(self._map)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetAssocCache({self.name}, {self.size_bytes >> 10}KiB, "
            f"{self.ways}-way, hits={self.hits}, misses={self.misses})"
        )
