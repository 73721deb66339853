"""Host time at a reference speed, for a shared host whose speed wanders.

On a host shared with other tenants, the speed of one core wanders by
tens of percent within a second and between minutes, and the slowdown
hits any Python code alike: a fixed loop and the simulator slow down
together (their times correlate at about 0.75 when interleaved).  So a
``HostClock`` runs a short fixed calibration *slice* at the start and
end of every round and, between them, whenever ``every_s`` of host time
has passed at a point where the workload lets it (between ops, or at a
ping).  It takes the slices out of the timeline and scales each stretch
between two slices by ``REF_SLICE_S`` over the mean duration of the two
slices around it.

A time read through the clock is therefore in *reference seconds*: the
host seconds the same work takes when one slice takes ``REF_SLICE_S``,
about the median on a 2-CPU shared x86-64 host.  A change to the
simulator moves these times exactly as it moves raw host time; only the
host's own speed is divided out.  Raw host times are recorded beside
them.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import time

perf = time.perf_counter

#: Duration of one calibration slice at the reference speed.
REF_SLICE_S = 0.0013
#: Objects in the calibration's large table (about 24 MB resident).
TABLE_SIZE = 1 << 17


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def bump(self, by):
        self.value = (self.value + by) & 0xFFFF
        return self.value


_ITEMS = [_Item(i, i * 37) for i in range(64)]
_TABLE: dict = {}
_KEYS: list = []


def _build_table() -> None:
    """The large table, built on first use: after set-up is timed."""
    if not _TABLE:
        _TABLE.update((i * 2654435761 % (1 << 32), _Item(i, i ^ 5))
                      for i in range(TABLE_SIZE))
        _KEYS.extend(_TABLE)


def calibration_work() -> int:
    """A fixed piece of interpreter work shaped like the simulator's own:
    a heap of timestamped events, dict lookups, attribute updates and
    method calls on small objects, int and bytes arithmetic; then
    lookups scattered over a table of objects far larger than the small
    caches, as the simulator's own object graph is.  The scattered part
    makes the slice slow down with the memory contention that slows the
    simulator, which the small-object part alone misses.  Its weight was
    chosen from six processes per workload, each timing both parts
    apart: over ``loaded_tail``'s six (raw medians 1.9-3.1 s), with no
    scattered part the scaled medians still rose with the raw ones, with
    1000 lookups they fell, and with these 250 they neither rose nor
    fell.  The spread of the scaled medians was, for ``loaded_tail``,
    ``guest_loop`` and ``chain_kv``: 0.066, 0.035, 0.067 with no
    lookups; 0.046, 0.033, 0.074 with 250; 0.052, 0.067, 0.093 with
    1000."""
    heap: list = []
    table: dict = {}
    acc = 0
    items = _ITEMS
    for i in range(800):
        heapq.heappush(heap, ((i * 7919) % 1021, i))
        it = items[i & 63]
        acc += it.bump(i)
        table[i & 255] = table.get(i & 255, 0) + acc
        if i & 3 == 0:
            t, j = heapq.heappop(heap)
            acc ^= t + j
        acc += int.from_bytes(i.to_bytes(4, "little"), "big") >> 20
    big, keys, n, x = _TABLE, _KEYS, len(_KEYS), 777
    for _ in range(250):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        it = big[keys[x % n]]
        acc += it.key ^ it.value
    return acc


def calibration_slice() -> float:
    """Host seconds one slice takes now.  The work runs twice and the
    second run is timed, so the caches the program left cold are not on
    the slice's time; garbage collection is held off, so neither is the
    program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    calibration_work()
    t0 = perf()
    calibration_work()
    dt = perf() - t0
    if enabled:
        gc.enable()
    return dt


class HostClock:
    """Marks raw host times within a round and maps them to reference
    seconds once the round is closed.

    ``every_s=None`` slices only at the round's start and end (the traced
    run: a slice inside a layer's span would count as that layer's time).
    """

    def __init__(self, every_s: float | None):
        self.every_s = every_s
        # (start, end, timed duration) of each slice this round
        self.slices: list[tuple[float, float, float]] = []

    def open(self) -> None:
        _build_table()
        self.slices = []
        self._slice()

    def tick(self) -> None:
        """A point where the workload allows a slice; takes one if
        ``every_s`` has passed since the last."""
        if self.every_s is not None and \
                perf() - self.slices[-1][1] >= self.every_s:
            self._slice()

    def _slice(self) -> None:
        t0 = perf()
        dt = calibration_slice()
        self.slices.append((t0, perf(), dt))

    def close(self):
        """End the round with a slice; return ``ref(t)``, mapping a raw
        ``perf_counter`` reading taken since ``open`` to reference
        seconds (slices take no reference time)."""
        self._slice()
        sl = self.slices
        starts = [a for a, _, _ in sl]
        rates, cum = [], [0.0]
        for (_, b0, d0), (a1, _, d1) in zip(sl, sl[1:]):
            rate = REF_SLICE_S / (0.5 * (d0 + d1))
            rates.append(rate)
            cum.append(cum[-1] + (a1 - b0) * rate)

        def ref(t: float) -> float:
            i = bisect.bisect_right(starts, t) - 1
            if i < 0:
                return 0.0
            if i >= len(rates):
                return cum[-1]
            return cum[i] + max(t - sl[i][1], 0.0) * rates[i]

        return ref
