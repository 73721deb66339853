"""Identity of the stress model's batched and deferred paths.

The stress workload (machine/noise.py) used to charge the DRAM ledger
once per polluted dirty line; the batched ``charge_bandwidth_bulk``
replaces k method calls with one.  The per-line ``charge_bandwidth``
float sequence is the contract: ``busy_until`` must round identically
(repeated addition, never one multiply), or every noise figure's tail
rows drift.  Its LLC pollution is deferred per cache set
(machine/cache.py) and must leave rows as the eager install loop does.
These tests pin exact float equality at the ledger level, byte-identical
rows for the loaded figures (fig11, fig12) against the per-line eager
model, and the stress process's start/stop life cycle.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.orchestrator import run_figures
from repro.machine import Node, SetAssocCache, StressConfig, StressWorkload
from repro.machine.dram import Dram
from repro.sim import Engine
from repro.sim.rng import RngPool

from .util import eager_install_many


def _charge_per_line(dram: Dram, now: float, lines: int) -> float:
    """The pre-batching reference: k single-line charges."""
    q = 0.0
    for i in range(lines):
        qq = dram.charge_bandwidth(now, 1)
        if i == 0:
            q = qq
    return q


def _mirror_drams() -> tuple[Dram, Dram]:
    return Dram(), Dram()


def test_bulk_matches_per_line_exactly():
    a, b = _mirror_drams()
    # Awkward fractional times exercise max(now, busy) on both branches
    # (idle channel, backlogged channel) and accumulate rounding.
    script = [(0.1, 48), (937.3, 1), (941.7, 17), (10_000.0, 48),
              (10_001.1, 3), (123_456.789, 48)]
    for now, k in script:
        qa = _charge_per_line(a, now, k)
        qb = b.charge_bandwidth_bulk(now, k)
        assert qa == qb
        assert a.busy_until == b.busy_until  # exact, not approx
        assert a.lines_moved == b.lines_moved


def test_bulk_matches_with_interleaved_traffic():
    a, b = _mirror_drams()
    for i in range(200):
        now = i * 1000.0 + (i % 7) * 0.3
        a.inject_busy(now, 550.0)
        b.inject_busy(now, 550.0)
        assert a.access(now, 2) == b.access(now, 2)
        qa = _charge_per_line(a, now, 48)
        qb = b.charge_bandwidth_bulk(now, 48)
        assert qa == qb
        assert a.busy_until == b.busy_until
    assert a.snapshot() == b.snapshot()


def test_bulk_zero_lines_is_a_noop():
    d = Dram()
    d.inject_busy(5.0, 100.0)
    before = d.snapshot()
    assert d.charge_bandwidth_bulk(5.0, 0) == 0.0
    assert d.snapshot() == before


def _tail_rows(monkeypatch, fig: str, reference: bool) -> str:
    if reference:
        # The pre-batching, pre-deferral model: per-line write-back
        # charges, and every pollution line installed at its tick.
        def per_line(self, now, lines):
            return _charge_per_line(self, now, lines)
        monkeypatch.setattr(Dram, "charge_bandwidth_bulk", per_line)
        monkeypatch.setattr(SetAssocCache, "install_many", eager_install_many)
    runs = run_figures([fig], smoke=True, jobs=1, store=None)
    rows = [dict(p.row) for p in runs[0].points]
    return json.dumps(rows, sort_keys=True)


@pytest.mark.parametrize("fig", ["fig11", "fig12"])
def test_tail_rows_identical_either_path(monkeypatch, fig):
    fast = _tail_rows(monkeypatch, fig, reference=False)
    with monkeypatch.context() as mp:
        reference = _tail_rows(mp, fig, reference=True)
    assert fast == reference


def test_restart_within_one_tick_runs_one_tick_loop():
    """stop() then start() while the tick process is parked in its delay
    must not leave the parked process ticking beside the new one."""
    eng = Engine()
    node = Node(eng, 0)
    s = StressWorkload(eng, node, RngPool(1), StressConfig())  # 1 us ticks
    s.start()
    eng.run(until=500.0)            # ticked at t=0, parked until t=1000
    s.stop()
    s.start()                       # new process ticks at t=500, 1500, ...
    eng.run(until=20_000.0)
    assert s.ticks == 1 + 20
