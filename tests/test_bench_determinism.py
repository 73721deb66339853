"""Determinism contract of the benchmark orchestrator.

Two runs of the same figures at the same seed must produce
byte-identical ``BENCH_<figure>.json`` documents once the ``meta`` block
(the only place timestamps, host names, and wall-clock live) is
stripped — regardless of how many worker processes executed the sweep
points.  This is what makes the on-disk point cache and ``bench diff``
sound.
"""

from __future__ import annotations

import json

from repro.bench.orchestrator import build_meta, run_figures, write_runs

# Cheap-but-representative subset: one structural sweep and one DES
# latency sweep (smoke mode: first point only).
FIGURES = ["abl_got", "fig5"]


def _canonical_payloads(out_dir, jobs, figures=FIGURES, smoke=True):
    """Run ``figures`` uncached and return {figure: payload-sans-meta}
    dumps."""
    runs = run_figures(figures, smoke=smoke, jobs=jobs, store=None)
    paths = write_runs(runs, out_dir, build_meta(fast=True, smoke=smoke,
                                                 jobs=jobs))
    out = {}
    for path in paths:
        payload = json.loads(path.read_text())
        payload.pop("meta")
        out[payload["figure"]] = json.dumps(payload, sort_keys=True)
    return out


def test_parallel_runs_are_byte_identical(tmp_path):
    first = _canonical_payloads(tmp_path / "run1", jobs=4)
    second = _canonical_payloads(tmp_path / "run2", jobs=4)
    assert sorted(first) == FIGURES == sorted(second)
    assert first == second


def test_parallel_equals_serial(tmp_path):
    parallel = _canonical_payloads(tmp_path / "par", jobs=4)
    serial = _canonical_payloads(tmp_path / "ser", jobs=1)
    assert parallel == serial


def test_sweep_spread_over_workers_equals_serial(tmp_path):
    """One multi-point sweep whose points run on two workers assembles
    exactly like the serial run."""
    parallel = _canonical_payloads(tmp_path / "par", jobs=2,
                                   figures=["fig7"], smoke=False)
    serial = _canonical_payloads(tmp_path / "ser", jobs=1,
                                 figures=["fig7"], smoke=False)
    assert len(json.loads(serial["fig7"])["x"]) >= 4
    assert parallel == serial
