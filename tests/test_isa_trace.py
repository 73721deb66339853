"""Cross-branch trace JIT tests.

The trace tier stitches fused blocks across hot loop back-edges into
one closure with guarded bail-outs.  Like fusion, it is a pure
host-side optimization: it must never change a measured value, a fault
pc, or a step count.  These tests pin that contract — full-registry
row identity against ``--no-trace``, guard-mispredict bail pc
exactness, self-modifying stores inside stitched loops, exact
``max_steps`` accounting mid-trace, and restore/invalidation killing
installed traces.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.figures import full_registry
from repro.errors import VmFault
from repro.isa import Vm, assemble
from repro.isa import vm as vmmod
from repro.perf import COUNTERS
from tests.util import fresh_node, raw_load


@pytest.fixture(autouse=True)
def _tiers_restored():
    """Tests toggle the process-wide JIT flags; always restore them."""
    prev_fuse = vmmod.fusion_enabled()
    prev_trace = vmmod.trace_jit_enabled()
    yield
    vmmod.set_fusion(prev_fuse)
    vmmod.set_trace_jit(prev_trace)


def run(source, args=(), node=None, entry="f", max_steps=4_000_000):
    if node is None:
        _, node = fresh_node()
    om = assemble(source)
    vm = Vm(node)
    syms = raw_load(node, om)
    res = vm.call(syms[entry], args, max_steps=max_steps)
    return res, node, syms, vm


def outcome(source, args=(), max_steps=4_000_000):
    """(kind, payload) for a run — comparable across trace modes."""
    try:
        res, *_ = run(source, args, max_steps=max_steps)
        return ("ok", res.ret, res.steps, res.elapsed_ns)
    except VmFault as e:
        return ("fault", str(e), e.pc)


def both_modes(source, args=(), max_steps=4_000_000):
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    traced = outcome(source, args, max_steps)
    vmmod.set_trace_jit(False)
    plain = outcome(source, args, max_steps)
    return traced, plain


# ---------------------------------------------------------------------------
# counters: the trace tier engages on hot loops, and only when enabled
# ---------------------------------------------------------------------------

# Conditional back-edge: `blt ... head` is both the loop's bottom test
# and its backward branch (the hand-written-assembly loop shape).
HOT_LOOP = """
f:
    mov t0, zr
    mov a0, zr
head:
    addi a0, a0, 3
    addi t0, t0, 1
    blt t0, a1, head
    ret
"""

# Unconditional back-edge: top-tested head with a forward conditional
# exit and an unconditional `b head` — the shape the AMC compiler emits
# for every for/while loop (e.g. jam_ss_sum_naive).
HOT_LOOP_B = """
f:
    mov t0, zr
    mov a0, zr
head:
    bge t0, a1, exit
    addi a0, a0, 3
    addi t0, t0, 1
    b head
exit:
    ret
"""


def run_counters(source, args):
    before = COUNTERS.snapshot()
    res, *rest = run(source, args)
    return res, COUNTERS.delta(before)


def test_trace_compiles_on_hot_conditional_backedge():
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    res, d = run_counters(HOT_LOOP, (0, 100))
    assert res.ret == 300
    assert d["traces_compiled"] >= 1
    assert d["trace_dispatches"] >= 1
    assert d["trace_instructions"] > 100  # the loop retired in-trace
    assert d["guard_bails"] >= 1          # the final exit mispredicts


def test_trace_compiles_on_hot_unconditional_backedge():
    # Compiled loops back-branch with an unconditional B; the forward
    # exit test becomes the trace's guard.
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    res, d = run_counters(HOT_LOOP_B, (0, 100))
    assert res.ret == 300
    assert d["traces_compiled"] >= 1
    assert d["trace_instructions"] > 100


def test_no_trace_never_traces():
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(False)
    res, d = run_counters(HOT_LOOP, (0, 100))
    assert res.ret == 300
    assert d["traces_compiled"] == 0
    assert d["trace_dispatches"] == 0
    assert d["trace_instructions"] == 0


def test_trace_tier_requires_fusion():
    # Traces are stitched *from* fused blocks; with fusion off the tier
    # must stay cold even when enabled.
    vmmod.set_fusion(False)
    vmmod.set_trace_jit(True)
    res, d = run_counters(HOT_LOOP, (0, 100))
    assert res.ret == 300
    assert d["traces_compiled"] == 0


def test_steps_and_elapsed_identical_across_modes():
    for src in (HOT_LOOP, HOT_LOOP_B):
        traced, plain = both_modes(src, (0, 200))
        assert traced == plain
        assert traced[0] == "ok" and traced[1] == 600


# ---------------------------------------------------------------------------
# full-registry identity: every spec's smoke row is byte-identical
# with the trace tier on and off (the --no-trace contract)
# ---------------------------------------------------------------------------

def _row(spec, params):
    return json.dumps(spec.point(**params), sort_keys=True)


@pytest.mark.parametrize("name", sorted(full_registry()))
def test_rows_identical_with_and_without_traces(name):
    spec = full_registry()[name]
    params = spec.points(True)[0]  # smoke point
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    traced = _row(spec, params)
    vmmod.set_trace_jit(False)
    plain = _row(spec, params)
    assert traced == plain


# ---------------------------------------------------------------------------
# guard mispredict: bail-out hands back at the exact pc
# ---------------------------------------------------------------------------

BAIL_FAULT = """
f:
    mov t0, zr
    mov a0, zr
head:
    addi a0, a0, 1
    addi t0, t0, 1
    blt t0, a1, head
    div a0, a0, zr
    ret
"""


def test_mispredict_bail_pc_is_exact():
    # The loop guard is predicted taken; the final iteration mispredicts
    # and must hand back at exactly the fall-through pc — the div, whose
    # fault pc pins it.
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    om = assemble(BAIL_FAULT)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    before = COUNTERS.snapshot()
    with pytest.raises(VmFault, match="division by zero") as exc:
        vm.call(syms["f"], (0, 100))
    assert exc.value.pc == syms["f"] + 40  # the div, not the guard
    assert COUNTERS.delta(before)["guard_bails"] >= 1


def test_mispredict_fault_identical_across_modes():
    traced, plain = both_modes(BAIL_FAULT, (0, 100))
    assert traced == plain
    assert traced[0] == "fault"


# ---------------------------------------------------------------------------
# self-modifying store inside a stitched loop
# ---------------------------------------------------------------------------

# Iteration 64 patches `slot` (addi +1 -> addi +100) from inside the
# hot loop, after the trace over it has long been installed: the store
# must kill the trace at the exact iteration, and the re-fused code
# must run the new semantics.  a0 = 64*1 + 36*100 = 3664 for a1=100.
SELF_MOD_LOOP = """
f:
    adr a2, slot
    adr a3, donor
    ld a4, 0(a3)
    mov t0, zr
    mov a0, zr
head:
    addi t0, t0, 1
slot:
    addi a0, a0, 1
    movi t1, 64
    bne t0, t1, skip
    st a4, 0(a2)
skip:
    blt t0, a1, head
    ret
donor:
    addi a0, a0, 100
"""


def test_self_modifying_store_kills_trace_and_refuses():
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    before = COUNTERS.snapshot()
    res, *_ = run(SELF_MOD_LOOP, (0, 100))
    d = COUNTERS.delta(before)
    assert res.ret == 64 + 36 * 100
    assert d["traces_compiled"] >= 1
    assert d["trace_invalidations"] >= 1


def test_self_modifying_store_identical_across_modes():
    traced, plain = both_modes(SELF_MOD_LOOP, (0, 100))
    assert traced == plain
    assert traced[1] == 64 + 36 * 100


def test_invalidated_trace_rebuilds_and_stays_correct():
    # The iter-64 patch kills the trace; the back-edge profile keeps
    # counting and re-traces the *patched* loop at the next
    # power-of-two count, still inside the first call.
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    before = COUNTERS.snapshot()
    res, node, syms, vm = run(SELF_MOD_LOOP, (0, 100))
    assert res.ret == 3664
    d = COUNTERS.delta(before)
    assert d["traces_compiled"] >= 2  # original + rebuild over the patch
    assert d["trace_invalidations"] >= 1
    before = COUNTERS.snapshot()
    # patched code now adds 100 every iteration (the iter-64 store
    # rewrites identical bytes, which keeps decodes and the live trace)
    res2 = vm.call(syms["f"], (0, 100))
    assert res2.ret == 100 * 100
    d = COUNTERS.delta(before)
    assert d["trace_dispatches"] >= 1  # the rebuilt trace serves call 2
    assert d["traces_compiled"] == 0 and d["trace_invalidations"] == 0


# ---------------------------------------------------------------------------
# max_steps: bulk retirement must not overshoot the limit
# ---------------------------------------------------------------------------

def test_max_steps_mid_trace_identical_to_interpreter():
    # HOT_LOOP with a1=100 retires 2 + 3*100 + 1 = 303 steps.  Limits
    # landing mid-loop, at the boundary, and one short of it must fault
    # (or not) with identical pcs and counts in both modes.
    for limit in (50, 150, 302, 303):
        traced, plain = both_modes(HOT_LOOP, (0, 100), max_steps=limit)
        assert traced == plain, f"max_steps={limit}"
    ok = outcome(HOT_LOOP, (0, 100), max_steps=303)
    assert ok[0] == "ok" and ok[2] == 303


def test_max_steps_fault_pc_exact_mid_trace():
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    om = assemble(HOT_LOOP)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    with pytest.raises(VmFault, match="step limit") as exc:
        vm.call(syms["f"], (0, 100), max_steps=302)
    assert exc.value.pc == syms["f"] + 40  # the final ret, step 303


# ---------------------------------------------------------------------------
# restore: checkpoint rewind kills installed traces
# ---------------------------------------------------------------------------

def test_restore_kills_installed_traces():
    vmmod.set_fusion(True)
    vmmod.set_trace_jit(True)
    om = assemble(HOT_LOOP)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    mem = node.mem
    snap = mem.snapshot()
    vm.call(syms["f"], (0, 100))
    assert mem.trace_deps, "no trace installed over the hot loop"
    recs = [rec for lst in mem.trace_deps.values() for rec in lst]
    assert all(rec[2][0] for rec in recs)
    mem.restore(snap)
    assert not mem.trace_deps
    assert not any(rec[2][0] for rec in recs)  # live flags flipped
    # and the world still runs correctly after the rewind
    res = vm.call(syms["f"], (0, 100))
    assert res.ret == 300
