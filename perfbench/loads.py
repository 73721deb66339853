"""The benchmark's three workloads, driven through the simulator's public API.

Each workload builds its worlds once (set-up), checkpoints them, and then
runs *rounds*: every op of a round rewinds its world to the checkpoint
and runs one fixed piece of work, so every round does identical simulated
work and must produce identical model outputs.  The inputs (ping-pong
payload bytes, KV keys and values) come from the run's ``--seed``, which
also seeds the worlds' RNG pool (the stress model's draws).

* ``loaded_tail`` — ``am_pingpong`` with ``jam_ss_sum`` under the
  ``StressConfig`` load on both nodes, on a stash and a non-stash world,
  at 64 B and 32 KB (the two ends of Fig 12's axis).
* ``guest_loop`` — ``am_pingpong`` with ``jam_ss_sum_naive`` at 16 KB, no
  load: the guest summation loop runs in the VM's trace tier.
* ``chain_kv`` — ``ChainKV`` on ``chain_topology(8)`` with 64 B values:
  synchronous puts interleaved with gets, then a ``stream_puts`` burst
  and ``multicast_install`` sweeps.

Every op is checked: Server-Side Sum results must equal the payload's
sum, and every get must return the last value put.  A wrong output is a
failed op.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.bench import shapes
from repro.bench.shapes import am_pingpong
from repro.core.runtime import PreparedJam, TwoChainsRuntime
from repro.core.stdjams import build_std_package
from repro.core.stdworld import make_world
from repro.machine.hierarchy import HierarchyConfig
from repro.machine.noise import StressWorkload
from repro.perf import COUNTERS
from repro.workloads.chainkv import ChainKV, build_chain_package, chain_topology

from hostclock import HostClock

perf = time.perf_counter


@dataclass
class RoundResult:
    """What one round measured and checked.

    Host times are taken as raw ``perf_counter`` marks (pairs) and turned
    into durations by ``finish`` once the round's ``HostClock`` is closed.
    """
    sim_ns: float = 0.0          # simulated time the timed ops advanced
    attempted: int = 0
    failed: int = 0
    wall_marks: list = field(default_factory=list)   # the timed ops
    op_marks: list = field(default_factory=list)     # headline ops
    get_marks: list = field(default_factory=list)    # chain_kv gets
    model_ns: list = field(default_factory=list)     # headline op latencies
    outputs: list = field(default_factory=list)      # model outputs (digest)
    counts: dict = field(default_factory=dict)
    # set by finish(): reference seconds, and raw host seconds
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    op_host_s: list = field(default_factory=list)
    get_host_s: list = field(default_factory=list)

    def add_counts(self, counts: dict) -> None:
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def finish(self, ref) -> None:
        """Durations in reference seconds through ``ref`` (see
        ``hostclock``), and the raw wall time beside them."""
        self.wall_s = sum(ref(b) - ref(a) for a, b in self.wall_marks)
        self.raw_wall_s = sum(b - a for a, b in self.wall_marks)
        self.op_host_s = [ref(b) - ref(a) for a, b in self.op_marks]
        self.get_host_s = [ref(b) - ref(a) for a, b in self.get_marks]


class Probe:
    """Class-level hooks that collect, for the current op, the model
    objects it creates (stress loads, mailbox waiters) and the host time
    at which each client-side ping starts; and the seeded payload fill.
    Every jam send is also a point where the host clock may take a
    calibration slice.

    Installed once per process, before any world is built.
    """

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.stress: list = []
        self.waiters: list = []
        self.ping_t: list[float] = []
        self.payloads: dict[int, bytes] = {}

    def reset(self) -> None:
        self.stress.clear()
        self.waiters.clear()
        self.ping_t.clear()

    def install(self) -> None:
        probe = self
        start = StressWorkload.start
        make_waiter = TwoChainsRuntime.make_waiter
        send = PreparedJam.send

        def stress_start(sw):
            probe.stress.append(sw)
            return start(sw)

        def waiter(rt, *args, **kwargs):
            w = make_waiter(rt, *args, **kwargs)
            probe.waiters.append(w)
            return w

        def ping_send(pj):
            probe.clock.tick()
            if pj.conn.rt.node.node_id == 0:
                probe.ping_t.append(perf())
            return send(pj)

        def fill(node, addr, nbytes, core=0):
            # Same timing as the shape's own fill (write, then a warming
            # stream), with the run's seeded bytes instead of a fixed
            # pattern.
            node.mem.write(addr, probe.payloads[node.node_id][:nbytes])
            node.hier.stream_cost(0.0, core, addr, nbytes, "write")

        StressWorkload.start = stress_start
        TwoChainsRuntime.make_waiter = waiter
        PreparedJam.send = ping_send
        shapes._fill_payload = fill


def _cache_counts(world) -> dict:
    out: dict[str, int] = {"llc_evictions": 0}
    for node in world.bed.nodes:
        h = node.hier
        for level, caches in (("l1i", h.l1i), ("l1d", h.l1d), ("l2", h.l2),
                              ("l3", h.l3), ("llc", (h.llc,))):
            for c in caches:
                out[f"{level}_hits"] = out.get(f"{level}_hits", 0) + c.hits
                out[f"{level}_misses"] = (out.get(f"{level}_misses", 0)
                                          + c.misses)
        out["llc_evictions"] += h.llc.evictions
    return out


def _board_counts(world) -> dict:
    out = {"busy_cycles": 0, "wait_cycles": 0}
    for name, value in world.board_counters().items():
        for key in out:
            if name.endswith("." + key):
                out[key] += value
    return out


def _state(world) -> dict:
    """Public-state counters whose deltas over an op are its exact counts."""
    s = {f"perf.{k}": v for k, v in COUNTERS.snapshot().items()}
    s.update(_cache_counts(world))
    s.update(_board_counts(world))
    return s


def _op_counts(probe: Probe, before: dict, after: dict) -> dict:
    out = {k: after[k] - before[k] for k in after}
    out["stress_ticks"] = sum(s.ticks for s in probe.stress)
    out["stress_preemptions"] = sum(s.preemptions for s in probe.stress)
    for key in ("frames", "injected_frames", "rejected_frames"):
        out[f"mb_{key}"] = sum(getattr(w.stats, key) for w in probe.waiters)
    return out


def _i32_sum(data: bytes) -> int:
    n = len(data) // 4
    return sum(int.from_bytes(data[4 * i:4 * i + 4], "little", signed=True)
               for i in range(n))


def _s64(v: int) -> int:
    return v - (1 << 64) if v >= 1 << 63 else v


# ---------------------------------------------------------------------------
# ping-pong workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PingOp:
    label: str
    world: str          # key into the workload's worlds
    jam: str
    nbytes: int
    warmup: int
    iters: int
    stress: bool
    headline: bool = False


class PingPongWorkload:
    """Rounds of ``am_pingpong`` calls, each on a freshly rewound world."""

    ops: tuple[PingOp, ...] = ()
    hier_cfgs: dict = {}

    def __init__(self, seed: int, probe: Probe):
        self.seed = seed
        self.probe = probe
        self.worlds: dict = {}

    def build_package(self):
        return build_std_package()

    def build_worlds(self, build) -> None:
        for key, cfg in self.hier_cfgs.items():
            w = make_world(hier_cfg=cfg, build=build, seed=self.seed)
            self.worlds[key] = (w, w.snapshot())

    def run_round(self, tracer=None) -> RoundResult:
        res = RoundResult()
        for op in self.ops:
            self._run_op(op, res, tracer)
        return res

    def _run_op(self, op: PingOp, res: RoundResult, tracer) -> None:
        world, cp = self.worlds[op.world]
        world.restore(cp)
        probe = self.probe
        probe.reset()
        rng = random.Random(f"{self.seed}:{op.label}")
        probe.payloads = {0: rng.randbytes(op.nbytes),
                          1: rng.randbytes(op.nbytes)}
        if tracer is not None:
            tracer.set_label(op.label)
        before = _state(world)
        s0 = world.engine.now
        t0 = perf()
        out = am_pingpong(world, op.jam, op.nbytes, warmup=op.warmup,
                          iters=op.iters, stress=op.stress)
        t1 = perf()
        res.wall_marks.append((t0, t1))
        res.sim_ns += world.engine.now - s0
        counts = _op_counts(probe, before, _state(world))
        res.add_counts(counts)

        n = op.warmup + op.iters
        res.attempted += n
        sums = self._check_sums(world, op, n)
        res.failed += sums["failed"]
        res.outputs.append({
            "op": op.label, "one_way_ns": out.one_way_ns,
            "wire_size": out.wire_size, "cycles_total": out.cycles_total,
            "cycles_wait": out.cycles_wait,
            "server_cycles": out.server_cycles,
            "server_wait_cycles": out.server_wait_cycles,
            "instructions": counts["perf.instructions"],
            "sums": sums["values"]})
        if op.headline:
            res.model_ns.extend(out.one_way_ns)
            starts = probe.ping_t[op.warmup:] + [t1]
            res.op_marks.extend(zip(starts, starts[1:]))

    def _check_sums(self, world, op: PingOp, n: int) -> dict:
        """Each ping runs the jam on the server over the client's payload,
        each pong on the client over the server's: ``n`` stored sums per
        side, each equal to its payload's int32 sum."""
        bad: set[int] = set()
        values = []
        for node_id, payload_of in ((1, 0), (0, 1)):
            expect = _i32_sum(self.probe.payloads[payload_of][:op.nbytes])
            lib = world.runtimes[node_id].packages[
                world.build.package_id].library
            cursor = world.read_u64(node_id, lib.symbol("ss_cursor"))
            base = lib.symbol("ss_results")
            got = [_s64(world.read_u64(node_id, base + 8 * (i % 1024)))
                   for i in range(min(cursor, n))]
            bad.update(i for i, v in enumerate(got) if v != expect)
            bad.update(range(len(got), n))
            values.append([cursor, got])
        failed = len(bad)
        return {"failed": failed, "values": values}


class LoadedTail(PingPongWorkload):
    hier_cfgs = {"stash": HierarchyConfig(stash_enabled=True),
                 "nonstash": HierarchyConfig(stash_enabled=False)}
    ops = (
        PingOp("stash-64", "stash", "jam_ss_sum", 64, 16, 400, True,
               headline=True),
        PingOp("nonstash-64", "nonstash", "jam_ss_sum", 64, 16, 200, True),
        PingOp("stash-32k", "stash", "jam_ss_sum", 32768, 4, 24, True),
        PingOp("nonstash-32k", "nonstash", "jam_ss_sum", 32768, 4, 24, True),
    )


class GuestLoop(PingPongWorkload):
    hier_cfgs = {"pair": None}
    ops = (PingOp("naive-16k", "pair", "jam_ss_sum_naive", 16384, 2, 10,
                  False, headline=True),)


# ---------------------------------------------------------------------------
# chain-replicated KV
# ---------------------------------------------------------------------------

class ChainKVWorkload:
    """Synchronous puts interleaved with gets at the tail, then a
    pipelined put burst and multicast install sweeps."""

    replicas = 8
    value_bytes = 64
    keys = 16
    puts = 48
    stream = 32
    sweeps = 4

    def __init__(self, seed: int, probe: Probe):
        self.seed = seed
        self.probe = probe
        self.world = None
        self.cp = None

    def build_package(self):
        return build_chain_package()

    def build_worlds(self, build) -> None:
        self.world = make_world(topology=chain_topology(self.replicas),
                                build=build, seed=self.seed)
        self.cp = self.world.snapshot()

    def run_round(self, tracer=None) -> RoundResult:
        world = self.world
        engine = world.engine
        world.restore(self.cp)
        probe = self.probe
        probe.reset()
        if tracer is not None:
            tracer.set_label("chain")
        kv = ChainKV(world, value_bytes=self.value_bytes)
        rng = random.Random(f"{self.seed}:chain")
        # stream_puts uses keys 1000..1031; ours stay clear of them
        keys = rng.sample(range(1 << 12, 1 << 16), self.keys)
        res = RoundResult()
        store: dict[int, bytes] = {}
        put_ns, get_ns, offsets, got_values = [], [], [], []
        tick = probe.clock.tick

        before = _state(world)
        s0 = engine.now
        t_start = perf()
        for _ in range(self.puts):
            key = rng.choice(keys)
            value = rng.randbytes(self.value_bytes)
            n0, h0 = engine.now, perf()
            offsets.append(kv.put(key, value))
            h1 = perf()
            put_ns.append(engine.now - n0)
            res.op_marks.append((h0, h1))
            store[key] = value
            tick()

            gkey = rng.choice(sorted(store))
            n0, h0 = engine.now, perf()
            got = kv.get(gkey)
            h1 = perf()
            get_ns.append(engine.now - n0)
            res.get_marks.append((h0, h1))
            got_values.append(got.hex() if got is not None else None)
            if got != store[gkey]:
                res.failed += 1
            tick()
        stream_ns = kv.stream_puts(self.stream)
        mcast_ns = []
        for _ in range(self.sweeps):
            tick()
            mcast_ns.append(kv.multicast_install())
        res.wall_marks.append((t_start, perf()))
        res.sim_ns = engine.now - s0
        counts = _op_counts(probe, before, _state(world))
        res.add_counts(counts)
        kv.shutdown()

        # every replica applied every put and ran every install sweep
        applied = [kv.put_count(i) for i in kv.replicas]
        installed = [kv.install_count(i) for i in kv.replicas]
        bad = (sum(1 for a in applied if a != self.puts + self.stream)
               + sum(1 for c in installed if c != self.sweeps))
        res.attempted = 2 * self.puts + self.stream + self.sweeps
        res.failed += bad
        res.model_ns = put_ns
        res.outputs.append({
            "op": "chain", "put_ns": put_ns, "get_ns": get_ns,
            "offsets": offsets, "values": got_values,
            "stream_ns": stream_ns, "mcast_ns": mcast_ns,
            "applied": applied, "installed": installed,
            "instructions": counts["perf.instructions"]})
        return res


WORKLOADS = {"loaded_tail": LoadedTail, "guest_loop": GuestLoop,
             "chain_kv": ChainKVWorkload}
