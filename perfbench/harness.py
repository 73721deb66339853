"""One benchmark process: set up one workload, run its rounds, report.

Started by ``run.py`` in a fresh interpreter for every measurement, so
its set-up time and peak RSS belong to one workload alone.  Prints one
JSON object as its last line of standard output.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only] [--spans PATH] [--t-spawn T]

``--seconds 0`` runs the minimum of ``MIN_ROUNDS`` rounds, checking that
they agree; its output's ``digest`` is what ``reference.json`` records
for the workload and seed.

``--t-spawn`` is the parent's ``time.perf_counter()`` just before it
started this process; both read CLOCK_MONOTONIC, so set-up time is
measured from before interpreter start.  Host times inside rounds go
through a ``hostclock.HostClock``, which divides the host's own speed
out of them.  With ``--trace 1`` the layer wrappers of ``spans.py`` are
installed before any world is built.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

T_ENTER = time.perf_counter()
import hostclock  # noqa: E402  (stdlib only; imported after the clock read)

#: Rounds every measuring process runs, however short ``--seconds`` is
#: (medians need a few).
MIN_ROUNDS = 3
#: Host time between calibration slices inside a round (untraced runs).
SLICE_EVERY_S = 0.02
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Layers the traced run times, and the entry points that open their
#: spans: (module path, class name or None for a module function,
#: attribute, "call" or "gen", layer).
LAYERS = ["workloads", "sim.engine", "machine.noise", "machine.cache",
          "machine.dram", "machine.hierarchy", "machine.hierarchy.stream",
          "machine.hierarchy.dma", "isa.vm", "isa.vm.jit", "rdma", "ucp",
          "core.runtime", "core.mailbox"]

ENTRY_POINTS = [
    ("loads", None, "am_pingpong", "call", "workloads"),
    ("repro.workloads.chainkv", "ChainKV", "put", "call", "workloads"),
    ("repro.workloads.chainkv", "ChainKV", "get", "call", "workloads"),
    ("repro.workloads.chainkv", "ChainKV", "stream_puts", "call",
     "workloads"),
    ("repro.workloads.chainkv", "ChainKV", "multicast_install", "call",
     "workloads"),
    ("repro.sim.engine", "Engine", "run", "call", "sim.engine"),
    ("repro.machine.noise", "StressWorkload", "_run", "gen",
     "machine.noise"),
    ("repro.machine.cache", "SetAssocCache", "install_many", "call",
     "machine.cache"),
    ("repro.machine.dram", "Dram", "inject_busy", "call", "machine.dram"),
    ("repro.machine.dram", "Dram", "charge_bandwidth_bulk", "call",
     "machine.dram"),
    ("repro.machine.hierarchy", "MemoryHierarchy", "access", "call",
     "machine.hierarchy"),
    ("repro.machine.hierarchy", "MemoryHierarchy", "access_line", "call",
     "machine.hierarchy"),
    ("repro.machine.hierarchy", "MemoryHierarchy", "stream_cost", "call",
     "machine.hierarchy.stream"),
    ("repro.machine.hierarchy", "MemoryHierarchy", "dma_write", "call",
     "machine.hierarchy.dma"),
    ("repro.isa.vm", "Vm", "call", "call", "isa.vm"),
    ("repro.isa.vm", "NodeCodeCache", "compile_blocks", "call",
     "isa.vm.jit"),
    ("repro.rdma.verbs", "QueuePair", "post_put", "call", "rdma"),
    ("repro.rdma.verbs", "QueuePair", "post_get", "call", "rdma"),
    ("repro.ucp.worker", "UcpEndpoint", "put_nbi", "call", "ucp"),
    ("repro.ucp.worker", "UcpEndpoint", "window_admit", "gen", "ucp"),
    ("repro.core.runtime", "Connection", "send_jam", "gen", "core.runtime"),
    ("repro.core.runtime", "PreparedJam", "send", "gen", "core.runtime"),
    ("repro.core.mailbox", "Waiter", "_loop", "gen", "core.mailbox"),
]


def _count(key):
    def tally(counts, args, kwargs):
        counts[key] = counts.get(key, 0) + 1
    return tally


def _count_bytes(key):
    # QueuePair.post_put/post_get(self, now, a, b, size, ...)
    def tally(counts, args, kwargs):
        counts[key] = counts.get(key, 0) + 1
        size = kwargs["size"] if "size" in kwargs else args[4]
        counts[key + "_bytes"] = counts.get(key + "_bytes", 0) + size
    return tally


def _count_lines(counts, args, kwargs):
    counts["lines_polluted"] = counts.get("lines_polluted", 0) + len(args[1])


#: Exact counts taken at a wrapper, keyed by (class, attribute).
TALLIES = {
    ("SetAssocCache", "install_many"): _count_lines,
    ("QueuePair", "post_put"): _count_bytes("rdma_puts"),
    ("QueuePair", "post_get"): _count_bytes("rdma_gets"),
    ("UcpEndpoint", "put_nbi"): _count("ucp_puts"),
    ("Connection", "send_jam"): _count("runtime_sends"),
    ("PreparedJam", "send"): _count("runtime_sends"),
}


def install_tracer(tracer) -> None:
    import importlib
    for module, cls_name, attr, kind, layer in ENTRY_POINTS:
        owner = importlib.import_module(module)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        factory = tracer.wrap_call if kind == "call" else tracer.wrap_gen
        tracer.patch(owner, attr, factory, layer,
                     tally=TALLIES.get((cls_name, attr)))


def digest(outputs) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--t-spawn", type=float, default=None)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"harness: simulator sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import loads
    t1 = time.perf_counter()
    if args.workload not in loads.WORKLOADS:
        print(f"harness: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # a slice inside a traced layer's span would count as its time, so
    # the traced process slices only around rounds
    clock = hostclock.HostClock(None if args.trace else SLICE_EVERY_S)
    probe = loads.Probe(clock)
    probe.install()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(LAYERS)
        install_tracer(tracer)
    wl = loads.WORKLOADS[args.workload](args.seed, probe)
    t2 = time.perf_counter()
    build = wl.build_package()
    t3 = time.perf_counter()
    wl.build_worlds(build)
    t4 = time.perf_counter()
    t_spawn = args.t_spawn if args.t_spawn is not None else T_ENTER
    setup = {"setup_s": t4 - t_spawn, "import_s": t1 - t0,
             "package_build_s": t3 - t2, "world_build_s": t4 - t3}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    rounds, traced = [], []
    op_host, get_host = [], []
    model_ns = None
    first_digest = None
    start = time.perf_counter()
    round_raw = []
    while True:
        r0 = time.perf_counter()
        clock.open()
        if tracer is not None:
            tracer.reset_totals()
            tracer.enabled = True
        res = wl.run_round(tracer)
        res.finish(clock.close())
        if tracer is not None:
            tracer.enabled = False
            traced.append({
                "layers": tracer.snapshot(), "root_ns": tracer.root_ns(),
                "tally": dict(tracer.tally),
                "by_label": {label: dict(zip(tracer.layers, row))
                             for label, row in tracer.label_self_ns.items()
                             if any(row)}})
        d = digest(res.outputs)
        if first_digest is None:
            first_digest = d
            model_ns = res.model_ns
        elif d != first_digest:
            # a rewound world must reproduce the first round exactly
            res.failed = res.attempted
        rounds.append({"wall_s": res.wall_s, "raw_wall_s": res.raw_wall_s,
                       "sim_ns": res.sim_ns,
                       "attempted": res.attempted, "failed": res.failed,
                       "digest": d, "counts": res.counts})
        op_host.extend(res.op_host_s)
        get_host.extend(res.get_host_s)
        # Collect the round's cyclic garbage (rewound worlds leave whole
        # object graphs behind) between rounds: otherwise when a full
        # collection lands, and so the peak RSS, varies from run to run.
        gc.collect()
        round_raw.append(time.perf_counter() - r0)
        n = len(rounds)
        elapsed = time.perf_counter() - start
        typical = statistics.median(round_raw)
        if n >= MIN_ROUNDS and elapsed + typical > args.seconds:
            break
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    import numpy
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"env": {"numpy": numpy.__version__}, "setup": setup,
                      "rounds": rounds, "digest": first_digest, "model_ns": model_ns,
                      "op_host_s": op_host, "get_host_s": get_host,
                      "traced": traced, "peak_rss_mb": rss_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
