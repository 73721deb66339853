"""Benchmark entry point: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload loaded_tail|guest_loop|chain_kv|all
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement runs in fresh
interpreters (``harness.py``): several set-up-only processes give the
set-up time, then one process runs the workload's rounds for ``S``
seconds; its host times are in reference seconds (``hostclock.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs an untraced process and a traced one for ``S/2`` seconds each and
prints the per-layer metrics (self time per layer from the traced
process, exact counts from both, tracing overhead between them).

Each metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (host facts, model latencies, the traced
run's per-op layer shares and the workload-design predictions) goes to
``.perfbench_out/`` under the checkout, with the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("loaded_tail", "guest_loop", "chain_kv")

#: Set-up-only processes per run; with the measuring process(es) their
#: median is ``setup_s``.
SETUP_SAMPLES = 4
#: Every process this script starts must be done by then.
DEADLINE_S = 170.0
#: Model-latency tail: the highest of these percentiles with at least
#: ten samples beyond it.
TAIL_PCTS = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    pass


def percentile(xs, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    s = sorted(xs)
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_pct(n: int) -> float | None:
    for p in TAIL_PCTS:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median(xs) -> float:
    return statistics.median(list(xs))


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t0 = time.perf_counter()
        # numpy asks for transparent huge pages on large arrays (node
        # memories); how many 2 MB pages a run touches then depends on
        # address-space layout, which made peak RSS jump by ~13 MB between
        # identical runs.  Small pages make it repeat, so every host time
        # describes the small-page configuration.
        self.env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")

    def spawn(self, *extra: str) -> dict:
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        if left <= 0:
            raise BenchError("out of time before starting a process")
        cmd = [sys.executable, HARNESS, "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        cmd += ["--t-spawn", repr(time.perf_counter())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("harness process timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"harness exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("harness printed no result")
        return json.loads(lines[-1])

    def setups(self) -> list[dict]:
        return [self.spawn("--setup-only")["setup"]
                for _ in range(SETUP_SAMPLES)]


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def outcome(runs: list[dict], workload: str, seed: int) -> dict:
    """Correctness over the measuring processes: every op's checks, every
    round equal to the first, every process equal to the recorded
    reference digest for this seed (where one is recorded)."""
    attempted = sum(r["attempted"] for run in runs for r in run["rounds"])
    failed = sum(r["failed"] for run in runs for r in run["rounds"])
    digests = {run["digest"] for run in runs}
    ref = load_reference().get(workload, {}).get(str(seed))
    notes = []
    if len(digests) != 1:
        notes.append("model outputs differ between processes")
    if ref is not None and digests != {ref}:
        notes.append("model outputs differ from the recorded reference")
    if notes:
        failed = attempted
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and attempted > 0,
            "reference_checked": ref is not None, "notes": notes}


def model_summary(run: dict) -> dict:
    xs = run["model_ns"]
    p = tail_pct(len(xs))
    return {"samples": len(xs), "p50_ns": percentile(xs, 50),
            "tail_pct": p,
            "tail_ns": percentile(xs, p) if p is not None else None}


def end_to_end(setups: list[dict], run: dict) -> dict:
    rounds = run["rounds"]
    host = run["op_host_s"]
    return {
        "wall_s": (median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (median(s["setup_s"] for s in setups), "s"),
        "sim_ns_per_wall_s": (median(r["sim_ns"] / r["wall_s"]
                                     for r in rounds), "ns/s"),
        "instr_per_wall_s": (median(r["counts"]["perf.instructions"]
                                    / r["wall_s"] for r in rounds), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "op_host_us_p50": (percentile(host, 50) * 1e6, "us"),
        "op_host_us_p90": (percentile(host, 90) * 1e6, "us"),
    }


LEVELS = ("l1i", "l1d", "l2", "l3", "llc")
GROUPS = {  # layer -> group used for shares and the design predictions
    "machine.hierarchy.stream": "machine.hierarchy",
    "machine.hierarchy.dma": "machine.hierarchy",
    "isa.vm.jit": "isa.vm",
}


def per_layer(setups: list[dict], base: dict, traced: dict) -> dict:
    counts = {k: median(r["counts"][k] for r in base["rounds"])
              for k in base["rounds"][0]["counts"]}
    tr = traced["traced"]

    def self_s(*layers):
        return median(sum(t["layers"][name]["self_ns"] for name in layers)
                      * 1e-9 for t in tr)

    def total_s(layer):
        return median(t["layers"][layer]["total_ns"] * 1e-9 for t in tr)

    def calls(layer):
        return median(t["layers"][layer]["calls"] for t in tr)

    def tally(key):
        return median(t["tally"].get(key, 0) for t in tr)

    # spans are raw host time, so shares of a round are taken against
    # its raw wall time; the overhead compares reference seconds
    walls = [r["raw_wall_s"] for r in traced["rounds"]]

    def share(*layers):
        return median(sum(t["layers"][n]["self_ns"] for n in layers) * 1e-9
                      / w for t, w in zip(tr, walls))

    # Lazy JIT compilation happens in the first round; later rounds reuse
    # its blocks.  Compile figures therefore come from round 1 alone, a
    # fixed amount of work however many rounds a run manages.
    first = base["rounds"][0]["counts"]
    compiled = first["perf.blocks_compiled"]
    fused = first["perf.fused_dispatches"]
    events = median(r["counts"]["perf.des_events"] for r in traced["rounds"])
    m = {
        "setup.import_s": (median(s["import_s"] for s in setups), "s"),
        "setup.package_build_s": (median(s["package_build_s"]
                                         for s in setups), "s"),
        "setup.world_build_s": (median(s["world_build_s"] for s in setups),
                                "s"),
        "machine.noise.ticks": (counts["stress_ticks"], "count"),
        "machine.noise.preemptions": (counts["stress_preemptions"], "count"),
        "machine.noise.self_share": (share("machine.noise"), "share"),
        "machine.cache.install_many_share": (share("machine.cache"),
                                             "share"),
        "machine.cache.lines_polluted": (tally("lines_polluted"), "count"),
    }
    for lvl in LEVELS:
        acc = counts[f"{lvl}_hits"] + counts[f"{lvl}_misses"]
        m[f"machine.cache.{lvl}_hit_ratio"] = (
            ratio(counts[f"{lvl}_hits"], acc), "ratio")
        m[f"machine.cache.{lvl}_accesses"] = (acc, "count")
    instr = counts["perf.instructions"]
    m.update({
        "machine.cache.llc_evictions": (counts["llc_evictions"], "count"),
        "machine.dram.calls": (calls("machine.dram"), "count"),
        "machine.dram.self_share": (share("machine.dram"), "share"),
        "machine.hierarchy.probes": (counts["perf.cache_probes"], "count"),
        "machine.hierarchy.self_s": (self_s("machine.hierarchy",
                                            "machine.hierarchy.stream",
                                            "machine.hierarchy.dma"), "s"),
        "machine.hierarchy.stream_s": (total_s("machine.hierarchy.stream"),
                                       "s"),
        "machine.hierarchy.dma_s": (total_s("machine.hierarchy.dma"), "s"),
        "machine.cores.busy_cycles": (counts["busy_cycles"], "count"),
        "machine.cores.wait_cycles": (counts["wait_cycles"], "count"),
        "isa.vm.calls": (calls("isa.vm"), "count"),
        "isa.vm.self_s": (self_s("isa.vm"), "s"),
        "isa.vm.instructions": (instr, "count"),
        "isa.vm.trace_share": (ratio(counts["perf.trace_instructions"],
                                     instr), "share"),
        "isa.vm.fused_share": (ratio(counts["perf.fused_instructions"],
                                     instr), "share"),
        "isa.vm.traces_compiled": (counts["perf.traces_compiled"], "count"),
        "isa.vm.trace_dispatches": (counts["perf.trace_dispatches"],
                                    "count"),
        "isa.vm.guard_bail_ratio": (ratio(counts["perf.guard_bails"],
                                          counts["perf.trace_dispatches"]),
                                    "ratio"),
        "isa.vm.blocks_compiled": (compiled, "count"),
        "isa.vm.block_invalidations": (counts["perf.block_invalidations"],
                                       "count"),
        "isa.vm.fused_dispatches": (fused, "count"),
        "isa.vm.block_reuse": (ratio(fused, compiled), "ratio"),
        "isa.vm.jit_compile_s": (
            tr[0]["layers"]["isa.vm.jit"]["total_ns"] * 1e-9, "s"),
        "sim.engine.events": (counts["perf.des_events"], "count"),
        "sim.engine.self_s": (self_s("sim.engine"), "s"),
        "sim.engine.ns_per_event": (ratio(self_s("sim.engine") * 1e9,
                                          events), "ns"),
        "core.runtime.sends": (tally("runtime_sends"), "count"),
        "core.runtime.self_s": (self_s("core.runtime"), "s"),
        "core.mailbox.frames": (counts["mb_frames"], "count"),
        "core.mailbox.injected_frames": (counts["mb_injected_frames"],
                                         "count"),
        "core.mailbox.rejected_frames": (counts["mb_rejected_frames"],
                                         "count"),
        "core.mailbox.self_s": (self_s("core.mailbox"), "s"),
        "rdma.puts": (tally("rdma_puts"), "count"),
        "rdma.bytes": (tally("rdma_puts_bytes") + tally("rdma_gets_bytes"),
                       "bytes"),
        "rdma.self_s": (self_s("rdma"), "s"),
        "ucp.ops": (tally("ucp_puts"), "count"),
        "ucp.self_s": (self_s("ucp"), "s"),
        "workloads.self_s": (self_s("workloads"), "s"),
        "trace.overhead_pct": ((median(
            r["wall_s"] for r in traced["rounds"]) / median(
            r["wall_s"] for r in base["rounds"]) - 1.0) * 100.0, "%"),
        "trace.unattributed_share": (median(
            (w - t["root_ns"] * 1e-9) / w for t, w in zip(tr, walls)),
            "share"),
    })
    return m


def group_shares(by_label: dict, labels) -> dict:
    """Self-time share per layer group over the ops with these labels."""
    tot: dict[str, float] = {}
    for label in labels:
        for layer, ns in by_label.get(label, {}).items():
            g = GROUPS.get(layer, layer)
            tot[g] = tot.get(g, 0.0) + ns
    whole = sum(tot.values()) or 1.0
    return {g: v / whole for g, v in sorted(tot.items(),
                                            key=lambda kv: -kv[1])}


def predictions(workload: str, metrics: dict, traced: dict) -> dict:
    """The workload design's predictions, checked on the traced run."""
    by_label: dict[str, dict] = {}
    for t in traced["traced"]:
        for label, row in t["by_label"].items():
            acc = by_label.setdefault(label, {})
            for layer, ns in row.items():
                acc[layer] = acc.get(layer, 0) + ns
    out: dict = {"shares": {label: group_shares(by_label, [label])
                            for label in by_label}}
    ticks = metrics["machine.noise.ticks"][0]
    if workload == "loaded_tail":
        half = group_shares(by_label, ["stash-64", "nonstash-64"])
        load = sum(half.get(g, 0.0) for g in
                   ("machine.noise", "machine.cache", "machine.dram"))
        others = max(v for g, v in half.items() if g not in
                     ("machine.noise", "machine.cache", "machine.dram"))
        out["shares"]["64B half"] = half
        out["noise+cache+dram lead the 64 B half"] = {
            "holds": load > others, "share": load, "next_largest": others}
    elif workload == "guest_loop":
        out["noise ticks are zero"] = {"holds": ticks == 0, "ticks": ticks}
        share = metrics["isa.vm.trace_share"][0]
        out["isa.vm.trace_share above 0.9"] = {"holds": share > 0.9,
                                               "share": share}
    else:
        whole = group_shares(by_label, list(by_label))
        top2 = list(whole)[:2]
        out["noise ticks are zero"] = {"holds": ticks == 0, "ticks": ticks}
        out["isa.vm and machine.hierarchy lead"] = {
            "holds": set(top2) == {"isa.vm", "machine.hierarchy"},
            "top_two": top2}
    return out


def host_facts(run: dict) -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": run["env"]["numpy"],
            "platform": platform.platform()}


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of one workload: its metrics, outcome and full record."""
    runner = Runner(workload, seed)
    setups = runner.setups()
    if trace == 0:
        run = runner.spawn("--seconds", str(seconds))
        runs = [run]
        setups.append(run["setup"])
        metrics = end_to_end(setups, run)
        gets = run["get_host_s"]
        extra = {"get_host_us_p50": percentile(gets, 50) * 1e6 if gets
                 else None,
                 "get_host_us_p90": percentile(gets, 90) * 1e6 if gets
                 else None,
                 # wall_s in raw host seconds, host speed and all
                 "raw_wall_s": median(r["raw_wall_s"]
                                      for r in run["rounds"])}
    else:
        half = str(seconds / 2.0)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
        base = runner.spawn("--seconds", half)
        run = runner.spawn("--seconds", half, "--trace", "1",
                           "--spans", spans)
        runs = [base, run]
        setups += [base["setup"], run["setup"]]
        metrics = per_layer(setups, base, run)
        extra = predictions(workload, metrics, run)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host_facts(run),
              "outcome": outcome(runs, workload, seed),
              "model": model_summary(run),
              "rounds": [len(r["rounds"]) for r in runs],
              "round_wall_s": [[rnd["wall_s"] for rnd in r["rounds"]]
                               for r in runs],
              "round_raw_wall_s": [[rnd["raw_wall_s"] for rnd in r["rounds"]]
                                   for r in runs],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "extra": extra}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}"
                           ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    """Human-readable lines: host facts, model latency, every metric."""
    h, mdl = record["host"], record["model"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} rounds={record['rounds']} "
          f"nproc={h['nproc']} python={h['python']} numpy={h['numpy']}")
    tail = (f"p{mdl['tail_pct']:g}={mdl['tail_ns']:.1f} ns"
            if mdl["tail_pct"] is not None else "tail unresolved")
    print(f"# model latency (simulated, n={mdl['samples']}): "
          f"p50={mdl['p50_ns']:.1f} ns, {tail}")
    for k, m in record["metrics"].items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    for k, v in record["extra"].items():
        if k != "shares":
            print(f"# {k}: {json.dumps(v)}")
    out = record["outcome"]
    if not out["correct"]:
        print(f"# output check FAILED: {out['failed']} of {out['attempted']}"
              f" ops wrong {out['notes']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="'all' runs the three workloads in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no simulator sources (src/repro) in this checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(measure(name, args.seed, args.seconds,
                                   args.trace))
            report(records[-1])
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["outcome"]["correct"] for r in records),
        "attempted": sum(r["outcome"]["attempted"] for r in records),
        "failed": sum(r["outcome"]["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): m
                    for r in records for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
