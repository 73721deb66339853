"""Run every registered sweep at full axes through the orchestrator.

Writes the classic text report to results/experiments_full.txt and one
machine-readable BENCH_<figure>.json per figure to results/bench/ (see
docs/BENCHMARKS.md for the schema).  Completed sweep points are cached
under results/bench/.cache, so an interrupted or repeated run only pays
for points that have not been measured under the current code version.
"""

import argparse
import os
import time

from repro.bench.orchestrator import (
    available_cpus,
    build_meta,
    render_runs_text,
    run_figures,
    write_runs,
)
from repro.bench.resultstore import ResultStore


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figures", nargs="*", help="sweeps to run "
                        "(default: all; see 'twochains bench list')")
    parser.add_argument("--jobs", type=int, default=available_cpus())
    parser.add_argument("--out", default="results/bench")
    parser.add_argument("--report", default="results/experiments_full.txt")
    args = parser.parse_args()

    t0 = time.time()
    store = ResultStore(os.path.join(args.out, ".cache"))
    runs = run_figures(args.figures or None, fast=False, jobs=args.jobs,
                       store=store, log=print)
    meta = build_meta(fast=False, smoke=False, jobs=args.jobs)
    paths = write_runs(runs, args.out, meta)
    text = render_runs_text(runs)
    os.makedirs(os.path.dirname(args.report), exist_ok=True)
    with open(args.report, "w") as f:
        f.write(text + "\n")
    print(text, flush=True)
    for path in paths:
        print(f"wrote {path}")
    print(f"DONE in {time.time() - t0:.0f}s "
          f"({store.hits} cached, {store.misses} measured)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
