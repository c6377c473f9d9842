#!/usr/bin/env python3
"""Run the pipeline benchmark over several seeds and print every metric by name.

    python3 perfbench/report.py [--seeds 1,2,3] [--workloads a,b] [--seconds 30] [--trace]

Runs ``perfbench/run.py`` once per (workload, seed), each in its own
process, from the checkout root.  For every workload it prints each metric
with its unit as median, quartiles (``statistics.quantiles``, n=4) and
sample count over the runs, the spread (q3 - q1) / median next to a third
of the metric's bound, ``failed_share`` over all runs, and the
construction-floor probe's median and minimum across runs with the margin
over 50k sentences/s.  The runs' results and this summary are written to
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import FLOOR_SENTENCES_PER_S, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    results = next(line.split(":", 1)[1].strip() for line in lines
                   if line.strip().startswith("results:"))
    return {"seed": seed, "wall_s": time.monotonic() - start, "line": json.loads(lines[-1]),
            "results": json.loads((ROOT / results).read_text("utf-8"))}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {"seeds": seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_one(workload, seed, args.seconds, args.trace) for seed in seeds]
        attempted = sum(r["line"]["attempted"] for r in runs)
        failed = sum(r["line"]["failed"] for r in runs)
        floors = [r["results"]["floor_probe"]["median"] for r in runs]
        floor_mins = [r["results"]["floor_probe"]["min"] for r in runs]
        walls = [r["wall_s"] for r in runs]
        print(f"workload {workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"all correct: {all(r['line']['correct'] for r in runs)}, "
              f"{statistics.mean(walls):.1f} s per run (max {max(walls):.1f} s)")
        print(f"  {'metric':<46} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12}  n  spread"
              "  bound/3")
        rows = {}
        for name, first in runs[0]["line"]["metrics"].items():
            values = [r["line"]["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            q1, median, q3 = stats["q1"], stats["median"], stats["q3"]
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            limit = f"{bound / 3:7.3f}" if bound is not None else "      -"
            print(f"  {name:<46} {first['unit']:<6} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{len(values):2d} {spread:7.3f} {limit}")
            rows[name] = {"unit": first["unit"], **stats, "spread": spread}
        share = failed / attempted if attempted else 1.0
        print(f"  {'failed_share':<46} {'ratio':<6} {share:12.6g}  ({failed} of {attempted})")
        print(f"  floor probe (sentences/s): median {statistics.median(floors):,.0f}, "
              f"min {min(floor_mins):,.0f}, margin of the min over 50k "
              f"{min(floor_mins) / FLOOR_SENTENCES_PER_S - 1.0:+.1%}")
        summary["workloads"][workload] = {
            "metrics": rows, "failed_share": share, "attempted": attempted, "failed": failed,
            "floor_medians": floors, "floor_mins": floor_mins, "run_wall_s": walls,
            "machine": runs[0]["results"]["machine"],
            "output_digests": {r["seed"]: r["results"]["output_digests"] for r in runs},
        }
    out = ROOT / ".bench_work" / f"report-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"summary: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
