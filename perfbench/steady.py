"""Steadiness evidence for the benchmark.

    python3 perfbench/steady.py --seeds 10                # every workload, seeds 1..10
    python3 perfbench/steady.py --workload orbit-map --seeds 5 --first-seed 101
    python3 perfbench/steady.py --repeat-trace --seed 1   # per-layer counts repeat?

The first form runs run.py once per seed and workload, one run at a
time, and prints for every end-to-end metric its median, quartiles and
the quartile distance as a share of the median, against the bound in
BENCHMARK.json (target: below a third of it).  The second runs the
traced mode twice at one seed and checks that every `calls` metric and
`failed_ratio` repeat exactly.  Raw results go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT_DIR = ROOT / ".perfbench-out"


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def steadiness(workloads, seeds, seconds):
    raw = {}
    ok = True
    for workload in workloads:
        results = [run(workload, s, 0, seconds) for s in seeds]
        raw[workload] = results
        fails = [r["failed"] for r in results]
        attempts = [r["attempted"] for r in results]
        print(f"== {workload}: seeds {seeds[0]}..{seeds[-1]}, correct "
              f"{all(r['correct'] for r in results)}, failed {fails} of {attempts}")
        for m in SPEC["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3, share = spread(vals)
            flag = "ok" if share < m["bound"] / 3 else "WIDE"
            ok &= flag == "ok" or m["name"] == "setup_s"
            print(f"  {m['name']:12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"iqr/median {share:.4f} bound {m['bound']} {flag}")
    return raw, ok


def repeat_trace(workloads, seed, seconds):
    raw = {}
    ok = True
    for workload in workloads:
        a, b = (run(workload, seed, 1, seconds) for _ in range(2))
        raw[workload] = [a, b]
        names = [m["name"] for m in SPEC["per_layer"]
                 if m["name"].endswith(".calls") or m["name"] in
                 ("failed_ratio", "classify.rejected_ratio")]
        diff = [n for n in names if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        ok &= not diff
        print(f"== {workload}: {len(names)} count metrics, "
              f"{'all repeat exactly' if not diff else 'differ: ' + ', '.join(diff)}; "
              f"trace.slowdown {a['metrics']['trace.slowdown']['value']:.4f} / "
              f"{b['metrics']['trace.slowdown']['value']:.4f}")
    return raw, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--repeat-trace", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    if args.repeat_trace:
        raw, ok = repeat_trace(workloads, args.seed, args.seconds)
        tag = f"repeat-trace-seed{args.seed}"
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        raw, ok = steadiness(workloads, seeds, args.seconds)
        tag = f"steady-{args.first_seed}-{seeds[-1]}"
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{tag}-{args.workload or 'all'}.json"
    (OUT_DIR / name).write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
