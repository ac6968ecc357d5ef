"""The repository benchmark: three seeded workloads against mink1's API.

    python3 perfbench/run.py --workload orbit-map --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from `src/`.
One workload per run: the set-up time is measured in fresh interpreters
and the workload itself runs in one more fresh, single-threaded
interpreter (perfbench/worker.py), so `setup_s` and `peak_rss_mb` belong
to that workload.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  `attempted` and `failed` count the timed ops, and
`correct` is true when none of them failed.  The inputs of the tolerance
probe (workloads.py: dilated inputs, and generic points next to a
stratum boundary) hit the program's known tolerance defects (ROADMAP
item 2); they run once, untimed, and their wrong answers are printed and
counted in the `failed_ratio` metric but are not in `failed`.

`--workload all` runs every workload (both trace modes) and prints one
table; `--smoke` does so at a tiny size and checks that every metric of
BENCHMARK.json prints with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

SETUP_RUNS = 10
FAILURES_SHOWN = 5
# after the timed set-up, the child measures the calib.py kernel and
# prints the scale factor and the seconds that measurement took
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]\n"
    "import mink1.cli\n"
    "from mink1 import catalog\n"
    "entries = [catalog.build(i) for i in catalog.CATALOG_IDS]\n"
    "assert len(entries) == 16\n"
    "import time, calib\n"
    "t0 = time.perf_counter()\n"
    "factor = calib.REF_NS / calib.kernel_ns()\n"
    "print(factor, time.perf_counter() - t0)\n"
)
# every run must end within 180 s; the worker gets what set-up leaves
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_times(runs, warm=False):
    """Set-up times of fresh interpreters that import mink1.cli and build
    the 16 catalog entries, scaled to calib.py's reference speed by the
    kernel each interpreter measures after its set-up.  With `warm`, one
    untimed run first fills the bytecode cache, which users also have
    after the first start."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(HERE)]
    env = child_env()
    times = []
    for i in range(runs + warm):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the measured time; a timer ends a hung start
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
        factor, calib_s = (float(x) for x in out.split())
        if i or not warm:
            times.append((elapsed - calib_s) * factor)
    return times


def run_worker(workload, seed, seconds, trace, size, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload, seed, seconds, trace, size="full", setup_runs=SETUP_RUNS):
    """One worker; with trace 0 also `setup_s`, the median of `setup_runs`
    set-ups, half before the worker and half after it."""
    t0 = perf_counter()
    before = setup_times(setup_runs // 2, warm=True) if trace == 0 else []
    res = run_worker(workload, seed, seconds, trace, size,
                     timeout=DEADLINE_S - 10.0 - (perf_counter() - t0))
    if trace == 0:
        after = setup_times(setup_runs - setup_runs // 2)
        res["metrics"]["setup_s"] = {"value": statistics.median(before + after), "unit": "s"}
    res["correct"] = res["failed"] == 0 and res["attempted"] >= 1
    return res


def expected_metrics(trace):
    return SPEC["per_layer"] if trace else SPEC["end_to_end"]


def result_line(res, trace):
    """The contract's result object, with exactly the metrics it lists."""
    metrics = {m["name"]: res["metrics"][m["name"]] for m in expected_metrics(trace)}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def report(workload, res, trace):
    """Human-readable lines: environment, answer checks, every metric."""
    print(f"== {workload} (trace {trace})")
    print("env: " + json.dumps(res["env"], sort_keys=True))
    print(f"checks: attempted {res['attempted']}, failed {res['failed']}, "
          f"passes {res['passes']}, correct {str(res['correct']).lower()}")
    for line in res["failures"]:
        print(f"  failure: {line}")
    probe = res["probe_failures"]
    print(f"tolerance probe (untimed, known defects): {len(probe)} of "
          f"{res['probe_attempted']} answered wrong")
    for line in probe[:FAILURES_SHOWN]:
        print(f"  wrong: {line}")
    if "spans_file" in res:
        print(f"spans: {res['spans_file']} (untraced ops_per_s "
              f"{res['untraced_ops_per_s']:.6g})")
    for name, m in sorted(res["metrics"].items()):
        print(f"  {name} = {m['value']!r} {m['unit']}")


def missing_metrics(res, trace):
    """Metric names of BENCHMARK.json absent from a result, or printed
    with another unit."""
    return [m["name"] for m in expected_metrics(trace)
            if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny size, every workload and trace mode, check metric names")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mink1" / "__init__.py").is_file():
        print(f"error: no mink1 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke or args.workload == "all":
        size = "smoke" if args.smoke else "full"
        seconds = 0 if args.smoke else args.seconds
        problems = []
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                res = run_one(workload, args.seed, seconds, trace, size,
                              setup_runs=2 if args.smoke else SETUP_RUNS)
                report(workload, res, trace)
                problems += [f"{workload} trace {trace}: {n}"
                             for n in missing_metrics(res, trace)]
                line = result_line(res, trace)
                summary["correct"] &= line["correct"]
                summary["attempted"] += line["attempted"]
                summary["failed"] += line["failed"]
                summary["metrics"].update(
                    {f"{workload}.{k}": v for k, v in line["metrics"].items()})
        for p in problems:
            print(f"missing or wrong unit: {p}", file=sys.stderr)
        print(json.dumps(summary))
        return 1 if problems else 0
    if args.workload is None:
        ap.error("--workload is required (or use --smoke)")
    res = run_one(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, res, args.trace)
    print(json.dumps(result_line(res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
