"""Runs one workload in this (fresh) interpreter and prints its result.

Invoked by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --size full|smoke

The last stdout line is a JSON object with the metrics, the answer
checks and the environment.  The inputs of the tolerance probe
(workloads.py) are not timed: they run once, before the timed passes
(see `tolerance_probe`).  With --trace 0 the run is `--seconds` of the
other ops with tracing off.  With --trace 1 untraced and traced passes
alternate for `--seconds`; the per-layer metrics come from the traced
passes, and the tracing overhead is the ratio of the two sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
FAILURES_SHOWN = 5


class Stats:
    """Each op's timings over the passes, and the answer checks.

    Only `op.run()` is timed.  Each timing is scaled to the reference
    speed of calib.py by the kernel measured just before the op, unless
    the op scales its own time, and each op keeps the median of its
    scaled timings.  Ops that raise or give a wrong answer are counted
    and the run goes on; `failed_ops` holds the indices of the ops that
    failed on any pass.
    """

    def __init__(self, ops, speed):
        self.ops = ops
        self.speed = speed
        self.times_ns = [[] for _ in ops]
        self.attempted = self.failed = self.passes = 0
        self.failed_ops = set()
        self.failures = []

    def run_pass(self, tracer=None):
        for i, op in enumerate(self.ops):
            factor = self.speed.refresh()
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter_ns()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a raised op is a failed op, never fatal
                error = f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter_ns() - t0
            if error is None and op.scale is not None:
                factor = op.scale(result, dt, factor) / dt
            if tracer is not None:
                tracer.end_op(factor)
            self.times_ns[i].append(dt * factor)
            if error is None:
                error = op.check(result)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.failed_ops.add(i)
                if len(self.failures) < FAILURES_SHOWN:
                    self.failures.append(error)
        self.passes += 1

    def end_to_end(self):
        """Throughput and latency quantiles over the ops' median times."""
        med = [statistics.median(t) for t in self.times_ns]
        op_ms = [t / 1e6 for op, t in zip(self.ops, med) if op.kind == "op"]
        grid_s = sum(t for op, t in zip(self.ops, med) if op.kind == "grid") / 1e9
        samples = sum(op.samples for op in self.ops)
        return {
            "ops_per_s": (len(op_ms) / (sum(op_ms) / 1e3), "1/s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "op_ms_p90": (statistics.quantiles(op_ms, n=10)[8] if len(op_ms) > 1
                          else op_ms[0], "ms"),
            "samples_per_s": (samples / grid_s if samples else 0.0, "1/s"),
        }


def tolerance_probe(ops):
    """Runs each probe op once, untimed, and returns the failure
    messages.  Probe inputs hit the program's known tolerance defects
    (ROADMAP item 2), so they stay out of the timed passes and of the
    result's `failed`; their wrong answers are counted in `failed_ratio`
    and printed."""
    failures = []
    for op in ops:
        try:
            error = op.check(op.run())
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
    return failures


def measure(ops, speed, seconds):
    """Whole untraced passes until `seconds` have elapsed (at least one)."""
    stats = Stats(ops, speed)
    start = perf_counter()
    while True:
        stats.run_pass()
        if perf_counter() - start >= seconds:
            return stats


def measure_traced(ops, speed, seconds, tracer):
    """Untraced and traced passes alternate until `seconds` have elapsed,
    so both sides of the overhead ratio see the same machine speed."""
    plain, traced = Stats(ops, speed), Stats(ops, speed)
    start = perf_counter()
    while True:
        plain.run_pass()
        tracer.install(extra_modules=(workloads,))
        try:
            traced.run_pass(tracer)
        finally:
            tracer.uninstall()
        if perf_counter() - start >= seconds:
            return plain, traced


def environment():
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git (which
    would search the parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args()

    speed = calib.Speed()
    ops = workloads.build_pass(args.workload, args.seed, speed, args.size)
    probe = [op for op in ops if op.probe]
    ops = [op for op in ops if not op.probe]
    probe_failures = tolerance_probe(probe)
    result = {"env": environment()}
    if args.trace == 0:
        stats = measure(ops, speed, args.seconds)
        failed_ops = stats.failed_ops
        metrics = stats.end_to_end()
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")
    else:
        tracer = spans.Tracer()
        plain, stats = measure_traced(ops, speed, args.seconds, tracer)
        base = plain.end_to_end()
        failed_ops = plain.failed_ops | stats.failed_ops
        metrics = tracer.per_op()
        metrics["samples_per_s"] = base["samples_per_s"]
        metrics["trace.slowdown"] = (
            base["ops_per_s"][0] / stats.end_to_end()["ops_per_s"][0], "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
        result["untraced_ops_per_s"] = base["ops_per_s"][0]
    # every input of the pass once, the probe's too: one seed, one ratio
    metrics["failed_ratio"] = ((len(probe_failures) + len(failed_ops))
                               / (len(probe) + len(ops)), "ratio")
    result.update({
        "attempted": stats.attempted,
        "failed": stats.failed,
        "failures": stats.failures,
        "probe_attempted": len(probe),
        "probe_failures": probe_failures,
        "passes": stats.passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
