"""Benchmark of the wdrc pipeline on three workloads.

    python3 bench/run.py --workload grid_tune|grid_mc|small_oos
                         [--seed 0] [--seconds 30] [--trace 0|1]

Run from the repository root; the package is imported from ``src``. The run
repeats the workload's task until ``--seconds`` have passed and checks every
task's output. With ``--trace 0`` it reports the end-to-end metrics (set-up
time and median task time, both with the host's slow phases divided out by
the speed probe of ``speed.py``, and peak memory); with ``--trace 1`` it alternates
untraced and traced tasks and reports per-layer metrics per traced task. The
last line of standard output is one JSON object; the lines before it are a
readable report. Spans and results are written to ``bench/out``.
"""

import os

# Pinned before numpy loads: the seed code's answers depend on the BLAS
# thread count (see bench/NOTES.md), and the simulator reads WDRC_NUM_THREADS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WDRC_NUM_THREADS", None)

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import REFERENCE_KERNEL_S, SpeedProbe
from tracing import COUNTS, FAILURE_METRICS, SPANS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_REPEATS = 5
# Set-up lasts about half a second, so the probe samples it more often.
SETUP_PROBE_INTERVAL_S = 0.02

END_TO_END = {"setup_s": "s", "task_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {}
    for name in SPANS:
        units.update({name + ".calls": "count", name + ".s": "s", name + ".self_s": "s"})
    units.update({name: "s" if name.endswith("_s") else "count" for name in FAILURE_METRICS})
    units.update({name: "count" for name in COUNTS})
    units["serialize.bytes"] = "bytes"
    units["design.useful_ratio"] = "ratio"
    units.update({"trace.task_s": "s", "trace.overhead_s": "s",
                  "trace.missing_spans": "count", "trace.unexpected_spans": "count"})
    return units


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "WDRC_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def measure_setup(workload, seed, tiny, repeats):
    """Times from starting a fresh interpreter to the end of the workload's
    set-up (imports, plant, nominal, set-up design): speed-normalized by the
    probe the child runs during its set-up, and as wall times."""
    times, wall = [], []
    for _ in range(repeats):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError("set-up failed:\n" + done.stderr)
        end, busy, kernel = map(float, done.stdout.split()[-3:])
        wall.append(end - start)
        times.append((end - start - busy) * REFERENCE_KERNEL_S / kernel)
    return times, wall


def run_tasks(workload, state, seconds, trace=False, perturb=False):
    """Repeat the task for about ``seconds``, checking each output. With
    ``trace`` every second task runs under the tracer; without, the speed
    probe runs and untraced task times are normalized by it. Returns the
    untraced and traced task times, the untraced wall times, the failure
    count, the check messages, the tracer and the probe's kernel times."""
    tracer = Tracer()
    probe = contextlib.nullcontext() if trace else SpeedProbe()
    plain, traced, wall, failed, problems = [], [], [], 0, []
    first = None
    start = time.perf_counter()
    index = 0
    with probe:
        while True:
            trace_this = trace and index % 2 == 1
            t0 = time.perf_counter()
            try:
                if trace_this:
                    with tracer.installed(index):
                        out = workload.task(state)
                else:
                    out = workload.task(state)
                error = None
            except Exception:  # grid-point rejections never escape a task
                out, error = None, "task raised " + traceback.format_exc()
            t1 = time.perf_counter()
            wall.append(t1 - t0)
            if trace_this:
                traced.append(t1 - t0)
            else:
                plain.append(t1 - t0 if trace else probe.normalized(t0, t1))
            if error is None:
                if perturb:
                    out = workload.perturb(out)
                found = workload.check(state, out)
                mark = workload.fingerprint(out)
                if first is None:
                    first = mark
                elif mark != first:
                    found.append("output differs from the run's first task")
            else:
                found = [error]
            if found:
                failed += 1
                problems.extend("task %d: %s" % (index, p) for p in found)
            index += 1
            total = time.perf_counter() - start
            done = total + 0.5 * statistics.median(wall) >= seconds
            if done and (not trace or (plain and traced)):
                break
    kernels = [] if trace else probe.kernel_times()
    return plain, traced, wall, failed, problems, tracer, kernels


def layer_metrics(workload, tracer, plain, traced):
    """Per-layer metrics per traced task, and the names behind the span checks."""
    n_traced = len(traced)
    totals = tracer.totals()
    units = per_layer_units()
    values = {}
    for name, row in totals.items():
        for key in ("calls", "s", "self_s", "failed", "failed_s"):
            values["%s.%s" % (name, key)] = row[key] / n_traced
    for name, count in tracer.counts.items():
        values[name] = count / n_traced
    rows = tracer.counts["design.rows"]
    values["design.useful_ratio"] = (rows - tracer.counts["design.rejected"]) / rows if rows else 0.0
    missing = sorted(n for n in workload.expected_spans if totals[n]["calls"] == 0)
    unexpected = sorted(n for n, row in totals.items()
                        if row["calls"] and n not in workload.expected_spans)
    values["trace.task_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["trace.missing_spans"] = len(missing)
    values["trace.unexpected_spans"] = len(unexpected)
    notes = {"missing_spans": missing, "unexpected_spans": unexpected,
             "unwrapped_targets": tracer.missing_wraps}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, notes


def run(workload_name, seed, seconds, trace, tiny=False, perturb=False,
        setup_repeats=SETUP_REPEATS, write=True):
    """Run one benchmark; returns (result object, report lines)."""
    setup_times, setup_wall = ([], []) if trace else measure_setup(
        workload_name, seed, tiny, setup_repeats)
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    state = workload.setup(seed, tiny)
    plain, traced, wall, failed, problems, tracer, kernels = run_tasks(
        workload, state, seconds, trace=bool(trace), perturb=perturb)
    attempted = len(plain) + len(traced)
    env = environment()
    lines = ["env: " + json.dumps(env, sort_keys=True)]
    q1, med, q3 = quartiles(plain)
    lines.append("%s seed %d: task_s median %.4f s (%s, n=%d, q1 %.4f, q3 %.4f); "
                 "failed_frac %d/%d = %.4f ratio"
                 % (workload_name, seed, med, "wall" if trace else "speed-normalized",
                    len(plain), q1, q3, failed, attempted, failed / attempted))
    lines.extend("check failed: " + p for p in problems)
    if trace:
        metrics, notes = layer_metrics(workload, tracer, plain, traced)
        lines.append("traced tasks %d, spans %d, overhead %.4f s per task"
                     % (len(traced), len(tracer.spans), metrics["trace.overhead_s"]["value"]))
        for key, names in notes.items():
            if names:
                lines.append("%s: %s" % (key.replace("_", " "), ", ".join(names)))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        s1, s2, s3 = quartiles(setup_times)
        w1, w2, w3 = quartiles(wall)
        k1, k2, k3 = quartiles(kernels)
        lines.append("task wall time median %.4f s (q1 %.4f, q3 %.4f); speed probe kernel "
                     "median %.3f ms (n=%d, q1 %.3f, q3 %.3f, reference %.3f)"
                     % (w2, w1, w3, 1e3 * k2, len(kernels), 1e3 * k1, 1e3 * k3,
                        1e3 * REFERENCE_KERNEL_S))
        lines.append("setup_s median %.4f s (speed-normalized, n=%d, q1 %.4f, q3 %.4f; "
                     "wall median %.4f s); peak_rss_mb %.1f MB"
                     % (s2, len(setup_times), s1, s3, statistics.median(setup_wall), rss_mb))
        metrics = {"setup_s": {"value": s2, "unit": "s"},
                   "task_s": {"value": med, "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        notes = {"task_times_s": plain, "task_wall_times_s": wall,
                 "setup_times_s": setup_times, "setup_wall_times_s": setup_wall,
                 "probe_kernel_times_s": kernels}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if write:
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (workload_name, seed, trace))
        with open(stem + ".json", "w") as fh:
            json.dump(dict(result, env=env, notes=notes, problems=problems), fh, indent=1)
        if trace:
            tracer.write_tsv(stem + "-spans.tsv", task=1)
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid_tune", "grid_mc", "small_oos"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        with SpeedProbe(SETUP_PROBE_INTERVAL_S) as probe:
            from workloads import WORKLOADS

            WORKLOADS[args.workload].setup(args.seed, args.tiny)
        end = time.monotonic()
        kernels = probe.kernel_times()
        print(repr(end), repr(sum(kernels)), repr(statistics.median(kernels)))
        return 0
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace, tiny=args.tiny)
    except Exception:
        traceback.print_exc()
        print("benchmark could not run", file=sys.stderr)
        return 2
    for line in lines:
        print("# " + line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
