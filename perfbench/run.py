"""The quiverdg benchmark: one workload, closed loop, single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; quiverdg is imported from ./src.  The
seed makes the inputs (see workloads.py).  After one untimed warm-up pass,
whole passes over the workload's ops run back to back until S seconds have
gone.  Every op's answer is checked; a wrong answer, an exception or a
non-zero exit counts as failed, and any failure makes the exit code 1.

With --trace 0 the last line of output carries the end-to-end metrics,
their times scaled to a fixed host speed (see hostspeed.py).
With --trace 1 untraced and traced passes alternate, the traced answers
must equal the untraced ones, the per-layer metrics are printed instead,
and the spans are written to .perfbench/spans-WORKLOAD-seedN.json.  The
line before the last one records the environment and the failure rate.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from time import perf_counter

from hostspeed import REFERENCE_KERNEL_S, HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
SETUP_REPEATS = 5
PROBE_REPEATS = 5


def child_env():
    return dict(os.environ, PYTHONPATH="src")


def wall_of(argv):
    started = perf_counter()
    subprocess.run(argv, env=child_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - started


def setup_of(workload, seed):
    """(wall time, wall time at the reference speed) of one fresh process
    that imports quiverdg and builds the workload's inputs; the child
    samples the host speed over its own run."""
    started = perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "setup", workload,
         str(seed)], env=child_env(), check=True, timeout=120,
        capture_output=True, text=True)
    wall = perf_counter() - started
    kernel_s = json.loads(done.stdout.splitlines()[-1])["kernel_s"]
    return wall, wall * REFERENCE_KERNEL_S / kernel_s


def startup_s():
    """Median wall time of a bare `python -c pass`."""
    return statistics.median(wall_of([sys.executable, "-c", "pass"])
                             for _ in range(PROBE_REPEATS))


def environment(startup):
    commit = "unknown"  # a checkout without .git has no commit to name
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(),
            "sympy": metadata.version("sympy"),
            "commit": commit,
            "nproc": os.cpu_count(),
            "python_c_pass_s": startup}


class Op:
    """Times, answers and checks one call; one instance per pass."""

    def __init__(self, expected, answer_of, tracer=None):
        self.expected = expected
        self.answer_of = answer_of
        self.tracer = tracer
        self.records = []  # (label, seconds, ok, answer)
        self.starts = []  # perf_counter() at the start of each record's op

    def __call__(self, label, fn, *args, closed=None):
        if self.tracer is not None:
            self.tracer.op = [self.tracer.pass_no, label]
        started = perf_counter()
        self.starts.append(started)
        try:
            result = fn(*args)
            seconds = perf_counter() - started
            answer = json.loads(json.dumps(self.answer_of(result)))
            ok = answer == self.expected.get(label) and (
                closed is None or bool(closed(result)))
        except Exception:
            seconds = perf_counter() - started
            print("op %s raised:\n%s" % (label, traceback.format_exc()),
                  file=sys.stderr)
            result, answer, ok = None, None, False
        else:
            if not ok:
                print("op %s: wrong answer %s" % (label, json.dumps(answer)),
                      file=sys.stderr)
        self.records.append((label, seconds, ok, answer))
        return result


def run_pass(workloads, workload, inputs, expected, tracer=None):
    op = Op(expected, workloads.answer_of, tracer)
    started = perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        workloads.PASSES[workload](inputs, op)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return perf_counter() - started, op


def quantile(values, which):
    return statistics.quantiles(values, n=10, method="inclusive")[which - 1]


def pass_time(records):
    """One pass built op by op: the sum over the pass's ops of each op's
    median time across the passes that `records` cover.  On a shared host
    this is steadier than the median of whole-pass wall times, because a
    slow spell of the host inflates only the ops it overlaps."""
    by_label = {}
    for label, seconds, _, _ in records:
        by_label.setdefault(label, []).append(seconds)
    return sum(statistics.median(times) for times in by_label.values())


def end_to_end(workload, seed, seconds, workloads, inputs, expected):
    """The time metrics are scaled to the reference host speed (see
    hostspeed.py); their raw wall-time values go to the info line."""
    records, pass_times = [], []
    _, warm = run_pass(workloads, workload, inputs, expected)
    records += warm.records
    setups = [setup_of(workload, seed) for _ in range(SETUP_REPEATS)]
    measured, spans = [], []
    with HostSpeed() as speed:
        started = perf_counter()
        while not pass_times or perf_counter() - started < seconds:
            wall, op = run_pass(workloads, workload, inputs, expected)
            pass_times.append(wall)
            measured += op.records
            spans += zip(op.starts, (r[1] for r in op.records))
    records += measured
    scaled = [(label, speed.scale(start, start + secs), ok, answer)
              for (label, _, ok, answer), (start, secs)
              in zip(measured, spans)]
    op_times = [r[1] for r in scaled]
    wall_ops = [r[1] for r in measured]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "pass_s": (pass_time(scaled), "s"),
        "op_s.p50": (quantile(op_times, 5), "s"),
        "op_s.p90": (quantile(op_times, 9), "s"),
        "setup_s": (statistics.median(s[1] for s in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    info = {"passes": len(pass_times), "ops": len(op_times),
            "wall": {"pass_s": pass_time(measured),
                     "op_s.p50": quantile(wall_ops, 5),
                     "op_s.p90": quantile(wall_ops, 9),
                     "setup_s": statistics.median(s[0] for s in setups),
                     "pass_walls": pass_times},
            "host_kernel_s": speed.mean_kernel()}
    return records, metrics, info


def layers(workload, seed, seconds, workloads, inputs, expected):
    from tracer import PER_LAYER, Tracer, layer_metrics
    records = []
    _, warm = run_pass(workloads, workload, inputs, expected)
    records += warm.records
    tracer = Tracer()
    untraced, traced = [], []
    started = perf_counter()
    while not traced or perf_counter() - started < seconds:
        _, plain = run_pass(workloads, workload, inputs, expected)
        untraced += plain.records
        _, op = run_pass(workloads, workload, inputs, expected, tracer)
        traced.append(op.records)
        for (label, _, _, want), (_, secs, ok, got) in zip(plain.records,
                                                           op.records):
            records.append((label, secs, ok and got == want, got))
        records += plain.records
    values = layer_metrics(tracer.summary(), len(traced))
    probe = os.path.join(inputs["scratch"], "imports.json")
    imports = []
    for _ in range(PROBE_REPEATS):
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                        "imports", probe], env=child_env(), check=True,
                       timeout=120)
        with open(probe, encoding="utf-8") as handle:
            imports.append(json.load(handle))
    values["cli.startup_s"] = startup_s()
    for key in ("import_s", "sympy_import_s"):
        values["cli." + key] = statistics.median(x[key] for x in imports)
    values["trace.pass_s"] = pass_time([r for rs in traced for r in rs])
    values["trace.overhead_s"] = values["trace.pass_s"] - pass_time(untraced)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, handle)
    info = {"passes": len(traced), "spans_file": path}
    return records, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "quiverdg", "__init__.py")):
        print("run from the root of a quiverdg checkout: src/quiverdg is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads
    if not workloads.q.__file__.startswith(os.path.abspath("src")):
        print("quiverdg was not imported from ./src", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)[args.workload]
    inputs = workloads.INPUTS[args.workload](args.seed)
    scratch = os.path.join(OUT_DIR, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    inputs["scratch"] = scratch
    env = environment(startup_s())
    try:
        measure = layers if args.trace else end_to_end
        records, metrics, info = measure(
            args.workload, args.seed, args.seconds, workloads, inputs,
            expected)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(1 for r in records if not r[2])
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": env,
                      "fail_rate": failed / len(records), **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
