"""Benchmark of becsim: four figure-protocol workloads, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  One
run repeats passes over the workload's operations for S seconds, checks
every operation's outputs against perfbench/reference.json, prints a
report of every metric (median, quartiles, sample count) and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 gives the end-to-end metrics of BENCHMARK.json (untraced
passes, plus fresh interpreters timed up to `import becsim.cli` for
setup_s).  --trace 1 alternates untraced and traced passes and gives the
per-layer metrics.  The seed only permutes the order of operations within
a pass; the inputs are fixed physics instances with pinned outputs.
Exits 1 when any operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# Import time spreads by +-20% between fresh interpreters, so each run
# takes the median of several.
SETUP_SAMPLES = 5
SETUP_PROBE = "import becsim.cli, time; print(repr(time.monotonic()))"


def prepare_environment():
    """Cap BLAS threads at the usable cores and put ./src on the path.

    Must run before numpy is imported; the setup probes inherit both.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(samples):
    """Seconds from starting a fresh interpreter to `becsim.cli` imported."""
    out = []
    for _ in range(samples):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """Passes over one workload's operations, with their checks."""

    def __init__(self, ops, reference, compare, rng, out_dir):
        self.ops = ops
        self.reference = reference
        self.compare = compare
        self.rng = rng
        self.out_dir = out_dir
        self.attempted = 0
        self.failures = []       # (operation, problems)
        self.op_seconds = {op.name: [] for op in ops}   # untraced only
        self.kernel_shares = []  # (operation, seconds, Counter) traced

    def one_pass(self, tracer=None):
        """Run every operation once in seed order; (wall seconds, cpu)."""
        order = list(self.ops)
        self.rng.shuffle(order)
        wall, cpu0 = 0.0, cpu_seconds()
        for op in order:
            self.attempted += 1
            try:
                seconds, outcome = op.run(self.out_dir, tracer)
            except Exception as exc:   # counted as a failed operation
                self.failures.append((op.name, ["raised %s: %s"
                                                % (type(exc).__name__, exc)]))
                continue
            wall += seconds
            if tracer is None:
                self.op_seconds[op.name].append(seconds)
            ref = self.reference.get(op.name)
            problems = (["no reference outputs"] if ref is None
                        else self.compare(outcome, ref))
            if problems:
                self.failures.append((op.name, problems))
        return wall, cpu_seconds() - cpu0


def measure(workload, seed, seconds, layer_metrics, out_dir):
    """Passes until `seconds` have elapsed; samples of each metric.

    With layer_metrics empty every pass is untraced.  Otherwise untraced
    and traced passes alternate, and the traced ones give the samples of
    the named per-layer metrics.
    """
    import operations
    import tracing

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    run = Run(operations.WORKLOADS[workload], reference, operations.compare,
              random.Random(seed), out_dir)
    samples = {}
    spans = []
    start = time.perf_counter()

    def another(last):
        # stop when the next pass would end past `seconds` by more than half
        return time.perf_counter() - start + 0.5 * last < seconds

    if not layer_metrics:
        walls = [run.one_pass()[0]]
        while another(walls[-1]):
            walls.append(run.one_pass()[0])
        samples["wall_s"] = walls
        return run, samples, spans

    tracer = tracing.Tracer()
    plain, traced, cpu = [], [], []
    while not traced or another(plain[-1] + traced[-1]):
        wall, used = run.one_pass()
        plain.append(wall)
        cpu.append(used)
        tracer.reset()
        tracer.install()
        try:
            traced.append(run.one_pass(tracer)[0])
        finally:
            tracer.uninstall()
        stats = tracer.span_stats()
        for name in layer_metrics:
            if name not in ("proc.cpu_s", "trace.overhead_s"):
                samples.setdefault(name, []).append(tracer.value(name, stats))
        spans = tracer.spans
        run.kernel_shares = [
            (spans[k][0][len("op."):], spans[k][2] - spans[k][1], share)
            for k, share in sorted(tracer.kernel_shares().items())]
    samples["proc.cpu_s"] = cpu
    samples["trace.overhead_s"] = [statistics.median(traced)
                                   - statistics.median(plain)]
    return run, samples, spans


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(SRC, "becsim", "cli.py")):
        print("error: no becsim sources under %s" % SRC, file=sys.stderr)
        return 2
    prepare_environment()

    samples = {}
    if not args.trace:
        samples["setup_s"] = measure_setup(SETUP_SAMPLES)

    import machine
    os.makedirs(RUNS_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="out-", dir=RUNS_DIR)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        run, measured, spans = measure(
            args.workload, args.seed, args.seconds,
            list(units) if args.trace else [], out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    samples.update(measured)
    if not args.trace:
        samples["peak_rss_mb"] = [peak_rss_mb()]

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine.machine_record(),
        "operations_seconds": run.op_seconds,
        "failures": run.failures,
        "samples": {name: samples[name] for name in units},
    }
    report(record, units, run)
    if args.trace:
        record["spans_last_traced_pass"] = spans
    path = os.path.join(RUNS_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": quartiles(samples[name])[1],
                           "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


def report(record, units, run):
    m = record["machine"]
    print("becsim benchmark: workload %s, seed %d, %s run of %g s"
          % (record["workload"], record["seed"],
             "traced" if record["trace"] else "untraced", record["seconds"]))
    print("machine: %d cores, %s; Python %s, numpy %s, scipy %s; %s; "
          "BLAS threads %s" % (m["nproc"], m["cpu_model"], m["python"],
                               m["numpy"], m["scipy"], m["blas"],
                               m["blas_threads"]))
    print("%-34s %-6s %14s %14s %14s %4s"
          % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, unit in units.items():
        q1, med, q3 = quartiles(record["samples"][name])
        print("%-34s %-6s %14.6g %14.6g %14.6g %4d"
              % (name, unit, med, q1, q3, len(record["samples"][name])))
    print("%-34s %-6s %14d %14s %14s %4d"
          % ("ops_failed", "count", len(run.failures), "", "",
             run.attempted))
    for name, secs in run.op_seconds.items():
        if secs:
            q1, med, q3 = quartiles(secs)
            print("operation %-24s %-6s %14.6g %14.6g %14.6g %4d"
                  % (name, "s", med, q1, q3, len(secs)))
    for name, total, share in run.kernel_shares:
        print("hot spots %-24s %.3f s: %s" % (name, total, ", ".join(
            "%s %.1f%%" % (k, 100.0 * v / total)
            for k, v in share.most_common())))
    for name, problems in run.failures:
        print("FAILED %s: %s" % (name, "; ".join(problems)))


if __name__ == "__main__":
    sys.exit(main())
