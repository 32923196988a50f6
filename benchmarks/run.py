"""Benchmark for monosing: one workload per run, closed loop, one client.

    python3 benchmarks/run.py --workload {sweep,nakayama,cli} [--seed N]
                              [--seconds S] [--trace 0|1] [--corpus-seed N]

Set-up (imports plus input generation) is timed several times and its median
reported.  Whole passes over the workload's operations run, one operation at
a time, for as many passes as fit in ``--seconds``, but at least two and at
least until ten latency samples lie beyond p90; a short operation repeats back to back and
its latency is the mean.  Every time is rescaled to a reference machine
speed that speed.py samples throughout the run.  Every answer goes
through the workload's correctness gate.  The last line of standard output
is one JSON object; a full record goes to ``.bench_out/``.
With ``--trace 1`` one untraced and one traced pass run instead, and the
per-layer numbers derived from the traced pass are printed.
See benchmarks/README.md for why the workloads are these.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads
from speed import Speedometer
from tracing import PER_LAYER, Tracer

ROOT = workloads.ROOT
OUT = ROOT / ".bench_out"
INPUTS = OUT / f"inputs-{os.getpid()}"  # presentation files the cli workload writes
DEFAULT_SEED = 174011  # corpus.DEFAULT_SEED when the benchmark was defined
SETUP_REPEATS = 11
REPEAT_S = 0.05  # a timed operation repeats until it has taken this long,
MAX_REPEATS = 20  # or this many times
MIN_PASSES = 2
BUDGET_S = 150  # no new pass starts if it could end past this

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("decided_frac", "ratio"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description="monosing benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus-seed", type=int, default=DEFAULT_SEED,
                   help="seed of the sweep corpus (held-out re-checks use another)")
    return p.parse_args(argv)


def environment():
    src = ROOT / "src" / "monosing"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def beyond_p90(n):
    """Samples strictly above the nearest-rank p90 of n samples."""
    return n - math.ceil(0.9 * n)


def p90(values):
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def set_up(args):
    """A fresh import of the package plus input generation; returns the
    package, the workload and the (start, end) of the set-up."""
    t0 = time.perf_counter()
    pkg = workloads.load_package()
    wl = make_workload(args, pkg)
    return pkg, wl, (t0, time.perf_counter())


def make_workload(args, pkg):
    return workloads.WORKLOADS[args.workload](pkg, args.seed, args.corpus_seed, INPUTS)


def repeated_set_up(args):
    """SETUP_REPEATS set-ups back to back, each after a full collection; the
    run goes on with the package and workload of the last one."""
    spans = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        pkg, wl, span = set_up(args)
        spans.append(span)
    return pkg, wl, spans


def one_pass(wl, tracer=None, repeat=False):
    """Run every operation once, or with ``repeat`` back to back until it has
    taken REPEAT_S; returns (results, each operation's list of (start, end),
    pass time).  The machine's speed flips every few milliseconds, so the
    time of one short run is mostly a draw of its speed state; the mean over
    repetitions is the operation's latency.  Every repetition parses its
    input afresh and must give the same answer.  A full collection, untimed,
    runs before each operation, so that none pays for garbage an earlier one
    left; which operations would pay otherwise depends on their order, and so
    on the seed."""
    results, op_spans = [], []
    left_out = 0.0
    t_pass = time.perf_counter()
    for k, (op_id, arg) in enumerate(wl.ops):
        if tracer is not None:
            tracer.op_id = k
        t_gc = time.perf_counter()
        gc.collect()
        spans = []
        left_out += time.perf_counter() - t_gc
        while True:
            t0 = time.perf_counter()
            try:
                answer = wl.run(arg)
            except Exception as e:  # reported by the gate as a failed operation
                traceback.print_exc(file=sys.stderr)
                answer = ("error", f"{type(e).__name__}: {e}")
            spans.append((t0, time.perf_counter()))
            if len(spans) == 1:
                result = answer
            elif answer != result:
                result = ("error", "repetitions gave different answers")
            if not repeat or result[0] == "error" or len(spans) == MAX_REPEATS \
                    or spans[-1][1] - spans[0][0] >= REPEAT_S:
                break
        op_spans.append(spans)
        results.append((op_id, result))
    return results, op_spans, time.perf_counter() - t_pass - left_out


def op_table(passes, op_times):
    """Each operation's times over the passes, keyed by its op id."""
    table = {}
    for ops, times in zip(passes, op_times):
        for (op_id, _), t in zip(ops, times):
            table.setdefault(str(op_id), []).append(t)
    return table


def durations(spans):
    return [t1 - t0 for t0, t1 in spans]


class Gate:
    def __init__(self, wl, pkg):
        self.wl, self.pkg = wl, pkg
        self.dim_cap = pkg.oracle.DIM_CAP
        self.violations = []
        self.attempted = self.failed = self.undecided = 0

    def check(self, results):
        self.attempted += len(results)
        self.failed += sum(1 for _, r in results if r[0] == "error")
        try:
            self.undecided += self.wl.check_pass(results)
        except workloads.GateViolation as e:
            self.violations.append(str(e))
        if self.pkg.oracle.DIM_CAP != self.dim_cap:
            self.violations.append(f"oracle.DIM_CAP changed from {self.dim_cap} "
                                   f"to {self.pkg.oracle.DIM_CAP}")


def timed_run(args, wl, gate):
    """Returns each pass's (op id, spans) pairs and the passes' wall times."""
    passes, wall_times = [], []
    start = time.perf_counter()
    while True:
        results, op_spans, wall_s = one_pass(wl, repeat=True)
        gate.check(results)
        passes.append([(op_id, spans) for (op_id, _), spans in zip(results, op_spans)])
        wall_times.append(wall_s)
        elapsed = time.perf_counter() - start
        # Start another pass only if it should end within --seconds, unless
        # there are fewer than MIN_PASSES passes or fewer than ten samples
        # beyond p90 yet.
        fits = elapsed + statistics.median(wall_times) <= args.seconds
        enough = len(passes) >= MIN_PASSES and beyond_p90(sum(map(len, passes))) >= 10
        if enough and not fits:
            return passes, wall_times
        if gate.violations or elapsed + max(wall_times) > BUDGET_S:
            return passes, wall_times


def traced_run(args, pkg, wl, gate):
    results, _, untraced_s = one_pass(wl)
    gate.check(results)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        wl = make_workload(args, pkg)
        results, op_spans, traced_s = one_pass(wl, tracer)
    finally:
        tracer.uninstall()
    gate.check(results)
    metrics = tracer.layer_metrics(untraced_s, traced_s)
    verdicts = [(op_id, r[:3] if r[0] == "exit" else r) for op_id, r in results]
    return metrics, tracer, tracer.op_records(verdicts, durations(s[0] for s in op_spans))


def main(argv=None):
    args = parse_args(argv)
    try:
        return measure(args)
    finally:
        shutil.rmtree(INPUTS, ignore_errors=True)


def measure(args):
    if not (ROOT / "src" / "monosing" / "__init__.py").is_file() \
            or not (ROOT / "fixtures").is_dir():
        print(f"error: no monosing source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "corpus_seed": args.corpus_seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env}
    print(f"monosing benchmark  workload={args.workload} seed={args.seed} "
          f"corpus_seed={args.corpus_seed} python={env['python']} nproc={env['nproc']} "
          f"platform={env['platform']} commit={env['commit']} src={env['src_sha256'][:12]}")
    if args.trace:
        pkg, wl, setup_span = set_up(args)
        gate = Gate(wl, pkg)
        layer, tracer, ops = traced_run(args, pkg, wl, gate)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        record.update(setup_wall_s=durations([setup_span]), ops=ops)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json.gz", record)
    else:
        with Speedometer() as speed:
            pkg, wl, setup_spans = repeated_set_up(args)
            gate = Gate(wl, pkg)
            passes, wall_times = timed_run(args, wl, gate)
        setup_times = [speed.normalized(*span) for span in setup_spans]
        op_times = [[statistics.fmean(speed.normalized(*span) for span in spans)
                     for _, spans in ops] for ops in passes]
        pass_times = [sum(times) for times in op_times]
        samples = [t for times in op_times for t in times]
        per_pass = gate.attempted // len(passes)
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "op_p50_ms": statistics.median(samples) * 1000,
            "op_p90_ms": p90(samples) * 1000,
            "decided_frac": 1 - gate.undecided / gate.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        kernel = sorted(speed.times)
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups "
                       f"(wall {statistics.median(durations(setup_spans)):.4f} s)",
            "pass_s": f"median of {len(passes)} passes of {per_pass} operations "
                      f"(wall {statistics.median(wall_times):.3f} s)",
            "op_p50_ms": f"{len(samples)} samples",
            "op_p90_ms": f"{len(samples)} samples, {beyond_p90(len(samples))} beyond p90",
            "decided_frac": "1 - undecided_frac",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<14} {values[name]:>14.6f} {unit:<6} {notes[name]}")
        print(f"  {'undecided_frac':<14} {gate.undecided / gate.attempted:>14.6f} {'ratio':<6} "
              f"{gate.undecided}/{gate.attempted} operations undecided")
        print(f"  speed: {len(kernel)} kernel samples, p2 {kernel[len(kernel) // 50] * 1e6:.1f} us, "
              f"median {statistics.median(kernel) * 1e6:.1f} us, {speed.stalled} stalled")
        record.update(setup_times_s=setup_times, setup_wall_s=durations(setup_spans),
                      pass_times_s=pass_times, pass_wall_s=wall_times, samples=len(samples),
                      op_times_s=op_table(passes, op_times),
                      kernel_samples=len(kernel), kernel_p2_s=kernel[len(kernel) // 50],
                      kernel_median_s=statistics.median(kernel), kernel_stalled=speed.stalled,
                      undecided=gate.undecided, undecided_frac=gate.undecided / gate.attempted)
    record.update(metrics=metrics, violations=gate.violations, attempted=gate.attempted,
                  failed=gate.failed)
    suffix = "trace" if args.trace else "timed"
    with open(OUT / f"result-{args.workload}-{args.seed}-{suffix}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for v in gate.violations:
        print(f"correctness gate: {v}", file=sys.stderr)
    correct = not gate.violations and gate.failed == 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
