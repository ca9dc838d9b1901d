"""Benchmark for kobstruct: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload catalog-cli --seed 1 --seconds 10 --trace 0

Run from the repository root; kobstruct is imported from ``src/`` of
the same checkout.  The seed fixes the inputs, and ``--seconds`` fixes
how many rounds of them the run executes, from each workload's nominal
round time on the reference machine (README.md).  No run is cut off by
a clock, so operation counts and output sizes repeat exactly and only
timings vary.  One client runs one operation at a time in this process:
a closed loop with no threads.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same list twice, untraced and then traced, with fgab's memos cleared
before each, and reports the per-layer metrics and the tracing
overhead; the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7


def prepare(workload, seed, seconds):
    """Import kobstruct from this checkout and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import kobstruct
    import kobstruct.cli

    if Path(kobstruct.__file__).resolve().parent != SRC / "kobstruct":
        raise RuntimeError(f"imported kobstruct from {kobstruct.__file__}, not {SRC}")
    cls = WORKLOADS[workload]
    rounds = max(cls.min_rounds, round(seconds / cls.round_seconds))
    return cls(kobstruct, seed, rounds)


def measure_setup(args):
    """Median over fresh processes of the time from launch until the
    workload is ready for its first operation."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append(elapsed)
    return statistics.median(samples)


def run_ops(wl, tracer=None):
    """Run every round; time each operation and check its output.

    An operation that raises, or whose output fails a check, counts as
    failed; a failed check also makes the run incorrect.
    """
    times = []
    round_bits = []
    failed = 0
    check_failures = 0
    op_id = 0
    for ops in wl.rounds:
        bits = 0
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = perf_counter_ns()
            try:
                result = wl.run(op)
            except Exception as exc:
                result = exc
            times.append(perf_counter_ns() - t0)
            if tracer is not None:
                tracer.end_op()
            op_id += 1
            if isinstance(result, Exception):
                failed += 1
                print(f"op {op_id - 1} raised {result!r}", file=sys.stderr)
                continue
            problems, op_bits = wl.check(op, result)
            if problems:
                failed += 1
                check_failures += 1
                print(f"op {op_id - 1} failed its checks: {problems[:3]}", file=sys.stderr)
            bits = max(bits, op_bits)
        round_bits.append(bits)
    return {
        "times_ms": [t / 1e6 for t in times],
        "round_bits": round_bits,
        "failed": failed,
        "correct": check_failures == 0,
    }


def ops_per_s(res):
    """Operations over the summed wall time of the operations themselves;
    the benchmark's own checks are not counted."""
    return len(res["times_ms"]) / (sum(res["times_ms"]) / 1e3)


def end_to_end(res, setup_s):
    times = res["times_ms"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(res), "1/s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        # every workload runs at least 100 operations, so the 90th
        # percentile has ten or more beyond it
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # the median over rounds of each round's largest entry: one
        # unlucky dense matrix would otherwise decide a whole run
        "output_max_bits": (statistics.median(res["round_bits"]), "bits"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "kobstruct" / "__init__.py").is_file():
        print(f"error: no kobstruct sources under {SRC}", file=sys.stderr)
        return 2

    if args.probe_setup:
        prepare(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    wl = prepare(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from spans import Tracer, clear_memos

        clear_memos(wl.kob.fgab)
        plain = run_ops(wl)
        clear_memos(wl.kob.fgab)
        tracer = Tracer(wl.kob)
        tracer.install()
        try:
            res = run_ops(wl, tracer)
        finally:
            tracer.restore()
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = ((ops_per_s(plain) / ops_per_s(res) - 1) * 100, "%")
        res["correct"] = res["correct"] and plain["correct"]
        tracer.write(OUT / f"{stem}.spans.gz")
    else:
        res = run_ops(wl)
        metrics = end_to_end(res, setup_s)

    result = {
        "correct": res["correct"],
        "attempted": len(res["times_ms"]),
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
