"""Speed-normalized benchmark of normmin: solve -> certify, region lattices,
tabulated duals and the command line.

Run from the repository root:

    python3 bench/run.py --workload solve-certify --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload; ``--trace 1``
runs the traced tour and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One CPU, single-threaded BLAS, and normmin's own thread knob at its default.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NORMMIN_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("solve-certify", "region-lattice", "tabulated-dual", "cli")
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def rounds_for(cls, seconds: int) -> int:
    """Whole rounds for a run: --seconds over the workload's nominal round time.

    The count depends only on --seconds, so every run of a workload attempts
    the same operations, whatever the machine's speed.
    """
    return max(cls.min_rounds, round(seconds / cls.round_s))


def setup(name: str, seed: int, seconds: int, workdir: Path):
    """Imports, inputs and warm-up; returns (workload, rounds of ops, clock)."""
    import numpy  # noqa: F401

    import speed

    clock = speed.PhaseClock(PROCESS_START)
    clock.mark()
    import scipy.optimize  # noqa: F401

    clock.mark()
    sys.path.insert(0, str(SRC))
    import normmin

    if Path(normmin.__file__).resolve().parent != (SRC / "normmin").resolve():
        raise ImportError(f"normmin imported from {normmin.__file__}, not from {SRC}")
    clock.mark()
    import workloads

    cls = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    wl = cls(seed, workdir, SRC)
    ops = [wl.round_ops(r) for r in range(rounds_for(cls, seconds))]
    clock.mark()
    wl.warm_up()
    clock.mark()
    return wl, ops, clock


def run_ops(ops, tracer=None, factors=None):
    """Time and check each operation; returns (results, correct)."""
    import speed
    import workloads

    results = []
    correct = True
    for op in ops:
        if tracer is not None:
            tracer.op_index = len(factors)
        out, exc, t = speed.timed(op.run)
        if factors is not None:
            factors.append(t.factor)
        if exc is not None:
            failure = type(exc).__name__
        else:
            try:
                failure = op.check(out)
            except workloads.WrongAnswer as err:
                failure = "WrongAnswer"
                correct = False
                print(f"WRONG ANSWER [{op.kind}] {op.instance}: {err}", file=sys.stderr)
        results.append((op, t, failure))
    return results, correct


def child_setup(name: str, seed: int, seconds: int) -> dict:
    """One more set-up, in a fresh process, for the set-up median."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile); with too few samples, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def summarize(results):
    failures = Counter(f for _, _, f in results if f is not None)
    passed = [t for _, t, f in results if f is None]
    return failures, passed


def print_failures(results, failures) -> None:
    print(f"attempted {len(results)} operations, failed {sum(failures.values())}")
    for kind, count in sorted(failures.items()):
        print(f"  failed {kind}: {count}")
        first = next(op for op, _, f in results if f == kind)
        print(f"    first: [{first.kind}] {first.instance[:300]}")
    for op, _, failure in results:
        if failure != op.expect:
            print(f"UNEXPECTED {failure or 'pass'} (expected {op.expect or 'pass'}): "
                  f"[{op.kind}] {op.instance}", file=sys.stderr)


def end_to_end(args) -> int:
    workdir = OUT / f"{args.workload}-{args.seed}"
    wl, rounds, clock = setup(args.workload, args.seed, args.seconds, workdir)
    if args.setup_only:
        print(json.dumps({"raw": clock.raw, "norm": clock.norm}))
        return 0
    results = []
    correct = True
    for ops in rounds:
        res, ok = run_ops(ops)
        results += res
        correct &= ok
    if args.workload == "cli":
        peak_kb = wl.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [{"raw": clock.raw, "norm": clock.norm}]
    setups += [child_setup(args.workload, args.seed, args.seconds) for _ in range(1, SETUP_REPEATS)]

    failures, passed = summarize(results)
    if not passed:
        print("no operation passed", file=sys.stderr)
        return 1
    total_norm = sum(t.norm for _, t, _ in results)
    total_raw = sum(t.raw for _, t, _ in results)
    lat_norm = [t.norm for t in passed]
    lat_raw = [t.raw for t in passed]
    tail_norm, pct = tail(lat_norm)
    tail_raw, _ = tail(lat_raw)
    metrics = {
        "setup_s": (statistics.median(s["norm"] for s in setups), statistics.median(s["raw"] for s in setups), "s"),
        "ops_per_s": (len(passed) / total_norm, len(passed) / total_raw, "1/s"),
        "latency_p50_s": (statistics.median(lat_norm), statistics.median(lat_raw), "s"),
        "latency_tail_s": (tail_norm, tail_raw, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, peak_kb / 1024.0, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(passed)} passed operations, tail = p{pct:.1f}")
    print_failures(results, failures)
    for name, (norm, raw, unit) in metrics.items():
        print(f"{name} {norm:.6g} {unit} (raw {raw:.6g} {unit})")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v[0], "unit": v[2]} for k, v in metrics.items()},
    }))
    return 0


def traced(args) -> int:
    """Round 0 of every workload under the tracer, named workload first."""
    names = [args.workload] + [n for n in WORKLOAD_NAMES if n != args.workload]
    staged = []
    for name in names:
        workdir = OUT / f"trace-{name}-{args.seed}"
        wl, rounds, _ = setup(name, args.seed, 1, workdir)
        staged.append((name, wl, rounds[0]))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    factors = []
    cli_times = Counter()
    results = []
    correct = True
    traced_norm = 0.0
    workloads.CountingPower.calls = 0
    tracer.install()
    try:
        for name, wl, ops in staged:
            if name == "cli":
                wl.trace_file = OUT / f"trace-cli-{args.seed}" / "child-trace.json"
            res, ok = run_ops(ops, tracer, factors)
            results += res
            correct &= ok
            if name == "cli":
                for op, t, _ in res:
                    cli_times[f"cli.{op.kind}_s"] += t.norm
            if name == args.workload:
                traced_norm = sum(t.norm for _, t, _ in res)
    finally:
        tracer.uninstall()
    psi_calls = workloads.CountingPower.calls
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    totals = tracer.layer_totals(factors)
    counts = Counter(tracer.counts)
    import_s = 0.0
    cli_wl = next(wl for name, wl, _ in staged if name == "cli")
    for child in cli_wl.child_traces:
        tracing.merge_child(totals, counts, child)
        import_s += child["import_s"]
    cli_wl.trace_file = None

    # The same operations again without wrappers, for the tracing overhead.
    name, wl, _ = staged[0]
    untraced, ok = run_ops(wl.round_ops(0))
    correct &= ok
    results += untraced
    untraced_norm = sum(t.norm for _, t, _ in untraced)

    values = dict(totals)
    values.update({k: counts.get(k, 0) for k, unit in tracing.PER_LAYER.items() if unit != "s"})
    values["psi_generators.psi_calls"] = psi_calls
    values["cli.import_s"] = import_s
    values.update(cli_times)
    failures, _ = summarize(results)
    print(f"traced tour seed {args.seed}: {', '.join(names)} (round 0 each)")
    print(f"tracing overhead on {name}: {traced_norm:.4g} s traced vs {untraced_norm:.4g} s untraced "
          f"({100.0 * (traced_norm / untraced_norm - 1.0):+.1f}%), {len(tracer.spans)} spans")
    print_failures(results, failures)
    for key, unit in tracing.PER_LAYER.items():
        print(f"{key} {values[key]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in tracing.PER_LAYER.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "normmin" / "__init__.py").is_file():
        print(f"error: normmin sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.trace and not args.setup_only:
        return traced(args)
    return end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
