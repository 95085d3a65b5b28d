#!/usr/bin/env python3
"""End-to-end benchmark of the actsense deployment simulation.

Run from the root of a checkout; the package is imported from ``src/``
without being installed:

    python3 simbench/run.py --workload bank30 [--seed 1] [--seconds S] [--trace 0]

The run builds the workload's inputs several times before the first
pass and again after each pass (``setup_s`` is the median), runs whole
passes of the workload for about ``--seconds`` seconds (by default
``run_seconds`` from BENCHMARK.json), and checks every
output outside the timed region.  With ``--trace 1`` it then runs one
more pass with spans recorded around the calls into each layer, writes
the spans to ``.simbench/`` and reports per-layer metrics in place of
the end-to-end ones.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
See simbench/README.md.
"""

import os

# One BLAS thread: the matrices are tiny, and idle BLAS threads spinning on
# the second core only add noise.  The numpy backend is the one measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ["ACTSENSE_DISABLE_NUMBA"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".simbench"


def _parse_args(argv, workload_names):
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=1,
                        help="permutes the rows of the world's CSV (default 1)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="length of the timed passes (default: run_seconds "
                             f"in BENCHMARK.json, {run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(actsense, numpy):
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((SRC / "actsense").glob("*.py"))}
    return {
        "backend": actsense.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def _print_layers(summary, absent, traced_seconds, untraced_rate, traced_rate):
    print(f"months/s untraced {untraced_rate:.3f}, traced {traced_rate:.3f} "
          f"(tracing overhead {100 * (untraced_rate / traced_rate - 1):+.1f}%)")
    print(f"{'layer':<12} {'total ms':>10} {'self ms':>10} {'self %':>7}")
    for layer, (total, own) in sorted(summary.layers.items(), key=lambda kv: -kv[1][1]):
        print(f"{layer:<12} {1e3 * total:>10.1f} {1e3 * own:>10.1f} "
              f"{100 * own / traced_seconds:>6.1f}%")
    for name, why in absent.items():
        print(f"absent: {name} ({why})")


def main(argv=None):
    if not (SRC / "actsense" / "__init__.py").is_file():
        print(f"error: {SRC / 'actsense'} not found; run from the root of an "
              "actsense checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import actsense
    import tracing
    import workloads as wl

    args = _parse_args(argv, sorted(wl.WORKLOADS))
    workload = wl.WORKLOADS[args.workload]
    meta = _metadata(actsense, numpy)
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        inputs = wl.set_up(workload, args.seed, work, setup_times, wl.SETUPS)
        passes, first = wl.untraced_passes(workload, inputs, args.seed, args.seconds, work,
                                           setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not first:
            print("error: no simulation of the first pass produced a report",
                  file=sys.stderr)
            return 1

        rates = [wl.months_per_s(p) for p in passes]
        wall_rates = [wl.months_per_s(p, rescaled=False) for p in passes]
        untraced_rate = statistics.median(wall_rates)
        metrics = {
            "setup_s": {"value": statistics.median(c.scaled for c in setup_times),
                        "unit": "s"},
            "months_per_s": {"value": statistics.median(rates), "unit": "month/s"},
            "year_rmse_kwh": {"value": statistics.fmean(s.report.year_rmse
                                                        for s in first.values()),
                              "unit": "kWh"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        detail = {"setup_s": [c.scaled for c in setup_times],
                  "setup_wall_s": [c.wall for c in setup_times],
                  "pass_s": [p.clock.scaled for p in passes],
                  "pass_wall_s": [p.clock.wall for p in passes],
                  "months_per_s": rates, "wall_months_per_s": wall_rates}

        if args.trace:
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.csv.gz"
            traced, summary, spans = wl.traced_pass(workload, inputs, first, work,
                                                    trace_path)
            print(f"{spans} spans -> {trace_path.relative_to(ROOT)}")
            passes.append(traced)
            traced_rate = wl.months_per_s(traced, rescaled=False)
            metrics, absent = tracing.per_layer(summary)
            metrics["trace.traced_months_per_s"] = {"value": traced_rate, "unit": "month/s"}
            metrics["trace.untraced_months_per_s"] = {"value": untraced_rate,
                                                      "unit": "month/s"}
            _print_layers(summary, absent, traced.clock.wall, untraced_rate, traced_rate)
            detail["traced_pass_wall_s"] = traced.clock.wall
            detail["layers_ms"] = {k: [1e3 * v[0], 1e3 * v[1]]
                                   for k, v in summary.layers.items()}
            detail["absent"] = absent
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [problem for p in passes for problem in p.problems]
    for p in passes:
        for s in p.simulations:
            for problem in s.problems:
                print(f"FAILED {s.strategy} fold {s.fold}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    meta["loadavg_after"] = os.getloadavg()
    line = {"correct": not problems,
            "attempted": sum(len(p.simulations) for p in passes),
            "failed": sum(s.failed for p in passes for s in p.simulations),
            "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "detail": detail, **line}
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("meta " + json.dumps(meta, separators=(",", ":")))
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"wall clock, not rescaled: months/s {statistics.median(wall_rates):.4g}, "
              f"setup {statistics.median(detail['setup_wall_s']):.4g} s")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
