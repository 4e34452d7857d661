"""Run one benchmark workload against the aae sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

aae is imported from ./src; nothing needs installing. The workload's inputs
are generated from --seed. Set-up runs five times and reports its median;
then units of work run while the next one would end within --seconds (at
least one unit). With --trace 0 the end-to-end metrics, which every
workload reports, are printed, then the workload's own figures, by name and
unit but not in the result. With --trace 1 each unit runs once untraced
and once traced, and the per-layer metrics of the traced runs are reported
per unit, with the tracing overhead.

Lines before the last report the environment, the sample counts and every
metric by name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Results and spans
are also written under perfbench/.out/.

Exit codes: 0 every check passed; 1 a check failed or aae raised;
2 bad arguments, or the checkout has no aae sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
# One BLAS thread: every call is small, and one thread keeps timings steady.
BLAS_THREADS = 1
SETUP_REPEATS = 5


def pin_blas_threads() -> int:
    """Set the BLAS thread count; must run before numpy is imported."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def measure(workload, seconds: float, tracer, setup_repeats: int):
    """Set up, then run units until the window closes.

    Returns (setup seconds per repeat, units run, untraced seconds, traced
    seconds); the last two are the units' own timed seconds.
    """
    setup_times = []
    for _ in range(setup_repeats):
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
    plain_s = traced_s = 0.0
    units = 0
    last = 0.0
    deadline = perf_counter() + seconds
    # Start no unit that the last one's length says would overrun.
    while units == 0 or perf_counter() + last <= deadline:
        start = perf_counter()
        plain_s += workload.run_unit(units)
        workload.check_unit(units)
        if tracer is not None:
            tracer.unit = units
            with tracer.installed():
                traced_s += workload.run_unit(units)
            workload.check_unit(units)
        units += 1
        last = perf_counter() - start
    return setup_times, units, plain_s, traced_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; figures are not comparable")
    args = parser.parse_args(argv)

    if not (SRC / "aae" / "__init__.py").is_file():
        print(f"error: no aae sources at {SRC / 'aae'}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import aae

    if Path(aae.__file__).resolve().parent != SRC / "aae":
        print(f"error: imported aae from {aae.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units_of = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace
                                  else "end_to_end"]}

    env = environment(args, threads)
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    tracer = Tracer() if args.trace else None
    try:
        setup_times, units, plain_s, traced_s = measure(
            workload, args.seconds, tracer,
            1 if args.tiny else SETUP_REPEATS)
    except Exception:  # reported as a failed run, never as figures
        traceback.print_exc()
        workload.failed += 1
        workload.attempted += 1
        print(json.dumps({"correct": False, "attempted": workload.attempted,
                          "failed": workload.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = {"setup_s": statistics.median(setup_times),
                  **workload.metrics(),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        values = tracer.layer_metrics(units)
        values["trace.units"] = units
        values["trace.overhead_frac"] = traced_s / plain_s - 1.0
        names = set(units_of)
        values = {k: v for k, v in values.items() if k in names}
        missing = names - set(values)
        if missing:
            raise KeyError(f"declared per-layer metrics not measured: "
                           f"{sorted(missing)}")
    undeclared = set(values) - set(units_of)
    if undeclared:
        raise KeyError(f"metrics not declared in BENCHMARK.json: "
                       f"{sorted(undeclared)}")

    print(f"units {units} in a {args.seconds:g} s window; set-up "
          f"{len(setup_times)}x; {workload.samples()}")
    if tracer is not None:
        print(f"tracing: {len(tracer.spans)} spans; untraced "
              f"{plain_s:.4f} s, traced {traced_s:.4f} s")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units_of[name]}")
    if tracer is None:
        for name, value, unit in workload.figures():
            print(f"figure {name} {value:.6g} {unit}")
    print(f"failed_frac {workload.failed / workload.attempted:g} "
          f"({workload.failed} of {workload.attempted} operations)")
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    correct = workload.failed == 0
    result = {"correct": correct, "attempted": workload.attempted,
              "failed": workload.failed,
              "metrics": {name: {"value": value, "unit": units_of[name]}
                          for name, value in values.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"env": env, **result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{stem}.tsv")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
