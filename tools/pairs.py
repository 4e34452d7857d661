"""Paired benchmark runs of the working tree against another revision.

Usage: python3 tools/pairs.py --against REV --workload W --pairs N [--tiny]

Checks out REV with `git worktree` under a temporary directory, runs
`perfbench/run.py --trace 0` on REV and on the working tree in turn, and
removes the worktree afterwards. Pair i (1..N) runs seed i on both sides,
and the side that runs first swaps every pair, so drift on a shared host
falls on both sides alike. The window is BENCHMARK.json's run_seconds;
--tiny passes through to run.py with a 1 s window.

Writes BENCH_<short sha of REV>-<W>.json in the current directory: each
side's env line, every pair's end-to-end metrics, each side's medians and
quartiles (q1, q3), the change/parent ratio of the medians, the change's
wins per metric, the unresolved metrics, and the number of failed runs. A
median breaks its bound when the change is worse than REV by more than the
bound's fraction of REV's median. A metric is unresolved when either side's
interquartile range is wider than that same fraction of REV's median, unless
every run of the change is better than every run of REV; a ratio near 1 on
an unresolved metric does not show it unchanged. Exits 1 when any run
fails, or when a median breaks its bound; --tiny figures are not comparable,
so under --tiny broken bounds are listed but do not fail.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              tiny: bool):
    """One run's env line and end-to-end metrics; metrics are None if the
    run failed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         *["--tiny"] * tiny],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if done.returncode or not result.get("correct"):
        print(f"{checkout} seed {seed} failed:\n{done.stderr}",
              file=sys.stderr)
        return env, None
    return env, {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(pairs: list[dict], gated: list[dict]) -> dict:
    medians = {side: {} for side in SIDES}
    spread = {side: {} for side in SIDES}
    ratio, wins, broken, unresolved = {}, {}, [], []
    both = [p for p in pairs if p["parent"] and p["change"]]
    for metric in gated:
        name = metric["name"]
        # Positive sign * (change - parent) means the change is worse.
        sign = 1.0 if metric["better"] == "lower" else -1.0
        values = {}
        for side in SIDES:
            values[side] = [p[side][name] for p in pairs if p[side]]
            medians[side][name] = (statistics.median(values[side])
                                   if values[side] else None)
            spread[side][name] = quartiles(values[side])
        wins[name] = sum(sign * (p["change"][name] - p["parent"][name]) < 0
                         for p in both)
        parent, change = medians["parent"][name], medians["change"][name]
        if None in (parent, change):
            ratio[name] = None
            continue
        ratio[name] = change / parent
        if sign * (ratio[name] - 1.0) > metric["bound"]:
            broken.append(name)
        widest = max(spread[side][name][1] - spread[side][name][0]
                     for side in SIDES)
        separated = (max(sign * v for v in values["change"])
                     < min(sign * v for v in values["parent"]))
        if widest > metric["bound"] * parent and not separated:
            unresolved.append(name)
    return {"median": medians, "quartiles": spread, "ratio": ratio,
            "wins": wins, "broken": broken, "unresolved": unresolved}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 1 if args.tiny else bench["run_seconds"]
    rev = git("rev-parse", "--verify", f"{args.against}^{{commit}}")

    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    trees = {"parent": tmp / "parent", "change": ROOT}
    git("worktree", "add", "--detach", str(trees["parent"]), rev)
    env, pairs = {}, []
    try:
        for seed in range(1, args.pairs + 1):
            pair = {"seed": seed,
                    "order": list(SIDES if seed % 2 else SIDES[::-1])}
            for side in pair["order"]:
                side_env, pair[side] = run_bench(
                    trees[side], args.workload, seed, seconds, args.tiny)
                env.setdefault(side, side_env)
            pairs.append(pair)
            print(json.dumps(pair))
    finally:
        git("worktree", "remove", "--force", str(trees["parent"]))
        shutil.rmtree(tmp, ignore_errors=True)

    report = {"workload": args.workload, "against": rev,
              "seconds": seconds, "tiny": args.tiny, "env": env,
              "pairs": pairs, **summarize(pairs, bench["end_to_end"]),
              "failed": sum(p[side] is None for p in pairs for side in SIDES)}
    short = git("rev-parse", "--short", rev)
    out = Path(f"BENCH_{short}-{args.workload}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}: ratios {report['ratio']}, wins {report['wins']} "
          f"of {len(pairs)}, broken {report['broken']}, "
          f"unresolved {report['unresolved']}, failed {report['failed']}")
    return 1 if report["failed"] or (report["broken"] and not args.tiny) else 0


if __name__ == "__main__":
    sys.exit(main())
