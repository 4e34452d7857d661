"""Write the output-identity set: every CLI output file whose bytes a
behaviour-preserving change must keep.

Usage: python3 tools/outputs.py OUTDIR
       python3 tools/outputs.py --against REV OUTDIR

Runs `aae.cli.main` in-process and writes 22 files to OUTDIR: three
generated corpora; the training CSV and params file of scnn, dcnn and gru on
two of them; the active run of acceptance criterion 5, with and without
uncertainty sampling; one gru sweep and two cross-validations. BLAS runs on
one thread unless OPENBLAS_NUM_THREADS is already set, since threaded sums
may round differently.

With --against, the copy of this script in a `git worktree` of REV, under a
temporary directory, writes REV's set to OUTDIR/parent, and the working
tree's copy writes OUTDIR/change, each in a child process. Each file that
differs, or that only one side wrote, is listed, and the exit code is 1 if
there is any. The worktree is removed afterwards, also when
SIGTERM or SIGINT stops the run. OUTDIR should not hold an earlier set.
"""
import argparse
import filecmp
import os
import subprocess
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aae.cli import main  # noqa: E402
from pairs import ROOT, git, worktree  # noqa: E402

CORPORA = {"freebase-small": (2000, 42), "ldbc": (300, 7), "random": (200, 11)}
ACTIVE = ["--arch", "gru", "--threshold", "0.9", "--sample-fraction", "0.1",
          "--lr", "0.01", "--epochs", "200", "--seed", "0"]


def runs(out: Path):
    corpus = {name: str(out / f"gen-{name}.jsonl") for name in CORPORA}
    for name, (count, seed) in CORPORA.items():
        yield ["gen", "--profile", name, "--count", str(count),
               "--seed", str(seed), "--out", corpus[name]]
    for name in ("ldbc", "random"):
        for arch in ("scnn", "dcnn", "gru"):
            stem = out / f"train-{arch}-{name}"
            yield ["train", "--corpus", corpus[name], "--arch", arch,
                   "--epochs", "8", "--seed", "3", "--out", f"{stem}.csv",
                   "--params-out", f"{stem}.params"]
    for extra in ([], ["--uncertainty"]):
        stem = out / ("active-gru" + "-uncertainty" * bool(extra))
        yield ["active", "--corpus", corpus["freebase-small"], *ACTIVE,
               *extra, "--out", f"{stem}.csv", "--params-out",
               f"{stem}.params"]
    yield ["sweep", "--corpus", corpus["random"], "--arch", "gru",
           "--epochs", "20", "--out", str(out / "sweep-gru-random.csv")]
    for arch in ("scnn", "gru"):
        yield ["cv", "--corpus", corpus["random"], "--arch", arch,
               "--folds", "3", "--epochs", "20",
               "--out", str(out / f"cv-{arch}-random.csv")]


def write_outputs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for argv in runs(out):
        if main(argv) != 0:
            sys.exit(f"aae {' '.join(argv)} failed")


def write_set(checkout: Path, out: Path) -> None:
    """The set of checkout's sources, written by its copy of this script."""
    script = checkout / "tools" / "outputs.py"
    if subprocess.run([sys.executable, str(script), str(out)]).returncode:
        sys.exit(f"{script} {out} failed")


def compare_with(rev: str, out: Path) -> int:
    """Write rev's set and the working tree's under out, list the files that
    differ, and return 1 if any do."""
    rev = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    parent, change = out / "parent", out / "change"
    with worktree(rev, "outputs-") as tree:
        write_set(tree, parent)
    write_set(ROOT, change)
    names = sorted({p.name for side in (parent, change)
                    for p in side.iterdir()})
    differ = [name for name in names
              if not ((parent / name).is_file() and (change / name).is_file()
                      and filecmp.cmp(parent / name, change / name,
                                      shallow=False))]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(names)} files differ from {rev[:7]}")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args()
    if args.against:
        sys.exit(compare_with(args.against, args.outdir))
    write_outputs(args.outdir)
