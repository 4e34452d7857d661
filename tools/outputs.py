"""Write the output-identity set: every CLI output file whose bytes a
behaviour-preserving change must keep.

Usage: python3 tools/outputs.py OUTDIR

Runs `aae.cli.main` in-process and writes 22 files to OUTDIR: three
generated corpora; the training CSV and params file of scnn, dcnn and gru on
two of them; the active run of acceptance criterion 5, with and without
uncertainty sampling; one gru sweep and two cross-validations. Compare two
such directories with `diff -r`. BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is already set, since threaded sums may round
differently.
"""
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aae.cli import main  # noqa: E402

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_outputs(Path(sys.argv[1]))
