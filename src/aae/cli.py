"""Command-line surface: corpus generation, training, active runs, sweeps,
cross-validation, and prediction with a saved network.

Exit codes: 0 success, 2 validation/configuration, 3 parse, 4 I/O.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time

import numpy as np

from . import active as active_mod
from . import classifiers, features, graphmodel, nn, oracle
from .errors import AAEError, ParseError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_IO = 4

# Probability knobs for the seeded storage generators.
_INDEX_DENSITY = 0.3
_ENGINE_FLIP_PROB = 0.5
_BIT_TOGGLE_PROB = 0.2


def _random_storage(rng: np.random.Generator,
                    num_properties: int) -> features.StorageConfig:
    engine = features.ENGINES[int(rng.integers(0, 2))]
    bits = tuple(int(b) for b in
                 rng.random(num_properties) < _INDEX_DENSITY)
    return features.StorageConfig(engine=engine, index_bits=bits)


def _mutate_storage(rng: np.random.Generator,
                    s_old: features.StorageConfig) -> features.StorageConfig:
    engine = s_old.engine
    if rng.random() < _ENGINE_FLIP_PROB:
        engine = features.ENGINES[1 - features.ENGINES.index(engine)]
    bits = [
        1 - b if rng.random() < _BIT_TOGGLE_PROB else b
        for b in s_old.index_bits
    ]
    if engine == s_old.engine and tuple(bits) == s_old.index_bits:
        # Force a real change so old and new never coincide; GraphStats
        # guarantees at least one property type, so there is a bit to flip.
        flip = int(rng.integers(0, len(bits)))
        bits[flip] = 1 - bits[flip]
    return features.StorageConfig(engine=engine, index_bits=tuple(bits))


def generate_labeled_corpus(profile: str, count: int, seed: int):
    """Draw `count` oracle-labeled instances over one seeded GraphStats.

    The graph is fixed per corpus (each dataset trains its own model);
    workloads and storage pairs vary per instance. Returns (header dict,
    instances).
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    stats = graphmodel.generate_graph_stats(profile, seed)
    max_len = (features.LDBC_MAX_LEN if profile == "ldbc"
               else features.DEFAULT_MAX_LEN)

    rng = np.random.default_rng(seed)
    stats_id = f"{profile}:{seed}"
    instances = []
    for i in range(count):
        mix = rng.dirichlet(np.ones(len(graphmodel.CATEGORIES)))
        workload_seed = int(rng.integers(0, 2**31))
        workload = graphmodel.generate_workload(stats, mix, workload_seed)
        s_old = _random_storage(rng, stats.num_property_types)
        s_new = _mutate_storage(rng, s_old)
        inst = features.assemble(stats, workload, s_old, s_new,
                                 max_len=max_len)
        inst.label = oracle.label(stats, workload, s_old, s_new)
        inst.provenance = {
            "stats": stats_id,
            "workload": f"w{i}:{workload_seed}",
            "s_old": s_old.storage_id(),
            "s_new": s_new.storage_id(),
        }
        instances.append(inst)

    header = {
        "profile": profile,
        "seed": seed,
        "count": count,
        "max_len": max_len,
        "cost_params": oracle.cost_params(),
    }
    return header, instances


def _write_csv(path, rows: list[dict]) -> None:
    """A header of the first row's keys, then one row per dict; floats .9g."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]))
        writer.writeheader()
        writer.writerows(
            {c: f"{v:.9g}" if isinstance(v, float) else v
             for c, v in row.items()} for row in rows)


def _train_kwargs(args) -> dict:
    return {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "learning_rate": args.lr,
    }


def cmd_gen(args) -> int:
    header, instances = generate_labeled_corpus(
        args.profile, args.count, args.seed)
    features.write_corpus(args.out, header, instances)
    print(f"wrote {len(instances)} instances to {args.out}")
    return EXIT_OK


def cmd_train(args, corpus):
    net = classifiers.build(args.arch, corpus[0].vector.size, seed=args.seed)
    log = classifiers.train(net, corpus, seed=args.seed,
                            **_train_kwargs(args))
    return log, net, (f"trained {args.arch} for {len(log)} epochs, "
                      f"final accuracy {log[-1]['accuracy']:.4f}")


def cmd_active(args, corpus):
    net, report = active_mod.active_loop(
        corpus, args.arch, threshold=args.threshold,
        sample_fraction=args.sample_fraction, max_rounds=args.max_rounds,
        seed=args.seed, uncertainty_sampling=args.uncertainty,
        train_kwargs=_train_kwargs(args))
    summary = (f"active run finished: {report[-1]['labeled']} labels used, "
               f"unlabeled accuracy {report[-1]['unlabeled_accuracy']:.4f}")
    return report, net, summary


def cmd_sweep(args, corpus):
    rows = active_mod.train_fraction_sweep(
        corpus, args.arch, args.fractions, seed=args.seed,
        train_kwargs=_train_kwargs(args))
    return rows, None, (f"sweep over {len(rows)} fractions written to "
                        f"{args.out}")


def cmd_cv(args, corpus):
    result = active_mod.cross_validate(corpus, args.arch, args.folds,
                                       seed=args.seed,
                                       train_kwargs=_train_kwargs(args))
    rows = [{"fold": i, "accuracy": acc}
            for i, acc in enumerate(result["fold_accuracies"])]
    rows += [{"fold": key, "accuracy": result[key]} for key in ("mean", "std")]
    return rows, None, f"cv mean {result['mean']:.4f} std {result['std']:.4f}"


def cmd_predict(args, corpus):
    net = nn.load_network(args.params)
    start = time.perf_counter()
    probabilities = classifiers.predict_batch(net, corpus).tolist()
    rate = len(corpus) / (time.perf_counter() - start)
    return ([{"probability": p} for p in probabilities], None,
            f"predicted {len(corpus)} rows, {rate:.0f} rows/s")


def _check_writable(path: str, taken: set) -> None:
    """Raise OSError, creating nothing, if `open(path, "w")` would fail or
    would replace a file whose real path is in `taken`."""
    folder = os.path.dirname(path) or "."
    if os.path.realpath(path) in taken:
        reason = "it is also an input or the other output"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise OSError(f"cannot write {path}: {reason}")


def run_corpus_command(command, args) -> int:
    """Every corpus command's one path: read --corpus and refuse it empty,
    run the command for its rows, network (or None) and summary, write the
    rows to --out, save the network to --params-out if given, print. An
    output path that cannot be written, or that names --corpus, --params or
    the other output, is refused before the command runs."""
    _, corpus = features.read_corpus(args.corpus)
    if not corpus:
        raise ValidationError(f"{args.corpus} holds no instances")
    params_out = getattr(args, "params_out", None)
    taken = {os.path.realpath(path) for path in
             (args.corpus, getattr(args, "params", None)) if path}
    for path in (args.out, params_out):
        if path:
            _check_writable(path, taken)
            taken.add(os.path.realpath(path))
    rows, net, summary = command(args, corpus)
    _write_csv(args.out, rows)
    if params_out:
        nn.save_network(net, params_out)
    print(summary)
    return EXIT_OK


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def _fractions(text: str) -> list[float]:
    fractions = [float(f) for f in text.split(",") if f]
    if not fractions:
        raise argparse.ArgumentTypeError("needs at least one fraction")
    return fractions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aae",
        description="Graph storage tuning estimator: generate labeled "
                    "corpora, train classifiers, and run active-learning "
                    "experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, command=None, training=True):
        # A string default goes through type, so AAE_SEED is checked too.
        p.add_argument("--seed", type=_int_at_least(0),
                       default=os.environ.get("AAE_SEED", "0"))
        p.add_argument("--out", required=True)
        if command:  # a corpus command; gen passes none
            p.add_argument("--corpus", required=True)
            p.set_defaults(func=lambda args: run_corpus_command(command, args))
        if training:
            p.add_argument("--arch", default="scnn",
                           choices=[a.value for a in
                                    classifiers.Architecture])
            p.add_argument("--epochs", type=_int_at_least(1),
                           default=classifiers.DEFAULT_EPOCHS)
            p.add_argument("--batch-size", type=_int_at_least(1),
                           help="rows per SGD step (default: "
                                f"{classifiers.GRU_BATCH_SIZE} for gru, "
                                f"{classifiers.DEFAULT_BATCH_SIZE} for "
                                "scnn and dcnn)")
            p.add_argument("--lr", type=_positive_float,
                           default=classifiers.DEFAULT_LEARNING_RATE,
                           help="learning rate of a "
                                f"{classifiers.DEFAULT_BATCH_SIZE}-row "
                                "batch; a batch of b rows steps at "
                                f"lr * b / {classifiers.DEFAULT_BATCH_SIZE} "
                                "(default: %(default)s)")

    p = sub.add_parser("gen", help="generate an oracle-labeled corpus")
    common(p, training=False)
    p.add_argument("--profile", default="random",
                   choices=graphmodel.profile_names())
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one classifier on a corpus")
    common(p, cmd_train)
    p.add_argument("--params-out", default=None)

    p = sub.add_parser("active", help="run the active-learning loop")
    common(p, cmd_active)
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--sample-fraction", type=float, default=0.1)
    p.add_argument("--max-rounds", type=_int_at_least(1), default=20)
    p.add_argument("--uncertainty", action="store_true",
                   help="sample lowest-confidence points instead of "
                        "uniformly")
    p.add_argument("--params-out", default=None)

    p = sub.add_parser("sweep", help="train-fraction sweep")
    common(p, cmd_sweep)
    p.add_argument("--fractions", type=_fractions, default="0.41,0.49,0.58")

    p = sub.add_parser("cv", help="k-fold cross-validation")
    common(p, cmd_cv)
    p.add_argument("--folds", type=int, default=5)

    p = sub.add_parser("predict", help="score a corpus with a saved network")
    common(p, cmd_predict, training=False)
    p.add_argument("--params", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AAEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
