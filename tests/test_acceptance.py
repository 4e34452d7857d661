"""End-to-end acceptance suite.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them. The heavyweight corpus and trained models are shared through
module-scoped fixtures.
"""
import math
import time

import numpy as np
import pytest

from aae import active, graphmodel, oracle
from aae.cli import generate_labeled_corpus, main as cli_main
from aae.classifiers import Architecture, build, predict, train
from aae.features import PAD_VALUE, StorageConfig
from aae.graphmodel import OperationKind, WorkloadProfile
from aae.nn import Conv1D, MaxPool1D, conv_lengths

from test_nn import check_gradients, small_conv_network, small_gru_network

CORPUS_PROFILE = "freebase-small"
CORPUS_SEED = 42
CORPUS_SIZE = 2000
TRAIN_SPLIT = 1200

# Per-architecture SGD settings used throughout the suite.
TRAIN_SETTINGS = {
    Architecture.SCNN: {"epochs": 200, "learning_rate": 0.02},
    Architecture.DCNN: {"epochs": 200, "learning_rate": 0.03},
    Architecture.GRU: {"epochs": 200, "learning_rate": 0.01},
}


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    _, instances = generate_labeled_corpus(CORPUS_PROFILE, CORPUS_SIZE,
                                           CORPUS_SEED)
    return instances


@pytest.fixture(scope="module")
def split(corpus):
    return corpus[:TRAIN_SPLIT], corpus[TRAIN_SPLIT:]


@pytest.fixture(scope="module")
def trained_models(split):
    train_set, _ = split
    models = {}
    for arch in Architecture:
        net = build(arch, 256, seed=0)
        train(net, train_set, seed=0, **TRAIN_SETTINGS[arch])
        models[arch] = net
    return models


def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        conv_net = small_conv_network(seed=seed)
        x = rng.normal(size=(2, 16))
        y = rng.integers(0, 2, size=2).astype(float)
        worst = max(worst, check_gradients(conv_net, x, y))

        gru_net = small_gru_network(seed=seed)
        xs = rng.normal(size=(2, 5))
        xs[0, 3:] = PAD_VALUE
        worst = max(worst, check_gradients(gru_net, xs, y))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-4 and elapsed < 60,
           f"worst relative error {worst:.2e} over 20 seeds per layer "
           f"chain in {elapsed:.1f}s")


def test_criterion_2_architecture_shapes():
    rng = np.random.default_rng(0)
    expected = {
        Architecture.SCNN: [254, 252, 84, 82, 80, 26],
        Architecture.DCNN: [254, 252, 84, 82, 80, 26, 24, 22, 7],
    }
    ok = True
    for arch, lengths in expected.items():
        net = build(arch, 256, seed=0)
        ok &= conv_lengths(net.layers, 256) == lengths
        # confirm with an actual forward pass through each layer
        out = rng.normal(size=(1, 1, 256))
        observed = []
        for layer in net.layers:
            if isinstance(layer, (Conv1D, MaxPool1D)):
                out = layer.forward(out)
                observed.append(out.shape[2])
        ok &= observed == lengths
    scnn = build(Architecture.SCNN, 256, seed=0)
    dcnn = build(Architecture.DCNN, 256, seed=0)
    ok &= scnn.layers[-1].in_features == 26 * 16
    ok &= dcnn.layers[-1].in_features == 7 * 16
    report(2, ok, "conv/pool output lengths verified by forward passes; "
                  "dense widths 416 and 112")


def test_criterion_3_oracle_properties():
    rng = np.random.default_rng(3)
    checked = 0
    ok = True
    for i in range(100):
        g = graphmodel.generate_graph_stats("random", i)
        p = g.num_property_types
        n = 1024
        counts = rng.multinomial(n, np.full(19, 1 / 19))
        rates = tuple(float(c) / n for c in counts)
        freq = tuple(float(f) for f in rng.random(p))
        w = WorkloadProfile(op_rates=rates, property_freq=freq,
                            total_queries=n)
        bits_a = tuple(int(b) for b in rng.integers(0, 2, p))
        bits_b = tuple(int(b) for b in rng.integers(0, 2, p))
        a = StorageConfig("native-graph", bits_a)
        b = StorageConfig("columnar", bits_b)

        # antisymmetry and tie behavior
        ok &= not (oracle.label(g, w, a, b) == 1
                   and oracle.label(g, w, b, a) == 1)
        ok &= oracle.label(g, w, a, a) == 0

        # brute-force per-query expansion, exact
        brute = 0.0
        for kind in OperationKind:
            per_query = [oracle.op_cost(kind, g, a, freq)
                         for _ in range(counts[kind.value])]
            brute += math.fsum(per_query)
        ok &= oracle.workload_cost(g, w, a) == brute

        # index monotonicity with zero create rate
        mono_rates = list(rates)
        for kind in graphmodel.CATEGORY_KINDS["create"]:
            mono_rates[kind.value] = 0.0
        total = sum(mono_rates)
        mono_rates = tuple(r / total for r in mono_rates)
        w2 = WorkloadProfile(op_rates=mono_rates, property_freq=freq,
                             total_queries=n)
        if 0 in bits_a:
            more = list(bits_a)
            more[more.index(0)] = 1
            ok &= oracle.workload_cost(
                g, w2, StorageConfig("native-graph", tuple(more))
            ) <= oracle.workload_cost(g, w2, a)
        checked += 1
    report(3, ok and checked == 100,
           f"antisymmetry, ties, monotonicity, and exact brute-force "
           f"equivalence on {checked} random instances")


def test_criterion_4_learnability(split, trained_models):
    _, test_set = split
    start = time.perf_counter()
    accuracies = {}
    ok = True
    for arch in Architecture:
        acc = active.evaluate(trained_models[arch], test_set)
        accuracies[arch.value] = acc
        ok &= acc >= 0.85
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k}={v:.3f}" for k, v in accuracies.items())
    report(4, ok, f"test accuracy on 40% held-out split: {detail} "
                  f"(evaluation {elapsed:.0f}s; training time shared "
                  f"across criteria)")


def test_criterion_5_active_label_savings(corpus, tmp_path):
    settings = TRAIN_SETTINGS[Architecture.GRU]
    baseline = build(Architecture.GRU, 256, seed=0)
    train(baseline, corpus, seed=0, **settings)
    baseline_acc = active.evaluate(baseline, corpus)

    net, rounds = active.active_loop(
        corpus, Architecture.GRU, threshold=0.9, sample_fraction=0.1,
        max_rounds=20, seed=0, train_kwargs=settings)
    active_acc = active.evaluate(net, corpus)
    labels_used = rounds[-1]["labeled"]

    sweep = active.train_fraction_sweep(
        corpus, Architecture.GRU, [0.41, 0.49, 0.58], seed=0,
        train_kwargs=settings)
    sweep_path = tmp_path / "sweep.csv"
    with open(sweep_path, "w") as fh:
        fh.write("fraction,train_accuracy,test_accuracy\n")
        for row in sweep:
            fh.write(f"{row['fraction']},{row['train_accuracy']:.4f},"
                     f"{row['test_accuracy']:.4f}\n")

    ok = (labels_used <= 0.6 * len(corpus)
          and active_acc >= baseline_acc - 0.05)
    sweep_text = "; ".join(
        f"{row['fraction']:.2f}->"
        f"L {row['train_accuracy']:.3f}/U {row['test_accuracy']:.3f}"
        for row in sweep)
    report(5, ok,
           f"active {active_acc:.3f} vs baseline {baseline_acc:.3f} using "
           f"{labels_used}/{len(corpus)} labels "
           f"({labels_used / len(corpus):.0%}); sweep {sweep_text}")


def test_criterion_6_prediction_latency():
    _, instances = generate_labeled_corpus("ldbc", 50, 5)
    means = {}
    ok = True
    for arch in Architecture:
        net = build(arch, 320, seed=0)
        predict(net, instances[0])  # warm up
        start = time.perf_counter()
        for inst in instances:
            predict(net, inst)
        mean = (time.perf_counter() - start) / len(instances)
        means[arch.value] = mean
        ok &= mean < 0.05
    detail = ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in means.items())
    report(6, ok, f"mean single-instance latency over 50 instances at "
                  f"input length 320: {detail}")


def test_criterion_7_cross_validation(corpus):
    result = active.cross_validate(
        corpus, Architecture.GRU, k=5, seed=0,
        train_kwargs=TRAIN_SETTINGS[Architecture.GRU])
    ok = result["mean"] >= 0.80 and result["std"] <= 0.10
    folds = ", ".join(f"{a:.3f}" for a in result["fold_accuracies"])
    report(7, ok, f"5-fold accuracies [{folds}], "
                  f"mean {result['mean']:.3f}, std {result['std']:.3f}")


def test_criterion_8_determinism(tmp_path):
    gen_files = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert cli_main(["gen", "--profile", "random", "--count", "200",
                         "--seed", "11", "--out", str(out)]) == 0
        gen_files.append(out.read_bytes())

    logs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(["train", "--corpus", str(tmp_path / "a.jsonl"),
                         "--arch", "gru", "--epochs", "10", "--seed", "2",
                         "--out", str(out)]) == 0
        logs.append(out.read_bytes())

    ok = gen_files[0] == gen_files[1] and logs[0] == logs[1]
    report(8, ok, "seeded corpus generation and training logs are "
                  "byte-identical across reruns")
