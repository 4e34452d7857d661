import numpy as np
import pytest

from aae import active
from aae.active import active_loop, cross_validate, evaluate, \
    train_fraction_sweep
from aae.classifiers import build
from aae.errors import ValidationError
from aae.features import EvaluationInstance

from test_classifiers import make_instance, separable_corpus

FAST = {"epochs": 60, "learning_rate": 0.05}


class TestEvaluate:
    def test_all_correct(self):
        corpus = separable_corpus(n=60)
        net = build("gru", 96, seed=0)
        from aae.classifiers import train
        train(net, corpus, epochs=100, learning_rate=0.05, seed=0)
        assert evaluate(net, corpus) == 1.0

    def test_single_wrong_instance(self):
        rng = np.random.default_rng(0)
        net = build("scnn", 64, seed=0)
        inst = make_instance(rng, 64, label=None)
        from aae.classifiers import predict
        inst.label = 1 - int(predict(net, inst) >= 0.5)
        assert evaluate(net, [inst]) == 0.0

    def test_constant_model_near_half_on_balanced_set(self):
        rng = np.random.default_rng(1)
        net = build("scnn", 64, seed=0)
        head = net.layers[-1]
        head.W = np.zeros_like(head.W)
        head.b = np.zeros_like(head.b)  # predicts 0.5 -> hard label 1
        corpus = [make_instance(rng, 64, label=i % 2) for i in range(1000)]
        assert evaluate(net, corpus) == pytest.approx(0.5, abs=0.1)

    def test_empty_set_rejected(self):
        net = build("scnn", 64, seed=0)
        with pytest.raises(ValidationError):
            evaluate(net, [])


class TestActiveLoop:
    def test_full_fraction_degenerates_to_supervised(self):
        corpus = separable_corpus(n=50)
        net, report = active_loop(corpus, "gru", threshold=0.9,
                                  sample_fraction=1.0, seed=0,
                                  train_kwargs=FAST)
        assert len(report) == 1
        assert report[0]["labeled"] == 50
        assert report[0]["unlabeled"] == 0

    def test_no_retirement_when_confidence_below_threshold(self):
        # sigmoid confidence is strictly below 1, so T=1 never retires
        # and sampling alone drives progress
        corpus = separable_corpus(n=50)
        net, report = active_loop(
            corpus, "scnn", threshold=1.0, sample_fraction=0.2,
            max_rounds=2, seed=0,
            train_kwargs={"epochs": 1, "learning_rate": 0.0})
        assert report[0]["retired"] == 0
        assert report[0]["labeled"] == 10
        assert report[1]["labeled"] == 20

    def test_terminates_within_max_rounds(self):
        corpus = separable_corpus(n=60)
        net, report = active_loop(corpus, "gru", threshold=1.0,
                                  sample_fraction=0.1, max_rounds=4,
                                  seed=0, train_kwargs=FAST)
        assert len(report) <= 4

    def test_label_accounting(self):
        corpus = separable_corpus(n=80)
        net, report = active_loop(corpus, "gru", threshold=0.9,
                                  sample_fraction=0.25, max_rounds=10,
                                  seed=1, train_kwargs=FAST)
        for row in report:
            assert row["labeled"] <= len(corpus)
            assert row["labeled"] + row["unlabeled"] + row["retired"] == \
                len(corpus)

    def test_saves_labels_on_learnable_pool(self):
        corpus = separable_corpus(n=300)
        net, report = active_loop(corpus, "gru", threshold=0.9,
                                  sample_fraction=0.1, max_rounds=20,
                                  seed=0, train_kwargs=FAST)
        assert report[-1]["labeled"] < len(corpus)
        assert evaluate(net, corpus) >= 0.85

    def test_invalid_threshold(self):
        corpus = separable_corpus(n=10)
        with pytest.raises(ValidationError):
            active_loop(corpus, "gru", threshold=0.4, sample_fraction=0.5)
        with pytest.raises(ValidationError):
            active_loop(corpus, "gru", threshold=0.9, sample_fraction=0.0)

    def test_uncertainty_mode_runs(self):
        corpus = separable_corpus(n=60)
        net, report = active_loop(corpus, "gru", threshold=0.9,
                                  sample_fraction=0.3, max_rounds=3,
                                  seed=0, uncertainty_sampling=True,
                                  train_kwargs=FAST)
        assert report[-1]["labeled"] >= 18


class TestCrossValidate:
    def test_memorizable_corpus_perfect_folds(self):
        base = separable_corpus(n=30)
        corpus = base * 5  # duplicates guarantee train/test overlap
        result = cross_validate(corpus, "gru", k=5, seed=0,
                                train_kwargs=FAST)
        assert all(acc == 1.0 for acc in result["fold_accuracies"])
        assert result["std"] == 0.0

    def test_fold_sizes_balanced(self):
        corpus = separable_corpus(n=23)
        result = cross_validate(corpus, "gru", k=5, seed=0,
                                train_kwargs={"epochs": 1})
        assert len(result["fold_accuracies"]) == 5

    def test_corpus_smaller_than_k(self):
        corpus = separable_corpus(n=3)
        with pytest.raises(ValidationError):
            cross_validate(corpus, "gru", k=5)

    def test_k_below_two(self):
        corpus = separable_corpus(n=10)
        with pytest.raises(ValidationError):
            cross_validate(corpus, "gru", k=1)


class TestTrainFractionSweep:
    def test_three_fraction_report(self):
        corpus = separable_corpus(n=100)
        rows = train_fraction_sweep(corpus, "gru", [0.41, 0.49, 0.58],
                                    seed=0, train_kwargs=FAST)
        assert [r["fraction"] for r in rows] == [0.41, 0.49, 0.58]
        for row in rows:
            assert 0.0 <= row["train_accuracy"] <= 1.0
            assert 0.0 <= row["test_accuracy"] <= 1.0

    def test_monotone_trend_soft(self):
        corpus = separable_corpus(n=200)
        rows = train_fraction_sweep(corpus, "gru", [0.1, 0.9], seed=0,
                                    train_kwargs=FAST)
        assert rows[1]["test_accuracy"] >= rows[0]["test_accuracy"] - 0.05

    def test_identical_seed_identical_table(self):
        corpus = separable_corpus(n=60)
        a = train_fraction_sweep(corpus, "gru", [0.5], seed=4,
                                 train_kwargs=FAST)
        b = train_fraction_sweep(corpus, "gru", [0.5], seed=4,
                                 train_kwargs=FAST)
        assert a == b

    def test_degenerate_fraction_rejected(self):
        corpus = separable_corpus(n=10)
        with pytest.raises(ValidationError):
            train_fraction_sweep(corpus, "gru", [0.001], seed=0)
        with pytest.raises(ValidationError):
            train_fraction_sweep(corpus, "gru", [1.5], seed=0)

    @pytest.mark.parametrize("fractions", [[0.5, 1.5], [0.5, 0.001]])
    def test_every_fraction_checked_before_training(self, fractions,
                                                     monkeypatch):
        calls = []
        train = active.train

        def counted(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(active, "train", counted)
        with pytest.raises(ValidationError):
            train_fraction_sweep(separable_corpus(n=10), "gru", fractions,
                                 seed=0)
        assert len(calls) == 0

    def test_duplicate_fractions_give_equal_rows(self):
        corpus = separable_corpus(n=60)
        rows = train_fraction_sweep(corpus, "gru", [0.5, 0.5], seed=4,
                                    train_kwargs=FAST)
        assert len(rows) == 2
        assert rows[0] == rows[1]
