import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from aae import classifiers
from aae.classifiers import (
    Architecture,
    build,
    conv_output_lengths,
    hard_label,
    predict,
    predict_batch,
    train,
)
from aae.errors import ShapeError, ValidationError
from aae.features import EvaluationInstance
from aae.nn import GRU, Conv1D, load_network, save_network


def make_instance(rng, length=64, real=44, label=None):
    vector = rng.normal(size=length)
    vector[real:] = -1.0
    mask = np.zeros(length, dtype=np.int8)
    mask[:real] = 1
    return EvaluationInstance(vector=vector, mask=mask, label=label)


def separable_corpus(n=200, length=96, real=76, pivot=70, seed=0):
    """Label is the sign of one feature; separable by construction."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        label = int(rng.random() < 0.5)
        inst = make_instance(rng, length, real, label)
        inst.vector[pivot] = 5.0 if label else -5.0
        out.append(inst)
    return out


class TestBuild:
    def test_scnn_layer_lengths(self):
        assert conv_output_lengths("scnn", 256) == [254, 252, 84, 82, 80, 26]

    def test_dcnn_layer_lengths(self):
        assert conv_output_lengths("dcnn", 256) == \
            [254, 252, 84, 82, 80, 26, 24, 22, 7]

    def test_scnn_dense_width(self):
        net = build("scnn", 256, seed=0)
        assert net.layers[-1].in_features == 26 * 16

    def test_dcnn_dense_width(self):
        net = build("dcnn", 256, seed=0)
        assert net.layers[-1].in_features == 7 * 16

    def test_conv_layer_counts(self):
        scnn = build("scnn", 256)
        dcnn = build("dcnn", 256)
        assert sum(isinstance(l, Conv1D) for l in scnn.layers) == 4
        assert sum(isinstance(l, Conv1D) for l in dcnn.layers) == 6

    def test_first_conv_is_linear(self):
        net = build("scnn", 256)
        convs = [l for l in net.layers if isinstance(l, Conv1D)]
        assert convs[0].activation == "linear"
        assert all(c.activation == "tanh" for c in convs[1:])

    def test_gru_architecture(self):
        net = build("gru", 256)
        assert isinstance(net.layers[0], GRU)
        assert net.layers[0].input_size == classifiers.GRU_STEP

    def test_gru_step_must_divide_input_length(self):
        with pytest.raises(ValidationError) as exc:
            build("gru", 100)
        assert "100" in str(exc.value) and "8" in str(exc.value)

    def test_too_small_input_names_layer(self):
        with pytest.raises(ShapeError) as exc:
            build("scnn", 8)
        assert "scnn layer" in str(exc.value)

    def test_unknown_arch(self):
        with pytest.raises(ValidationError):
            build("mlp", 64)

    def test_forward_shapes_match_declared(self):
        rng = np.random.default_rng(0)
        for arch in Architecture:
            net = build(arch, 128, seed=1)
            x = rng.normal(size=(3, 128))
            mask = np.ones((3, 128))
            probs = net.forward(x, mask)
            assert probs.shape == (3,)

    @settings(max_examples=30, deadline=None)
    @given(arch=st.sampled_from(list(Architecture)),
           input_len=st.integers(1, 320), seed=st.integers(0, 2**16),
           real=st.floats(0.0, 1.0))
    def test_save_load_roundtrip(self, tmp_path_factory, arch, input_len,
                                 seed, real):
        try:
            net = build(arch, input_len, seed=seed)
        except (ShapeError, ValidationError):
            reject()
        path = tmp_path_factory.mktemp("net") / "net.txt"
        save_network(net, path)
        back = load_network(path)
        for (i, name, va), (j, name_b, vb) in zip(net.parameter_tensors(),
                                                  back.parameter_tensors(),
                                                  strict=True):
            assert (i, name) == (j, name_b)
            assert np.array_equal(va, vb)
        x = np.random.default_rng(seed).normal(size=(2, input_len))
        mask = np.zeros((2, input_len))
        mask[:, :round(real * input_len)] = 1
        assert np.array_equal(back.forward(x, mask), net.forward(x, mask))


class TestTrain:
    def test_memorizes_single_instance(self):
        rng = np.random.default_rng(4)
        inst = make_instance(rng, label=1)
        net = build("scnn", 64, seed=0)
        log = train(net, [inst] * 4, epochs=50, seed=0)
        assert log[-1]["accuracy"] == 1.0
        assert hard_label(predict(net, inst)) == 1

    def test_seeded_runs_identical(self):
        corpus = separable_corpus(n=40)
        logs = []
        for _ in range(2):
            net = build("gru", 96, seed=3)
            logs.append(train(net, corpus, epochs=10, seed=3))
        assert logs[0] == logs[1]

    def test_empty_corpus_rejected(self):
        net = build("scnn", 64)
        with pytest.raises(ValidationError):
            train(net, [])

    def test_mixed_lengths_rejected(self):
        rng = np.random.default_rng(0)
        net = build("scnn", 64)
        bad = [make_instance(rng, 64, label=0),
               make_instance(rng, 32, label=1)]
        with pytest.raises(ValidationError):
            train(net, bad)

    def test_unlabeled_instances_rejected(self):
        rng = np.random.default_rng(0)
        net = build("scnn", 64)
        with pytest.raises(ValidationError):
            train(net, [make_instance(rng, 64)])

    def test_loss_non_increasing_on_single_instance(self):
        rng = np.random.default_rng(8)
        inst = make_instance(rng, label=0)
        net = build("scnn", 64, seed=2)
        log = train(net, [inst], epochs=30, batch_size=1, seed=0)
        losses = [row["loss"] for row in log]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("arch", ["scnn", "dcnn", "gru"])
    def test_separable_corpus_learned(self, arch):
        corpus = separable_corpus()
        net = build(arch, 96, seed=0)
        log = train(net, corpus, epochs=100, seed=0, learning_rate=0.05)
        assert log[-1]["accuracy"] >= 0.95


class TestPredict:
    def test_zeroed_head_gives_half(self):
        rng = np.random.default_rng(0)
        net = build("scnn", 64, seed=0)
        head = net.layers[-1]
        head.W = np.zeros_like(head.W)
        head.b = np.zeros_like(head.b)
        for _ in range(3):
            assert predict(net, make_instance(rng, 64)) == 0.5

    def test_prediction_pure_function(self):
        rng = np.random.default_rng(1)
        net = build("gru", 64, seed=5)
        inst = make_instance(rng, 64)
        assert predict(net, inst) == predict(net, inst)

    def test_length_mismatch(self):
        rng = np.random.default_rng(0)
        net = build("scnn", 64)
        with pytest.raises(ShapeError):
            predict(net, make_instance(rng, 32))

    def test_probability_in_open_interval(self):
        rng = np.random.default_rng(2)
        for arch in Architecture:
            net = build(arch, 96, seed=2)
            p = predict(net, make_instance(rng, 96, real=76))
            assert 0.0 < p < 1.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        for arch in Architecture:
            net = build(arch, 320, seed=1)
            # 300 rows cross predict_batch's 256-row chunk.
            for count in (64, 300):
                insts = [make_instance(rng, 320, real=277)
                         for _ in range(count)]
                batch = predict_batch(net, insts)
                singles = np.array([predict(net, inst) for inst in insts])
                assert np.abs(batch - singles).max() <= 1e-12, (arch, count)
