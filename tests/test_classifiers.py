import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from aae import classifiers
from aae.classifiers import (
    Architecture,
    build,
    predict,
    predict_batch,
    train,
)
from aae.cli import generate_labeled_corpus
from aae.errors import ShapeError, ValidationError
from aae.features import PAD_VALUE, EvaluationInstance
from aae.nn import GRU, Conv1D, conv_lengths, load_network, save_network


def make_instance(rng, length=64, real=44, label=None):
    vector = rng.normal(size=length)
    vector[real:] = -1.0
    return EvaluationInstance(vector=vector, label=label)


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
        assert conv_lengths(build("scnn", 256).layers, 256) == \
            [254, 252, 84, 82, 80, 26]

    def test_dcnn_layer_lengths(self):
        assert conv_lengths(build("dcnn", 256).layers, 256) == \
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
        with pytest.raises(ShapeError) as exc:
            build("gru", 100)
        assert "100" in str(exc.value) and "8" in str(exc.value)

    def test_too_small_input_names_layer(self):
        with pytest.raises(ShapeError) as exc:
            build("scnn", 8)
        assert "scnn layer" in str(exc.value)

    @pytest.mark.parametrize("arch", ["scnn", "dcnn"])
    def test_cut_is_the_shortest_covering_prefix(self, arch):
        for length in (256, 320):
            net = build(arch, length)

            def positions(n):
                try:
                    return conv_lengths(net.layers, n)[-1]
                except ShapeError:
                    return 0

            out_len = positions(length)
            shortest = {p: next(n for n in range(1, length + 1)
                                if positions(n) >= p)
                        for p in range(1, out_len + 1)}
            for p in range(1, out_len + 1):
                # Output position j reads from shortest[j + 1] - shortest[1]
                # on, so exactly p positions see one of `real` columns.
                real = shortest[p] - shortest[1] + 1
                for batch in (1, 3):
                    x = np.full((batch, length), PAD_VALUE)
                    x[0, :real] = 0.5
                    x[1:, :real // 2] = 0.5
                    net.forward(x)
                    want = (batch + (p < out_len), 1, shortest[p])
                    if want[0] * want[2] >= batch * length:
                        want = (batch, 1, length)
                    assert net.layers[0]._cache[0].shape == want, (length, p)

    def test_unknown_arch(self):
        with pytest.raises(ValidationError):
            build("mlp", 64)

    def test_forward_shapes_match_declared(self):
        rng = np.random.default_rng(0)
        for arch in Architecture:
            net = build(arch, 128, seed=1)
            probs = net.forward(rng.normal(size=(3, 128)))
            assert probs.shape == (3,)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_empty_batch_gives_empty_output(self, arch):
        net = build(arch, 256)
        assert net.forward(np.zeros((0, 256))).shape == (0,)

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
        x[:, round(real * input_len):] = -1.0
        assert np.array_equal(back.forward(x), net.forward(x))


class TestTrain:
    def test_memorizes_single_instance(self):
        rng = np.random.default_rng(4)
        inst = make_instance(rng, label=1)
        net = build("scnn", 64, seed=0)
        log = train(net, [inst] * 4, epochs=50, seed=0)
        assert log[-1]["accuracy"] == 1.0
        assert int(predict(net, inst) >= 0.5) == 1

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

    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(0, 1), min_size=1, max_size=300),
           seed=st.integers(0, 2**32 - 1))
    def test_stratified_order_spreads_each_label(self, labels, seed):
        y = np.array(labels, dtype=np.float64)
        order = classifiers._stratified_order(np.random.default_rng(seed), y)
        assert sorted(order) == list(range(y.size))
        # Every prefix holds the corpus's share of 1-labels to within a row.
        ones = np.cumsum(y[order])
        share = np.arange(1, y.size + 1) * y.mean()
        assert np.all(np.abs(ones - share) <= 1 + 1e-9)

    @pytest.mark.parametrize("arch", ["scnn", "dcnn"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_short_runs_stay_below_the_first_loss(self, arch, seed):
        # Two-epoch runs that continue one network on 96 rows, as a
        # benchmark unit does: each run's last epoch loss stays below the
        # first run's first. With plain shuffles, the swing of the head's
        # bias between batches put a later run above it for these seeds.
        _, corpus = generate_labeled_corpus("freebase-small", 96, seed)
        lr = {"scnn": 0.02, "dcnn": 0.03}[arch]
        net = build(arch, corpus[0].vector.size, seed=seed)
        first = None
        for run in range(8):
            log = train(net, corpus, epochs=2, learning_rate=lr,
                        seed=seed * 1000 + run)
            first = log[0]["loss"] if first is None else first
            assert log[-1]["loss"] < first, run

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
