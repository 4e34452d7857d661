import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from aae.errors import ParseError, ShapeError, ValidationError
from aae.nn import (
    GRU,
    Conv1D,
    Dense,
    Flatten,
    MaxPool1D,
    Network,
    load_network,
    save_network,
    sigmoid,
)
from conftest import numeric_gradient


def init_layer(layer, seed=0):
    layer.init(np.random.default_rng(seed))
    return layer


class TestConv1D:
    def test_output_length(self):
        assert Conv1D(16, 3, 1).output_length(64) == 62

    def test_too_short_input(self):
        conv = Conv1D(4, 5, 1)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 1, 3)))

    def test_zero_weights_tanh_gives_zero(self):
        conv = Conv1D(4, 3, 1, activation="tanh")
        out = conv.forward(np.random.default_rng(0).normal(size=(2, 1, 10)))
        assert np.all(out == 0.0)

    def test_matches_triple_loop_reference(self):
        rng = np.random.default_rng(3)
        conv = init_layer(Conv1D(1, 3, 1, activation="linear"), seed=3)
        x = rng.normal(size=(1, 1, 8))
        out = conv.forward(x)
        w = conv.W[0, 0]
        for j in range(6):
            expected = sum(w[i] * x[0, 0, j + i] for i in range(3)) + \
                conv.b[0]
            assert out[0, 0, j] == pytest.approx(expected)

    def test_multichannel_reference(self):
        rng = np.random.default_rng(5)
        conv = init_layer(Conv1D(2, 3, 4), seed=5)
        x = rng.normal(size=(2, 4, 9))
        out = conv.forward(x)
        b, f, j = 1, 1, 4
        expected = conv.b[f]
        for c in range(4):
            for i in range(3):
                expected += conv.W[f, c, i] * x[b, c, j + i]
        assert out[b, f, j] == pytest.approx(expected)

    @settings(max_examples=60, deadline=None)
    @given(in_channels=st.sampled_from([1, 3, 16]),
           kernel_size=st.sampled_from([1, 2, 3, 5]),
           extra=st.integers(0, 40), activation=st.sampled_from(
               ["linear", "tanh"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_einsum_forward_and_loop_gradients(
            self, in_channels, kernel_size, extra, activation, seed):
        length = min(kernel_size + extra, 40)
        rng = np.random.default_rng(seed)
        conv = init_layer(Conv1D(4, kernel_size, in_channels, activation),
                          seed=seed)
        conv.b = rng.normal(size=4)
        x = rng.normal(size=(2, in_channels, length))
        y = conv.forward(x)

        # Reference forward pass: einsum over the sliding windows of x.
        windows = sliding_window_view(x, kernel_size, axis=2)
        z = np.einsum("fck,bclk->bfl", conv.W, windows) + conv.b[:, None]
        expected = np.tanh(z) if activation == "tanh" else z
        assert np.abs(y - expected).max() <= 1e-12

        dy = rng.normal(size=y.shape)
        dx = conv.backward(dy)
        dz = dy * (1.0 - expected ** 2) if activation == "tanh" else dy
        out_len = length - kernel_size + 1
        w = conv.W
        dW = np.zeros_like(w)
        dx_ref = np.zeros_like(x)
        for b in range(2):
            for f in range(4):
                for c in range(in_channels):
                    for k in range(kernel_size):
                        for j in range(out_len):
                            dW[f, c, k] += dz[b, f, j] * x[b, c, j + k]
                            dx_ref[b, c, j + k] += w[f, c, k] * dz[b, f, j]
        assert np.abs(conv.dW - dW).max() <= 1e-12
        assert np.abs(conv.db - dz.sum(axis=(0, 2))).max() <= 1e-12
        assert np.abs(dx - dx_ref).max() <= 1e-12


class TestMaxPool1D:
    def test_output_length_drops_remainder(self):
        assert MaxPool1D(3).output_length(62) == 20

    def test_constant_input_ties_to_first_index(self):
        pool = MaxPool1D(3)
        out = pool.forward(np.ones((1, 1, 6)))
        assert out.tolist() == [[[1.0, 1.0]]]
        _, argmax = pool._cache
        assert np.all(argmax == 0)

    def test_matches_brute_force_max(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 10))
        out = MaxPool1D(3).forward(x)
        for b in range(2):
            for c in range(3):
                for j in range(3):
                    assert out[b, c, j] == x[b, c, 3 * j:3 * j + 3].max()

    def test_too_short_input(self):
        with pytest.raises(ShapeError):
            MaxPool1D(4).forward(np.zeros((1, 1, 3)))

    def test_backward_routes_to_first_max_and_zeroes_remainder(self):
        rng = np.random.default_rng(4)
        # Few distinct values, so blocks hold ties; 11 = 3 * 3 + 2 leaves
        # two remainder positions per row.
        x = rng.integers(0, 3, size=(2, 3, 11)).astype(float)
        pool = MaxPool1D(3)
        dy = rng.normal(size=pool.forward(x).shape)
        dx = pool.backward(dy)
        expected = np.zeros_like(x)
        for b in range(2):
            for c in range(3):
                for j in range(3):
                    block = list(x[b, c, 3 * j:3 * j + 3])
                    expected[b, c, 3 * j + block.index(max(block))] = \
                        dy[b, c, j]
        assert np.array_equal(dx, expected)
        assert np.all(dx[:, :, 9:] == 0.0)


class TestDense:
    def test_zero_params_sigmoid_gives_half(self):
        dense = Dense(1, 5, activation="sigmoid")
        out = dense.forward(np.random.default_rng(0).normal(size=(3, 5)))
        assert np.all(out == 0.5)

    def test_identity_weights_linear(self):
        dense = Dense(4, 4, activation="linear")
        dense.W = np.eye(4)
        x = np.random.default_rng(0).normal(size=(2, 4))
        assert dense.forward(x) == pytest.approx(x)

    def test_matches_dot_product(self):
        rng = np.random.default_rng(2)
        dense = init_layer(Dense(3, 6), seed=2)
        x = rng.normal(size=(1, 6))
        out = dense.forward(x)
        for u in range(3):
            assert out[0, u] == pytest.approx(
                float(np.dot(dense.W[u], x[0]) + dense.b[u]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Dense(1, 5).forward(np.zeros((2, 4)))


class TestGRU:
    def test_zero_weights_keep_zero_state(self):
        gru = GRU(3)
        x = np.random.default_rng(0).normal(size=(2, 6, 1))
        out = gru.forward(x, np.ones((2, 6)))
        assert np.all(out == 0.0)

    def test_all_masked_returns_initial_state(self):
        gru = init_layer(GRU(3))
        x = np.random.default_rng(0).normal(size=(1, 4, 1))
        out = gru.forward(x, np.zeros((1, 4)))
        assert np.all(out == 0.0)

    def test_matches_stepwise_recurrence(self):
        rng = np.random.default_rng(9)
        gru = init_layer(GRU(2), seed=9)
        x = rng.normal(size=(1, 3, 1))
        out = gru.forward(x, np.ones((1, 3)))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = np.zeros(2)
        for t in range(3):
            cat = np.concatenate([h, x[0, t]])
            z = sig(gru.Wz @ cat + gru.bz)
            r = sig(gru.Wr @ cat + gru.br)
            cat_h = np.concatenate([r * h, x[0, t]])
            h_cand = np.tanh(gru.Wh @ cat_h + gru.bh)
            h = (1 - z) * h + z * h_cand
        assert out[0] == pytest.approx(h)

    def test_masked_steps_copy_state(self):
        gru = init_layer(GRU(4), seed=1)
        x = np.random.default_rng(2).normal(size=(1, 8, 1))
        mask_short = np.zeros((1, 8))
        mask_short[0, :5] = 1
        padded = gru.forward(x, mask_short)
        trimmed = gru.forward(x[:, :5], np.ones((1, 5)))
        assert padded == pytest.approx(trimmed)

    def test_non_prefix_mask_rejected(self):
        gru = init_layer(GRU(2))
        mask = np.array([[1.0, 0.0, 1.0]])
        with pytest.raises(ValidationError):
            gru.forward(np.zeros((1, 3, 1)), mask)

    def test_vector_timesteps(self):
        gru = init_layer(GRU(3, input_size=4), seed=4)
        x = np.random.default_rng(0).normal(size=(2, 5, 4))
        out = gru.forward(x, np.ones((2, 5)))
        assert out.shape == (2, 3)

    def test_network_input_not_multiple_of_step(self):
        net = small_gru_network(length=10, step=4)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 10)), np.ones((1, 10)))


def small_conv_network(seed=0, length=16):
    layers = [
        Conv1D(3, 3, 1, activation="linear"),
        Conv1D(3, 3, 3, activation="tanh"),
        MaxPool1D(2),
        Flatten(),
    ]
    width = length
    for layer in layers[:-1]:
        width = layer.output_length(width)
    layers.append(Dense(1, 3 * width, activation="sigmoid"))
    net = Network(layers, arch="test-conv", input_len=length, seed=seed)
    net.initialize()
    return net


def small_gru_network(seed=0, length=5, hidden=4, step=1):
    net = Network([GRU(hidden, input_size=step),
                   Dense(1, hidden, activation="sigmoid")],
                  arch="test-gru", input_len=length, seed=seed)
    net.initialize()
    return net


def check_gradients(net, x, mask, y, tol=1e-4):
    net.loss_and_backward(x, mask, y)
    analytic = {(i, name): grads.copy()
                for i, layer in enumerate(net.layers)
                for name, _, grads in layer.params()}

    def loss_only():
        probs = net.forward(x, mask)
        z = net.layers[-1].preactivation[:, 0]
        return float((np.logaddexp(0.0, z) - y * z).mean())

    worst = 0.0
    for i, layer in enumerate(net.layers):
        for name, value, _ in layer.params():
            numeric = numeric_gradient(loss_only, value)
            rel = np.abs(analytic[(i, name)] - numeric) / \
                np.maximum(1.0, np.abs(analytic[(i, name)]))
            worst = max(worst, float(rel.max()))
    assert worst < tol
    return worst


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_conv_network_gradients(self, seed):
        rng = np.random.default_rng(seed)
        net = small_conv_network(seed=seed)
        x = rng.normal(size=(2, 16))
        y = rng.integers(0, 2, size=2).astype(float)
        check_gradients(net, x, None, y)

    @pytest.mark.parametrize("seed", range(5))
    def test_gru_network_gradients(self, seed):
        rng = np.random.default_rng(seed + 100)
        net = small_gru_network(seed=seed)
        x = rng.normal(size=(2, 5))
        mask = np.ones((2, 5))
        mask[0, 3:] = 0
        y = rng.integers(0, 2, size=2).astype(float)
        check_gradients(net, x, mask, y)

        # Vector timesteps, as the shipped GRU runs them: Network.forward
        # chunks a length-20 input into 5 steps of 4 scalars.
        net = small_gru_network(seed=seed, length=20, step=4)
        x = rng.normal(size=(2, 20))
        mask = np.ones((2, 20))
        mask[0, 10:] = 0
        check_gradients(net, x, mask, y)

    def test_zero_logit_head_gradient(self):
        # with zero weights the prediction is exactly 0.5; a 0.5 target
        # zeroes the pre-activation gradient
        net = small_conv_network()
        head = net.layers[-1]
        head.W = np.zeros_like(head.W)
        head.b = np.zeros_like(head.b)
        x = np.random.default_rng(0).normal(size=(1, 16))
        net.loss_and_backward(x, None, np.array([0.5]))
        assert np.all(head.dW == 0.0)
        assert np.all(head.db == 0.0)


class TestSGD:
    def test_zero_learning_rate_is_identity(self):
        net = small_conv_network(seed=3)
        before = [v.copy() for _, _, v in net.parameter_tensors()]
        x = np.random.default_rng(0).normal(size=(2, 16))
        net.loss_and_backward(x, None, np.array([1.0, 0.0]))
        net.sgd_step(0.0)
        after = [v for _, _, v in net.parameter_tensors()]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_unit_rate_with_grad_equal_params_zeroes(self):
        dense = init_layer(Dense(2, 3), seed=1)
        dense.dW = dense.W.copy()
        dense.db = dense.b.copy()
        net = Network([dense], arch="t", input_len=3, seed=0)
        net.sgd_step(1.0)
        assert np.all(dense.W == 0.0)

    def test_descends_quadratic(self):
        # scalar logistic fit: loss strictly decreases over two steps
        net = Network([Dense(1, 1, activation="sigmoid")], arch="t",
                      input_len=1, seed=0)
        net.initialize()
        x = np.array([[1.0]])
        y = np.array([1.0])
        losses = []
        for _ in range(3):
            loss, _ = net.loss_and_backward(x, None, y)
            losses.append(loss)
            net.sgd_step(0.01)
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]


class TestDeterminism:
    def test_identical_seed_identical_init(self):
        a = small_conv_network(seed=11)
        b = small_conv_network(seed=11)
        for (_, _, va), (_, _, vb) in zip(a.parameter_tensors(),
                                          b.parameter_tensors()):
            assert np.array_equal(va, vb)

    def test_sigmoid_open_interval(self):
        z = np.linspace(-30, 30, 101)
        p = sigmoid(z)
        assert np.all(p > 0.0)
        assert np.all(p < 1.0)


class TestSerialization:
    def test_roundtrip_conv(self, tmp_path):
        net = small_conv_network(seed=5)
        path = tmp_path / "net.txt"
        save_network(net, path)
        back = load_network(path)
        x = np.random.default_rng(0).normal(size=(2, 16))
        assert back.forward(x) == pytest.approx(net.forward(x))

    def test_roundtrip_gru(self, tmp_path):
        net = small_gru_network(seed=6)
        path = tmp_path / "net.txt"
        save_network(net, path)
        back = load_network(path)
        x = np.random.default_rng(1).normal(size=(2, 5))
        mask = np.ones((2, 5))
        assert back.forward(x, mask) == pytest.approx(net.forward(x, mask))

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        save_network(small_conv_network(seed=5), path)
        lines = path.read_text().splitlines()
        bias = lines.index("tensor 0 b 3")
        bad_files = {
            "wrong tag": (["something else"], 1),
            "header only": (lines[:2], 3),
            "ends after a tensor header": (lines[:3], 4),
            "bias saved with shape 1": (
                lines[:bias] + ["tensor 0 b 1", "0"] + lines[bias + 2:],
                bias + 1),
            "garbled values": (lines[:3] + ["1 2 x"] + lines[4:], 4),
            "extra tensor": (lines + lines[2:4], len(lines) + 1),
            "unknown layer field": (
                [lines[0], lines[1].replace('"pool_size":2',
                                            '"pool_size":2,"stride":2')]
                + lines[2:], 2),
            "pool size 0": (
                [lines[0], lines[1].replace('"pool_size":2', '"pool_size":0')]
                + lines[2:], 2),
            "input_len does not fit the layers": (
                [lines[0], lines[1].replace('"input_len":16',
                                            '"input_len":20')] + lines[2:],
                2),
        }
        for name, (content, line) in bad_files.items():
            path.write_text("\n".join(content) + "\n")
            with pytest.raises(ParseError) as exc:
                load_network(path)
            assert exc.value.line == line, name
