import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from aae.classifiers import build
from aae.errors import ParseError, ShapeError, ValidationError
from aae.features import PAD_VALUE
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


def with_header(lines, **fields):
    """A saved network's lines with some header fields replaced."""
    header = {**json.loads(lines[1]), **fields}
    return [lines[0], json.dumps(header, separators=(",", ":"))] + lines[2:]


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
            z = sig(gru.W[0] @ cat + gru.b[0])
            r = sig(gru.W[1] @ cat + gru.b[1])
            cat_h = np.concatenate([r * h, x[0, t]])
            h_cand = np.tanh(gru.W[2] @ cat_h + gru.b[2])
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
        with pytest.raises(ShapeError) as exc:
            small_gru_network(length=10, step=4)
        assert "10" in str(exc.value) and "4" in str(exc.value)



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


def check_gradients(net, x, y, tol=1e-4):
    net.loss_and_backward(x, y)
    analytic = {(i, name): grads.copy()
                for i, layer in enumerate(net.layers)
                for name, _, grads in layer.params()}

    def loss_only():
        net.forward(x)
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
        check_gradients(net, x, y)

    @pytest.mark.parametrize("seed", range(3))
    def test_conv_network_gradients_through_the_pad_row(self, seed):
        rng = np.random.default_rng(seed + 200)
        net = small_conv_network(seed=seed, length=40)
        x = np.full((2, 40), PAD_VALUE)
        x[0, :6] = rng.normal(size=6)
        x[1, :3] = rng.normal(size=3)
        y = rng.integers(0, 2, size=2).astype(float)
        check_gradients(net, x, y)
        # The first conv ran on the cut batch: both rows and the pad row.
        assert net.layers[0]._cache[0].shape == (3, 1, 10)

    @pytest.mark.parametrize("seed", range(5))
    def test_gru_network_gradients(self, seed):
        rng = np.random.default_rng(seed + 100)
        net = small_gru_network(seed=seed)
        x = rng.normal(size=(2, 5))
        x[0, 3:] = PAD_VALUE
        y = rng.integers(0, 2, size=2).astype(float)
        check_gradients(net, x, y)

        # Vector timesteps, as the shipped GRU runs them: Network.forward
        # chunks a length-20 input into 5 steps of 4 scalars.
        net = small_gru_network(seed=seed, length=20, step=4)
        x = rng.normal(size=(2, 20))
        x[0, 10:] = PAD_VALUE
        check_gradients(net, x, y)

    def test_zero_logit_head_gradient(self):
        # with zero weights the prediction is exactly 0.5; a 0.5 target
        # zeroes the pre-activation gradient
        net = small_conv_network()
        head = net.layers[-1]
        head.W = np.zeros_like(head.W)
        head.b = np.zeros_like(head.b)
        x = np.random.default_rng(0).normal(size=(1, 16))
        net.loss_and_backward(x, np.array([0.5]))
        assert np.all(head.dW == 0.0)
        assert np.all(head.db == 0.0)


def plain_chain(net, x, y):
    """Probabilities and parameter gradients of every layer run on the whole
    input, one after another: the reference for Network's cut."""
    out = x[:, None, :]
    for layer in net.layers:
        out = layer.forward(out)
    probs = out[:, 0]
    grad = net.layers[-1].backward_preact(((probs - y) / len(y))[:, None])
    for layer in reversed(net.layers[:-1]):
        grad = layer.backward(grad)
    return probs, [g.copy() for layer in net.layers
                   for _, _, g in layer.params()]


class TestConvCut:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("arch, length", [
        ("scnn", 64), ("scnn", 256), ("scnn", 320),
        # 96 is the shortest multiple of 32 a DCNN accepts.
        ("dcnn", 96), ("dcnn", 256), ("dcnn", 320)])
    def test_matches_the_plain_chain(self, arch, length, data):
        rows = data.draw(st.integers(1, 40))
        # Row 0 is the longest; it is all-real in about half the examples.
        longest = data.draw(st.one_of(st.just(length),
                                      st.integers(0, length)))
        reals = [longest] + data.draw(st.lists(
            st.integers(0, longest), min_size=rows - 1, max_size=rows - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        net = build(arch, length, seed=1)
        for layer in net.layers:
            if layer.params():
                layer.b = rng.normal(scale=0.1, size=layer.b.shape)
        x = np.full((rows, length), PAD_VALUE)
        for row, real in enumerate(reals):
            x[row, :real] = rng.normal(size=real)
        y = rng.integers(0, 2, size=rows).astype(float)

        want_probs, want_grads = plain_chain(net, x, y)
        assert np.abs(net.forward(x) - want_probs).max() <= 1e-12
        net.loss_and_backward(x, y)
        for layer in net.layers:
            for _, _, got in layer.params():
                assert np.abs(got - want_grads.pop(0)).max() <= 1e-9

    def test_stack_that_does_not_fit_raises_when_built(self):
        first = Conv1D(3, 3, 1)
        layers = [first, MaxPool1D(2), Flatten(), Dense(1, 3, "sigmoid")]
        with pytest.raises(ShapeError, match=r"layer 1 \(maxpool1d\)"):
            Network(layers, arch="t", input_len=3, seed=0)
        assert first._cache is None  # no forward ran


class TestGRUStepMask:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("length", [40, 256, 320])
    @pytest.mark.parametrize("step", [1, 8])
    def test_matches_the_explicit_prefix_mask(self, length, step, data):
        rows = data.draw(st.integers(1, 40))
        reals = np.array(data.draw(st.lists(
            st.integers(0, length), min_size=rows, max_size=rows)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        net = small_gru_network(seed=1, length=length, hidden=8, step=step)
        gru, head = net.layers
        gru.b = rng.normal(scale=0.1, size=gru.b.shape)
        x = np.full((rows, length), PAD_VALUE)
        for row, real in enumerate(reals):
            x[row, :real] = rng.normal(size=real)
        y = rng.integers(0, 2, size=rows).astype(float)

        # The GRU on the step mask written out from the real lengths, then
        # the head, as Network.loss_and_backward runs them.
        steps = length // step
        mask = np.arange(steps) * step < reals[:, None]
        want_probs = head.forward(gru.forward(
            x.reshape(rows, steps, step), mask))[:, 0]
        gru.backward(head.backward_preact(((want_probs - y) / rows)[:, None]))
        want_grads = [g.copy() for layer in net.layers
                      for _, _, g in layer.params()]

        assert np.array_equal(net.forward(x), want_probs)
        _, probs = net.loss_and_backward(x, y)
        assert np.array_equal(probs, want_probs)
        for layer in net.layers:
            for _, _, got in layer.params():
                assert np.array_equal(got, want_grads.pop(0))


def per_gate_gru(gru, x, mask, dh):
    """The GRU's output and its six gradients in params() order, with the
    step written out per gate: three 2-D products, the mask blend on every
    step, and .sum(axis=0) bias sums."""
    (Wz, Wr, Wh), (bz, br, bh) = gru.W, gru.b
    h = np.zeros((x.shape[0], gru.hidden_size))
    cache = []
    for t in range(int(mask.any(axis=0).sum())):
        m = mask[:, t:t + 1]
        h_prev = h
        xt = x[:, t, :]
        cat = np.concatenate([h_prev, xt], axis=1)
        z = sigmoid(cat @ Wz.T + bz)
        r = sigmoid(cat @ Wr.T + br)
        cat_h = np.concatenate([r * h_prev, xt], axis=1)
        h_cand = np.tanh(cat_h @ Wh.T + bh)
        h_new = (1.0 - z) * h_prev + z * h_cand
        h = m * h_new + (1.0 - m) * h_prev
        cache.append((m, h_prev, cat, cat_h, z, r, h_cand))

    Uz, Ur, Uh = gru.W[:, :, :gru.hidden_size]
    dWz, dWr, dWh = dW = np.zeros_like(gru.W)
    dbz, dbr, dbh = db = np.zeros_like(gru.b)
    for m, h_prev, cat, cat_h, z, r, h_cand in reversed(cache):
        dh_step = dh * m
        dh_prev = dh * (1.0 - m) + dh_step * (1.0 - z)
        dz = dh_step * (h_cand - h_prev)
        dcand = dh_step * z
        da_h = dcand * (1.0 - h_cand * h_cand)
        dWh += da_h.T @ cat_h
        dbh += da_h.sum(axis=0)
        dhr = da_h @ Uh
        dr = dhr * h_prev
        dh_prev = dh_prev + dhr * r
        da_z = dz * z * (1.0 - z)
        dWz += da_z.T @ cat
        dbz += da_z.sum(axis=0)
        da_r = dr * r * (1.0 - r)
        dWr += da_r.T @ cat
        dbr += da_r.sum(axis=0)
        dh = dh_prev + (da_z @ Uz + da_r @ Ur)
    return h, [dWz, dWr, dWh, dbz, dbr, dbh]


class TestGRUStackedGates:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("hidden", [8, 32])
    @pytest.mark.parametrize("step", [1, 8])
    def test_matches_the_per_gate_step(self, hidden, step, data):
        rows = data.draw(st.one_of(st.integers(1, 40), st.just(256)))
        steps = data.draw(st.integers(1, 12))
        full = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gru = init_layer(GRU(hidden, input_size=step),
                         seed=int(rng.integers(2**32)))
        gru.b = rng.normal(scale=0.1, size=gru.b.shape)
        x = rng.normal(size=(rows, steps, step))
        # Mixed lengths put a row shorter than the longest, so some step
        # runs the blend; full ones skip it on every step.
        reals = np.full(rows, steps)
        if not full:
            reals = rng.integers(0, steps + 1, size=rows)
            reals[0] = steps - 1
        mask = (np.arange(steps) < reals[:, None]).astype(
            data.draw(st.sampled_from([bool, float])))
        dh = rng.normal(size=(rows, hidden))

        want, want_grads = per_gate_gru(gru, x, mask, dh)
        assert np.array_equal(gru.forward(x, mask), want)
        gru.backward(dh)
        for (_, _, got), expected in zip(gru.params(), want_grads):
            assert np.array_equal(got, expected)


class TestSGD:
    def test_zero_learning_rate_is_identity(self):
        net = small_conv_network(seed=3)
        before = [v.copy() for _, _, v in net.parameter_tensors()]
        x = np.random.default_rng(0).normal(size=(2, 16))
        net.loss_and_backward(x, np.array([1.0, 0.0]))
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
            loss, _ = net.loss_and_backward(x, y)
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


class TestLayerSpec:
    @pytest.mark.parametrize("layer", [
        Conv1D(4, 3, 2, "tanh"), MaxPool1D(2), Flatten(),
        Dense(1, 3, "sigmoid"), GRU(3, 2)], ids=lambda layer: layer.kind)
    def test_keys_are_the_constructor_parameters(self, layer):
        spec = layer.spec()
        names = list(inspect.signature(type(layer)).parameters)
        assert list(spec) == ["kind", *names]
        assert [getattr(layer, name) for name in names] == list(
            spec.values())[1:]


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
        assert back.forward(x) == pytest.approx(net.forward(x))

    def test_golden_gru_file(self, tmp_path):
        # Pins the aae-net-v1 bytes of a GRU network: the init RNG stream,
        # the tensor names and their order.
        golden = Path(__file__).parent / "data" / "gru-aae-net-v1.txt"
        net = Network([GRU(3, input_size=2), Dense(1, 3, "sigmoid")],
                      arch="gru", input_len=6, seed=7)
        net.initialize()
        built = tmp_path / "built.txt"
        save_network(net, built)
        assert built.read_bytes() == golden.read_bytes()
        resaved = tmp_path / "resaved.txt"
        save_network(load_network(golden), resaved)
        assert resaved.read_bytes() == golden.read_bytes()

    def test_long_input_len_runs_no_gru_step(self, tmp_path):
        # A one-scalar step divides any input_len; the check of the chain
        # runs on zero rows, so its cost does not grow with the header's.
        path = tmp_path / "net.txt"
        net = Network([GRU(3), Dense(1, 3, "sigmoid")], arch="gru",
                      input_len=5, seed=5)
        save_network(net, path)
        lines = path.read_text().splitlines()
        path.write_text(
            "\n".join(with_header(lines, input_len=2_000_000)) + "\n")
        back = load_network(path)
        assert back.input_len == 2_000_000
        assert len(back.layers[0]._cache) == 0

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        save_network(small_conv_network(seed=5), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[1])
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
            "input_len too short for the conv stack": (
                with_header(lines, input_len=4), 2),
            "non-finite values": (
                lines[:3] + ["nan inf " + lines[3].split(" ", 2)[2]]
                + lines[4:], 4),
            # Written as byte 0xff, inside a JSON string.
            "byte not utf-8": (
                [lines[0], lines[1].replace('"arch":"t', '"arch":"\udcff')]
                + lines[2:], 2),
            "header nested 100,000 deep": (
                [lines[0], "[" * 100_000 + "]" * 100_000] + lines[2:], 2),
            "no layers": (with_header(lines, layers=[]), 2),
            "chain ends in a flatten": (
                with_header(lines, layers=header["layers"][:-1]), 2),
            "linear head": (
                with_header(lines, layers=header["layers"][:-1] + [
                    {**header["layers"][-1], "activation": "linear"}]), 2),
            "two-unit head": (
                with_header(lines, layers=header["layers"][:-1] + [
                    {**header["layers"][-1], "units": 2}]), 2),
        }
        save_network(small_gru_network(seed=6), path)
        gru_lines = path.read_text().splitlines()
        gru_header = json.loads(gru_lines[1])
        for field, value in [("seed", "x"), ("seed", 1.5), ("seed", True),
                             ("seed", -1), ("seed", None), ("arch", 5),
                             ("arch", None)]:
            bad_files[f"gru {field} {value!r}"] = (
                with_header(gru_lines, **{field: value}), 2)
        bad_files["chain ends in a gru"] = (
            with_header(gru_lines, layers=gru_header["layers"][:1]), 2)
        for name, (content, line) in bad_files.items():
            path.write_text("\n".join(content) + "\n",
                            errors="surrogateescape")
            with pytest.raises(ParseError) as exc:
                load_network(path)
            assert exc.value.line == line, name
