"""Minimal neural-network engine with hand-derived gradients.

Only the layer kinds the classifiers need: valid 1-D convolution, max
pooling, flatten, dense, and a masked GRU. All layers operate on a leading
batch axis; gradients from a backward pass are summed over the batch and
divided by the batch size by the loss, so sgd averages over the batch.

Layer inputs: Conv1D and MaxPool1D take (batch, channels, length), Dense
takes (batch, features), and GRU takes (batch, steps, input_size) with a
(batch, steps) prefix mask. Network.forward takes x alone: (batch, input_len),
real where not the pad value -1, real entries first. It hands x to layers[0]
alone: a Conv1D gets a channel axis, a GRU gets input_size-wide steps and the
mask of the steps holding a real entry (the Network checks when built that
the step divides input_len), and any other layer gets x as is.
Each layer defines forward and backward (Dense also backward_preact) on its
own class, with no shared base: the benchmark tracer patches these class
attributes by name.

Conv1D is K shifted matmuls, one per tap k, for each pass:
z = sum_k W[:, :, k] @ x[:, :, k:k+L'], dW[:, :, k] = sum_b dz_b @
x_b[:, k:k+L']^T and dx[:, :, k:k+L'] += W[:, :, k]^T @ dz. Its cache holds
the layer input x itself. MaxPool1D's backward scatters dy into a block view
of one zeroed dx. GRU stacks its z, r and h gates in one W of shape
(3, H, H+input_size) and one b of shape (3, H); its params() returns the
aae-net-v1 tensors Wz, Wr, Wh, bz, br, bh as views of them. A GRU step
takes z and r from one stacked product and one sigmoid call, and blends by
the mask only on steps with a padded row; each element sees the per-gate
form's float operations in order, so results match that form to the bit.

Network.forward runs a leading Conv1D/MaxPool1D stack on the shortest prefix
of the input that still covers every stack output position seeing a real
entry, up to the batch's last column holding one. Past that column every row
is pad, so each later output position holds one constant per channel; one
all-pad row, appended to the cut batch, computes it, and its first output
position fills those positions before the layers after the stack.
loss_and_backward sums their gradient over the batch and the positions onto
that one position of the pad row, and the unchanged layer backwards carry
it. The cut is taken only when the cut batch, pad row included, has fewer
entries than the whole one (a batch-1 row that is mostly real runs whole).

Conventions (frozen): valid padding, stride 1 convolutions; pool stride =
pool size with the trailing remainder dropped; max-pool ties break to the
lowest index; initialization is uniform in +/-sqrt(6/(fan_in+fan_out)) with
zero biases.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import ParseError, ShapeError, ValidationError
from .features import PAD_VALUE


def sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _glorot_uniform(rng: np.random.Generator, shape, fan_in: int,
                    fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv1D:
    """Valid cross-correlation, stride 1, optional tanh."""

    kind = "conv1d"

    def __init__(self, filters: int, kernel_size: int, in_channels: int,
                 activation: str = "linear"):
        if kernel_size < 1 or filters < 1:
            raise ValidationError("filters and kernel_size must be >= 1")
        if activation not in ("linear", "tanh"):
            raise ValidationError(f"unsupported activation {activation!r}")
        self.filters = filters
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.activation = activation
        self.W = np.zeros((filters, in_channels, kernel_size))
        self.b = np.zeros(filters)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        fan_in = self.in_channels * self.kernel_size
        fan_out = self.filters * self.kernel_size
        self.W = _glorot_uniform(rng, self.W.shape, fan_in, fan_out)
        self.b = np.zeros(self.filters)

    def output_length(self, length: int) -> int:
        if length < self.kernel_size:
            raise ShapeError(
                f"conv1d needs input length >= {self.kernel_size}, "
                f"got {length}")
        return length - self.kernel_size + 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv1d expects (batch, {self.in_channels}, L), "
                f"got {x.shape}")
        out_len = self.output_length(x.shape[2])
        z = self.W[:, :, 0] @ x[:, :, :out_len]
        for k in range(1, self.kernel_size):
            z += self.W[:, :, k] @ x[:, :, k:k + out_len]
        z += self.b[:, None]
        y = np.tanh(z) if self.activation == "tanh" else z
        self._cache = (x, y)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, y = self._cache
        dz = dy * (1.0 - y * y) if self.activation == "tanh" else dy
        out_len = dz.shape[2]
        self.dW = np.empty_like(self.W)
        self.db = dz.sum(axis=(0, 2))
        dx = np.zeros(x.shape)
        for k in range(self.kernel_size):
            window = x[:, :, k:k + out_len]
            self.dW[:, :, k] = (dz @ window.transpose(0, 2, 1)).sum(axis=0)
            dx[:, :, k:k + out_len] += self.W[:, :, k].T @ dz
        return dx

    def params(self):
        return [("W", self.W, self.dW), ("b", self.b, self.db)]

    def spec(self) -> dict:
        return {"kind": self.kind, "filters": self.filters,
                "kernel_size": self.kernel_size,
                "in_channels": self.in_channels,
                "activation": self.activation}


class MaxPool1D:
    """Non-overlapping max pooling; remainder positions are dropped."""

    kind = "maxpool1d"

    def __init__(self, pool_size: int):
        if pool_size < 1:
            raise ValidationError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._cache = None

    def init(self, rng) -> None:
        pass

    def output_length(self, length: int) -> int:
        if length < self.pool_size:
            raise ShapeError(
                f"maxpool1d needs input length >= {self.pool_size}, "
                f"got {length}")
        return length // self.pool_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, length = x.shape
        out_len = self.output_length(length)
        trimmed = x[:, :, :out_len * self.pool_size]
        blocks = trimmed.reshape(batch, channels, out_len, self.pool_size)
        argmax = blocks.argmax(axis=3)
        y = np.take_along_axis(blocks, argmax[..., None], axis=3)[..., 0]
        self._cache = (x.shape, argmax)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        in_shape, argmax = self._cache
        batch, channels, _ = in_shape
        out_len = dy.shape[2]
        dx = np.zeros(in_shape)
        # Splitting the length axis of the kept prefix gives a view of dx;
        # the dropped remainder positions stay zero.
        blocks = dx[:, :, :out_len * self.pool_size].reshape(
            batch, channels, out_len, self.pool_size)
        np.put_along_axis(blocks, argmax[..., None], dy[..., None], axis=3)
        return dx

    def params(self):
        return []

    def spec(self) -> dict:
        return {"kind": self.kind, "pool_size": self.pool_size}


class Flatten:
    kind = "flatten"

    def __init__(self):
        self._shape = None

    def init(self, rng) -> None:
        pass

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._shape)

    def params(self):
        return []

    def spec(self) -> dict:
        return {"kind": self.kind}


class Dense:
    """Affine map with optional sigmoid."""

    kind = "dense"

    def __init__(self, units: int, in_features: int,
                 activation: str = "linear"):
        if activation not in ("linear", "sigmoid"):
            raise ValidationError(f"unsupported activation {activation!r}")
        self.units = units
        self.in_features = in_features
        self.activation = activation
        self.W = np.zeros((units, in_features))
        self.b = np.zeros(units)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        self.W = _glorot_uniform(rng, self.W.shape, self.in_features,
                                 self.units)
        self.b = np.zeros(self.units)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expects (batch, {self.in_features}), got {x.shape}")
        z = x @ self.W.T + self.b
        y = sigmoid(z) if self.activation == "sigmoid" else z
        self._cache = (x, z, y)
        return y

    @property
    def preactivation(self) -> np.ndarray:
        return self._cache[1]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self.activation == "sigmoid":
            y = self._cache[2]
            dy = dy * y * (1.0 - y)
        return self.backward_preact(dy)

    def backward_preact(self, dz: np.ndarray) -> np.ndarray:
        """Backward given the gradient w.r.t. the pre-activation.

        Used by the loss head, which folds the sigmoid derivative into the
        cross-entropy gradient for numerical stability.
        """
        x = self._cache[0]
        self.dW = dz.T @ x
        self.db = dz.sum(axis=0)
        return dz @ self.W

    def params(self):
        return [("W", self.W, self.dW), ("b", self.b, self.db)]

    def spec(self) -> dict:
        return {"kind": self.kind, "units": self.units,
                "in_features": self.in_features,
                "activation": self.activation}


class GRU:
    """GRU over a masked sequence, honoring right padding.

    Timesteps carry `input_size` scalars. Steps whose mask is 0 copy the
    hidden state unchanged; trailing steps where the whole batch is masked
    are skipped outright. W stacks the z, r and h gate matrices, each acting
    on [h_prev, x_t], as (3, H, H+input_size); b is (3, H). params() returns
    the aae-net-v1 tensors Wz, Wr, Wh, bz, br, bh as views of W and b.
    The z and r gates come from one stacked product and one sigmoid per
    step; the blend m * h + (1 - m) * h_prev runs only on steps with a
    padded row. Per element these are the operations of the per-gate form
    (cat @ Wz.T, cat @ Wr.T, the blend on every step), so results equal its
    bit for bit.
    """

    kind = "gru"

    def __init__(self, hidden_size: int, input_size: int = 1):
        if hidden_size < 1:
            raise ValidationError("hidden_size must be >= 1")
        if input_size < 1:
            raise ValidationError("input_size must be >= 1")
        self.hidden_size = hidden_size
        self.input_size = input_size
        self.W = np.zeros((3, hidden_size, hidden_size + input_size))
        self.b = np.zeros((3, hidden_size))
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        h, k = self.hidden_size, self.input_size
        self.W = _glorot_uniform(rng, self.W.shape, h + k, h)
        self.b = np.zeros((3, h))

    def forward(self, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"gru expects (batch, T, {self.input_size}), got {x.shape}")
        if mask.shape != x.shape[:2]:
            raise ShapeError("mask shape must match the sequence steps")
        if np.any(mask[:, 1:] > mask[:, :-1]):
            raise ValidationError(
                "mask must be a prefix of 1s followed by 0s")
        h = np.zeros((x.shape[0], self.hidden_size))
        cache = []
        # The z and r gates' products over the transposed views of W[0] and
        # W[1], as cat @ Wz.T and cat @ Wr.T take them: a contiguous copy
        # of the stacked view may round differently.
        Wzr, bzr = self.W[:2].transpose(0, 2, 1), self.b[:2, None, :]
        WhT, bh = self.W[2].T, self.b[2]
        # Masks are prefixes, so the steps any row uses come first.
        steps = int(mask.any(axis=0).sum())
        full = mask[:, :steps].all(axis=0)
        for t in range(steps):
            h_prev = h
            xt = x[:, t, :]
            cat = np.concatenate([h_prev, xt], axis=1)
            zr = sigmoid(np.matmul(cat, Wzr) + bzr)
            omzr = 1.0 - zr
            z, r = zr
            cat_h = np.concatenate([r * h_prev, xt], axis=1)
            h_cand = np.tanh(cat_h @ WhT + bh)
            h = omzr[0] * h_prev + z * h_cand
            m = None
            if not full[t]:
                m = mask[:, t:t + 1]
                h = m * h + (1.0 - m) * h_prev
            cache.append((m, h_prev, cat, cat_h, zr, omzr, h_cand))
        self._cache = cache
        return h

    def backward(self, dh: np.ndarray) -> None:
        H = self.hidden_size
        Uzr, Uh = self.W[:2, :, :H], self.W[2, :, :H]
        dW = self.dW = np.zeros_like(self.W)
        db = self.db = np.zeros_like(self.b)
        dWzr, dWh, dbzr, dbh = dW[:2], dW[2], db[:2], db[2]
        for m, h_prev, cat, cat_h, zr, omzr, h_cand in reversed(self._cache):
            if m is None:  # every row real: the blend was skipped
                dh_step = dh
                dh_prev = dh * omzr[0]
            else:
                dh_step = dh * m
                dh_prev = dh * (1.0 - m) + dh_step * omzr[0]

            # dz and dr, stacked as the gates are.
            z, r = zr
            dzr = np.empty_like(zr)
            np.multiply(dh_step, h_cand - h_prev, out=dzr[0])

            da_h = dh_step * z * (1.0 - h_cand * h_cand)
            dWh += da_h.T @ cat_h
            dbh += np.add.reduce(da_h, 0)
            dhr = da_h @ Uh
            np.multiply(dhr, h_prev, out=dzr[1])
            dh_prev = dh_prev + dhr * r

            da_zr = dzr * zr * omzr
            dWzr += np.matmul(da_zr.transpose(0, 2, 1), cat)
            dbzr += np.add.reduce(da_zr, 1)
            p = np.matmul(da_zr, Uzr)
            dh = dh_prev + (p[0] + p[1])
        # Inputs are raw features; no upstream layer consumes their gradient.

    def params(self):
        W, dW, b, db = self.W, self.dW, self.b, self.db
        return [("Wz", W[0], dW[0]), ("Wr", W[1], dW[1]), ("Wh", W[2], dW[2]),
                ("bz", b[0], db[0]), ("br", b[1], db[1]), ("bh", b[2], db[2])]

    def spec(self) -> dict:
        return {"kind": self.kind, "hidden_size": self.hidden_size,
                "input_size": self.input_size}


# Kinds of the leading layers that Network.forward may run on a cut batch.
_STACK_KINDS = ("conv1d", "maxpool1d")


def conv_lengths(layers, length: int) -> list[int]:
    """Output length of each leading Conv1D or MaxPool1D layer on an input
    of `length`; a ShapeError names the first layer the input is too short
    for."""
    lengths = []
    for i, layer in enumerate(layers):
        if layer.kind not in _STACK_KINDS:
            break
        try:
            length = layer.output_length(length)
        except ShapeError as exc:
            raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from exc
        lengths.append(length)
    return lengths


def covering_length(layers, positions: int) -> int:
    """Shortest input on which the leading Conv1D and MaxPool1D layers give
    `positions` output positions: the inverse of conv_lengths(...)[-1]."""
    stack = itertools.takewhile(lambda layer: layer.kind in _STACK_KINDS,
                                layers)
    for layer in reversed(list(stack)):
        if layer.kind == "conv1d":
            positions += layer.kernel_size - 1
        else:
            positions *= layer.pool_size
    return positions


class Network:
    """A layer chain ending in a 1-unit sigmoid head; layers[0] takes x."""

    def __init__(self, layers: list, arch: str, input_len: int, seed: int):
        if layers[0].kind == "gru" and input_len % layers[0].input_size:
            raise ShapeError(f"input length {input_len} is not a multiple of "
                             f"the gru step {layers[0].input_size}")
        self.layers = layers
        self.arch = arch
        self.input_len = input_len
        self.seed = seed
        # (stack depth, computed positions) of the last forward's pad row.
        self._pad_row = None

    def initialize(self) -> None:
        rng = np.random.default_rng(self.seed)
        for layer in self.layers:
            layer.init(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Probabilities in (0, 1), one per batch row."""
        if x.ndim != 2 or x.shape[1] != self.input_len:
            raise ShapeError(
                f"expected input of length {self.input_len}, got {x.shape}")
        first = self.layers[0]
        rest = self.layers[1:]
        self._pad_row = None
        if first.kind == "gru":
            # Chunk the flat vector into vector timesteps; a chunk counts as
            # real if any of its entries is real.
            steps = (-1, self.input_len // first.input_size, first.input_size)
            out = first.forward(x.reshape(steps),
                                (x != PAD_VALUE).reshape(steps).any(axis=2))
        elif first.kind == "conv1d":
            out, rest = self._conv_stack(x)
        else:
            out = first.forward(x)
        for layer in rest:
            out = layer.forward(out)
        return out[:, 0]

    def _conv_stack(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """The leading conv/pool stack's output on x, taken from the cut
        batch where that is smaller, and the layers after the stack."""
        batch, length = x.shape
        lengths = conv_lengths(self.layers, length)
        depth, out_len = len(lengths), lengths[-1]
        stack = self.layers[:depth]
        # Output position j reads the input from j * stride on, so it sees
        # a real entry only if j * stride < real.
        real = np.flatnonzero((x != PAD_VALUE).any(axis=0))
        real = int(real[-1]) + 1 if real.size else 0
        stride = math.prod(layer.pool_size for layer in stack
                           if layer.kind == "maxpool1d")
        positions = min(max(-(-real // stride), 1), out_len)
        cut = covering_length(stack, positions)
        pad_row = positions < out_len
        out = x[:, None, :]
        if (batch + pad_row) * cut < batch * length:
            out = out[:, :, :cut]
            if pad_row:
                out = np.concatenate([out, np.full((1, 1, cut), PAD_VALUE)])
        else:
            pad_row = False
        for layer in stack:
            out = layer.forward(out)
        if pad_row:
            self._pad_row = (depth, positions)
            tail = (batch, out.shape[1], out_len - positions)
            out = np.concatenate(
                [out[:batch], np.broadcast_to(out[batch:, :, :1], tail)],
                axis=2)
        return out, self.layers[depth:]

    def loss_and_backward(self, x: np.ndarray,
                          targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean binary cross-entropy and its gradients (stored per layer).

        The loss is computed from the head's pre-activation, so it stays
        finite for saturated predictions.
        """
        probs = self.forward(x)
        head = self.layers[-1]
        logits = head.preactivation[:, 0]
        losses = np.logaddexp(0.0, logits) - targets * logits
        loss = float(losses.mean())

        batch = x.shape[0]
        dz = ((probs - targets) / batch)[:, None]
        grad = head.backward_preact(dz)
        depth, positions = self._pad_row or (0, None)
        for layer in reversed(self.layers[depth:-1]):
            grad = layer.backward(grad)
        if self._pad_row:
            # Every filled position is a copy of the pad row's first one.
            pad = np.zeros((1, grad.shape[1], positions))
            pad[0, :, 0] = grad[:, :, positions:].sum(axis=(0, 2))
            grad = np.concatenate([grad[:, :, :positions], pad])
        for layer in reversed(self.layers[:depth]):
            grad = layer.backward(grad)
        return loss, probs

    def sgd_step(self, learning_rate: float) -> None:
        for layer in self.layers:
            for _, value, grad in layer.params():
                value -= learning_rate * grad

    def parameter_tensors(self) -> list[tuple[int, str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, value, _ in layer.params():
                out.append((i, name, value))
        return out


# ---------------------------------------------------------------------------
# Parameter serialization: versioned text, tensors row-major at 17
# significant digits.

_FORMAT_TAG = "aae-net-v1"

# Each layer's spec() lists exactly its constructor's arguments.
_LAYER_CLASSES = {cls.kind: cls for cls in (Conv1D, MaxPool1D, Flatten,
                                            Dense, GRU)}


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{_FORMAT_TAG}\n")
        fh.write(json.dumps({
            "arch": net.arch,
            "input_len": net.input_len,
            "seed": net.seed,
            "layers": [layer.spec() for layer in net.layers],
        }, separators=(",", ":")) + "\n")
        for layer_idx, name, value in net.parameter_tensors():
            dims = " ".join(str(d) for d in value.shape)
            fh.write(f"tensor {layer_idx} {name} {dims}\n")
            fh.write(" ".join(f"{v:.17g}" for v in value.ravel()) + "\n")


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}",
                         line=data.count(b"\n", 0, exc.start) + 1) from exc
    if not lines or lines[0] != _FORMAT_TAG:
        raise ParseError(f"not an {_FORMAT_TAG} file", line=1)
    try:
        header = json.loads(lines[1])
        layers = [_LAYER_CLASSES[s["kind"]](
                      **{k: v for k, v in s.items() if k != "kind"})
                  for s in header["layers"]]
        seed, arch = header["seed"], header["arch"]
        head = layers[-1].spec() if layers else {}
        if type(seed) is not int or seed < 0 or type(arch) is not str:
            raise ValueError("seed must be an int >= 0 and arch a string")
        if (head.get("kind"), head.get("units"), head.get("activation")) != (
                "dense", 1, "sigmoid"):
            raise ValueError("the chain must end in a 1-unit sigmoid dense")
        net = Network(layers, arch, header["input_len"], seed)
        # The layers must accept an input of the header's input_len.
        net.forward(np.zeros((1, net.input_len)))
    except (IndexError, KeyError, TypeError, ValueError, RecursionError,
            ShapeError, ValidationError) as exc:
        raise ParseError(f"bad network header: {exc}", line=2) from exc

    # Exactly the network's tensors, in order: a header line, then values.
    tensors = net.parameter_tensors()
    for k, (layer_idx, name, value) in enumerate(tensors):
        lineno = 3 + 2 * k  # 1-based number of the tensor's header line
        expected = f"tensor {layer_idx} {name} " + " ".join(
            str(d) for d in value.shape)
        if lineno > len(lines):
            raise ParseError(f"missing {expected!r}", line=lineno)
        if lines[lineno - 1].split() != expected.split():
            raise ParseError(f"expected {expected!r}, got "
                             f"{lines[lineno - 1]!r}", line=lineno)
        text = lines[lineno] if lineno < len(lines) else ""
        try:
            values = np.array([float(v) for v in text.split()])
        except ValueError as exc:
            raise ParseError(f"bad values for tensor {layer_idx} {name}: "
                             f"{exc}", line=lineno + 1) from exc
        if values.size != value.size:
            raise ParseError(
                f"tensor {layer_idx} {name} expects {value.size} values, "
                f"got {values.size}", line=lineno + 1)
        if not np.isfinite(values).all():
            raise ParseError(f"tensor {layer_idx} {name} holds a non-finite "
                             f"value", line=lineno + 1)
        value[...] = values.reshape(value.shape)
    end = 2 + 2 * len(tensors)
    if len(lines) > end:
        raise ParseError(f"unexpected line after the last tensor: "
                         f"{lines[end]!r}", line=end + 1)
    return net
