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
The Layer base checks and stores constructor arguments and gives spec() and a
no-op init and params; it holds no forward or backward (nor backward_preact),
as the benchmark tracer patches those in each layer class's own __dict__.

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

A Network whose first layer is a Conv1D sizes the Conv1D/MaxPool1D stack
that leads its chain once, when built, on input_len: its depth, output
length, stride and reach, or a ShapeError naming the layer it does not fit.
Network.forward runs that stack on the shortest prefix of the input that
still covers every stack output position seeing a real entry, up to the
batch's last column holding one: stride * p + reach entries for p
positions, with no walk of the layers per call. Past that column every row
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

import json
import math

import numpy as np

from .errors import ParseError, ShapeError, ValidationError, check_header, \
    is_size
from .features import PAD_VALUE


def sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _glorot_uniform(rng: np.random.Generator, shape, fan_in: int,
                    fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Each argument is a size (an int >= 1, not a bool) or an activation from
    the class's tuple `activations`; spec() lists them in order after kind."""

    def __init__(self, **args):
        for name, value in args.items():
            if name == "activation" and value not in self.activations:
                raise ValidationError(f"{self.kind} activation {value!r} is "
                                      f"not one of {self.activations}")
            if name != "activation" and not is_size(value):
                raise ValidationError(f"{self.kind} {name} {value!r} is not "
                                      f"an int >= 1")
            setattr(self, name, value)
        self._args = args
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        pass

    def params(self) -> list:
        return []

    def spec(self) -> dict:
        return {"kind": self.kind, **self._args}


class WindowLayer(Layer):
    """Output position j reads the input from j * stride through
    j * stride + stride + reach - 1; a trailing remainder is dropped."""

    def output_length(self, length: int) -> int:
        if length < self.stride + self.reach:
            raise ShapeError(f"{self.kind} needs input length >= "
                             f"{self.stride + self.reach}, got {length}")
        return (length - self.reach) // self.stride


class Conv1D(WindowLayer):
    """Valid cross-correlation, stride 1, optional tanh."""

    kind = "conv1d"
    activations = ("linear", "tanh")

    def __init__(self, filters: int, kernel_size: int, in_channels: int,
                 activation: str = "linear"):
        super().__init__(filters=filters, kernel_size=kernel_size,
                         in_channels=in_channels, activation=activation)
        self.stride, self.reach = 1, kernel_size - 1
        self.W = np.zeros((filters, in_channels, kernel_size))
        self.b = np.zeros(filters)
        self.dW, self.db = np.zeros_like(self.W), np.zeros_like(self.b)

    def init(self, rng: np.random.Generator) -> None:
        fan_in = self.in_channels * self.kernel_size
        fan_out = self.filters * self.kernel_size
        self.W = _glorot_uniform(rng, self.W.shape, fan_in, fan_out)
        self.b = np.zeros(self.filters)

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


class MaxPool1D(WindowLayer):
    """Non-overlapping max pooling; remainder positions are dropped."""

    kind = "maxpool1d"

    def __init__(self, pool_size: int):
        super().__init__(pool_size=pool_size)
        self.stride, self.reach = pool_size, 0

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


class Flatten(Layer):
    kind = "flatten"

    def __init__(self):
        super().__init__()

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._cache)


class Dense(Layer):
    """Affine map with optional sigmoid."""

    kind = "dense"
    activations = ("linear", "sigmoid")

    def __init__(self, units: int, in_features: int,
                 activation: str = "linear"):
        super().__init__(units=units, in_features=in_features,
                         activation=activation)
        self.W = np.zeros((units, in_features))
        self.b = np.zeros(units)
        self.dW, self.db = np.zeros_like(self.W), np.zeros_like(self.b)

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


class GRU(Layer):
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
        super().__init__(hidden_size=hidden_size, input_size=input_size)
        self.W = np.zeros((3, hidden_size, hidden_size + input_size))
        self.b = np.zeros((3, hidden_size))
        self.dW, self.db = np.zeros_like(self.W), np.zeros_like(self.b)

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


def conv_lengths(layers, length: int) -> list[int]:
    """Output length of each leading WindowLayer (Conv1D or MaxPool1D) on an
    input of `length`; a ShapeError names the first layer the input is too
    short for."""
    lengths = []
    for i, layer in enumerate(layers):
        if not isinstance(layer, WindowLayer):
            break
        try:
            length = layer.output_length(length)
        except ShapeError as exc:
            raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from exc
        lengths.append(length)
    return lengths


class Network:
    """A layer chain ending in a 1-unit sigmoid head; layers[0] takes x.

    Built, it checks input_len against the first layers: a GRU step must
    divide it, and a leading conv/pool stack, sized here once, must fit it.
    """

    def __init__(self, layers: list, arch: str, input_len: int, seed: int):
        if layers[0].kind == "gru" and input_len % layers[0].input_size:
            raise ShapeError(f"input length {input_len} is not a multiple of "
                             f"the gru step {layers[0].input_size}")
        self.layers = layers
        self.arch = arch
        self.input_len = input_len
        self.seed = seed
        # A leading conv/pool stack's depth, output length, stride (the
        # product of its pool sizes) and reach: the shortest input giving p
        # output positions is stride * p + reach.
        self._depth, self._out_len, self._stride, self._reach = 0, 0, 1, 0
        if layers[0].kind == "conv1d":
            lengths = conv_lengths(layers, input_len)
            self._depth, self._out_len = len(lengths), lengths[-1]
            for layer in layers[:self._depth]:
                self._reach += layer.reach * self._stride
                self._stride *= layer.stride
        # How many stack output positions the last forward computed from the
        # rows themselves when it filled the rest from a pad row, else None.
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
        out_len = self._out_len
        # Output position j reads the input from j * stride on, so it sees
        # a real entry only if j * stride < real.
        real = np.flatnonzero((x != PAD_VALUE).any(axis=0))
        real = int(real[-1]) + 1 if real.size else 0
        positions = min(max(-(-real // self._stride), 1), out_len)
        cut = self._stride * positions + self._reach
        pad_row = positions < out_len
        out = x[:, None, :]
        if (batch + pad_row) * cut < batch * length:
            out = out[:, :, :cut]
            if pad_row:
                out = np.concatenate([out, np.full((1, 1, cut), PAD_VALUE)])
        else:
            pad_row = False
        for layer in self.layers[:self._depth]:
            out = layer.forward(out)
        if pad_row:
            self._pad_row = positions
            tail = (batch, out.shape[1], out_len - positions)
            out = np.concatenate(
                [out[:batch], np.broadcast_to(out[batch:, :, :1], tail)],
                axis=2)
        return out, self.layers[self._depth:]

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
        positions = self._pad_row
        for layer in reversed(self.layers[self._depth:-1]):
            grad = layer.backward(grad)
        if positions is not None:
            # Every filled position is a copy of the pad row's first one.
            pad = np.zeros((1, grad.shape[1], positions))
            pad[0, :, 0] = grad[:, :, positions:].sum(axis=(0, 2))
            grad = np.concatenate([grad[:, :, :positions], pad])
        for layer in reversed(self.layers[:self._depth]):
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

_LAYER_CLASSES = {cls.kind: cls for cls in (Conv1D, MaxPool1D, Flatten,
                                            Dense, GRU)}

# Every network header field, in save_network's order, with its rule.
_NETWORK_HEADER = {
    "arch": ("a string", lambda v: type(v) is str),
    "input_len": ("an int >= 1", is_size),
    "seed": ("an int >= 0", lambda v: type(v) is int and v >= 0),
    "layers": ("a non-empty list", lambda v: type(v) is list and v != []),
}


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{_FORMAT_TAG}\n")
        header = {name: getattr(net, name) for name in _NETWORK_HEADER}
        header["layers"] = [layer.spec() for layer in net.layers]
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
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
        check_header(header, _NETWORK_HEADER, line=2)
        layers = [_LAYER_CLASSES[s["kind"]](
                      **{k: v for k, v in s.items() if k != "kind"})
                  for s in header["layers"]]
        if [layer.spec() for layer in layers] != header["layers"]:
            raise ValueError("a layer spec leaves out a default argument")
        head = layers[-1].spec()
        if (head.get("kind"), head.get("units"), head.get("activation")) != (
                "dense", 1, "sigmoid"):
            raise ValueError("the chain must end in a 1-unit sigmoid dense")
        net = Network(layers, header["arch"], header["input_len"],
                      header["seed"])
        # The layers must chain on an input of the header's input_len; with
        # no rows, no GRU step runs.
        net.forward(np.zeros((0, net.input_len)))
    except (IndexError, KeyError, TypeError, ValueError, RecursionError,
            MemoryError, ShapeError, ValidationError) as exc:
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
