"""Single-song convolutional autoencoder, trained per song on its bars.

The network is small enough that forward passes, analytic backprop, and
Adam are written directly on numpy arrays (float64 throughout). It is two
layer lists, run in order and in reverse for backprop: the encoder is
conv(1->4), pool, ReLU, conv(4->16), pool, ReLU, flatten and a linear
latent layer of size d_c; the decoder is a dense layer, ReLU, an unflatten
to 16 channels and two stride-2 transposed convolutions, each with a ReLU.
Each pool comes before its ReLU, which then runs on a quarter of the
values: the max commutes with ReLU, and where the max is <= 0 ReLU zeroes
the gradient, so the pool's tie rule never shows. Training uses one fixed
recipe: Adam (beta1 0.9, beta2 0.999, eps 1e-8) and a plateau schedule
that starts at lr 1e-3, divides it by 10 after 20 epochs without
improvement (floored at 1e-5) and stops after 100. These constants live
in `AdamOptimizer` and `PlateauSchedule`; the latent size, seed, epoch cap
and batch size are the arguments of `train_single_song`. The embedding is
read out with the best-loss parameters.

Activations are channels-last (N,H,W,C) from the input to the flatten and
from the unflatten to the output. The two dense layers index their weights
by the channels-first (NCHW) position, so the flatten and the unflatten
cross the bottleneck in that order. Only `backward_batch` runs the layers
in training mode, which keeps what backward reads until backward has read
it; the epoch-end loss pass and the final encoding keep nothing. The
convolutions of the network in training unfold into im2col buffers that
`train_single_song` lends them for the run (see `Conv2D`). Outside
training mode `encode_batch` runs every layer before `fc_enc`, and
`decode_batch` both transposed convolutions with their ReLUs, 8 items at
a time, each writing into one output for the batch. So no inference pass
holds an im2col matrix, a convolution output or a reconstruction of a
whole batch beside that output. The two dense layers, the ReLU after
`fc_dec` and the unflatten take the whole batch: a dense GEMM rounds
differently at other batch sizes.

The epoch-end loss pass feeds only the plateau schedule, the early stop
and the best-state copy. Each runs on a second network, the snapshot,
filled with epoch e's parameters, which become the best state if the
loss improves. When no value of that loss could change the LR or stop
training, `train_single_song` hands the pass to one helper thread and
trains epoch e + 1 meanwhile; otherwise the pass runs before epoch
e + 1. So nothing is rolled back or redone, and the losses, parameters
and errors are the serial loop's. As in `FeatureFrames.at`, the helper
thread is the process's one (`workers.helper`): where `workers` allows
no second worker, or in a song of a two-worker batch, it starts no
thread. The helper's exception propagates, and no thread outlives the
call.
"""

from dataclasses import dataclass

import numpy as np

from . import workers


# ---------------------------------------------------------------------------
# Convolution primitives (batch channels-last, N,H,W,C). Kernels are 3x3 and
# stored (Co,Ci,kh,kw), so patch columns are in (c, kh, kw) order. In this
# layout a conv output is a plain reshape of its GEMM result and no gradient
# needs a transpose.
# ---------------------------------------------------------------------------


def _out_size(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def _im2col(x, kh, kw, stride, pad, buf=None):
    """Unfold x (N,H,W,C) into (N*h_out*w_out, C*kh*kw) patch rows.

    The sliding window is taken over the flat positions of one padded
    item, and one take gathers those positions from every item. That
    copies faster than the window view of x itself, whose innermost runs
    are only kw elements long. Given a flat float64 `buf` of at least
    that many values, the rows fill its head instead of a new array.
    """
    n, h, w, ci = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    h_out, w_out = _out_size(h, w, kh, kw, stride, pad)
    pos = np.arange(xp[0].size).reshape(xp.shape[1:])
    win = np.lib.stride_tricks.sliding_window_view(pos, (kh, kw), axis=(0, 1))
    win = win[::stride, ::stride][:h_out, :w_out].reshape(h_out * w_out, ci * kh * kw)
    out = None if buf is None else buf[: n * win.size].reshape((n,) + win.shape)
    # Every position is in range, so "wrap" wraps none; it only spares the
    # copy through a temporary that the default mode makes for `out`.
    col = np.take(xp.reshape(n, -1), win, axis=1, out=out, mode="wrap")
    return col.reshape(n * h_out * w_out, ci * kh * kw), h_out, w_out


def _col2im(gcol, in_shape, kh, kw, stride, pad):
    """Adjoint of _im2col: scatter-add patch rows back onto the input grid."""
    n, h, w, ci = in_shape
    h_out, w_out = _out_size(h, w, kh, kw, stride, pad)
    g = gcol.reshape(n, h_out, w_out, ci, kh, kw)
    gxp = np.zeros((n, h + 2 * pad, w + 2 * pad, ci))
    for di in range(kh):
        for dj in range(kw):
            gxp[:, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride] += g[..., di, dj]
    return gxp[:, pad : pad + h, pad : pad + w]


def conv2d(x, K, stride=1, pad=1, buf=None):
    """Cross-correlation of x (N,H,W,Ci) with K (Co,Ci,kh,kw).

    Returns (out, col): col is the im2col matrix of x, which the kernel
    gradient reuses, in the head of `buf` when one is given (see _im2col).
    """
    n = x.shape[0]
    co, ci, kh, kw = K.shape
    assert x.shape[3] == ci, f"channel mismatch {x.shape[3]} vs {ci}"
    col, h_out, w_out = _im2col(x, kh, kw, stride, pad, buf)
    out = col @ K.reshape(co, -1).T
    return out.reshape(n, h_out, w_out, co), col


def conv2d_grad_input(gy, K, in_shape, stride=1, pad=1):
    """Gradient of conv2d w.r.t. its input; also the transposed-conv forward."""
    n, h_out, w_out, co = gy.shape
    _, ci, kh, kw = K.shape
    gcol = _pixel_rows(gy) @ K.reshape(co, -1)
    return _col2im(gcol, (n,) + tuple(in_shape) + (ci,), kh, kw, stride, pad)


def conv2d_grad_kernel(col, gy, kernel_shape):
    """Gradient of conv2d w.r.t. the kernel, given the im2col matrix of x."""
    return (_pixel_rows(gy).T @ col).reshape(kernel_shape)


def _pixel_rows(gy):
    """(N,H,W,C) -> the (N*H*W, C) GEMM operand, one row per pixel.

    BLAS may round a column-major operand differently from a row-major
    one. Training is pinned byte for byte to the channels-first (NCHW)
    formulation, whose operand was a column-major view for a batch of one
    item and a row-major copy otherwise, so this keeps both layouts.
    """
    rows = gy.reshape(-1, gy.shape[3])
    return np.asfortranarray(rows) if gy.shape[0] == 1 else rows


def _add_bias(y, b):
    """y + b over the channels of a fresh (N,H,W,C) y, added in place.

    Adding along whole W*C rows keeps numpy's inner loop long; along the
    C axis alone it would be a few elements wide.
    """
    n, h, w, c = y.shape
    rows = y.reshape(n, h, w * c)
    rows += np.tile(b, w)
    return rows.reshape(y.shape)


def _channel_sum(gy):
    """Bias gradient of an (N,H,W,C) output, summed in NCHW memory order.

    A sum over a channels-last array rounds differently, so the channels-
    first copy keeps training byte-identical to the NCHW network.
    """
    return np.ascontiguousarray(gy.transpose(0, 3, 1, 2)).sum(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# Layers. forward(x, train) keeps what backward reads only when train is
# true, so an inference pass holds no caches. backward(gy, grads) stores
# parameter gradients, returns the input's and drops the arrays it read.
# ---------------------------------------------------------------------------


class Layer:
    """Base of every layer; a layer without parameters reports none."""

    def params(self):
        return {}


class ParamLayer(Layer):
    """A layer with He-uniform weights W of fan-in `fan_in` and zero biases."""

    def __init__(self, name, rng, shape, fan_in, n_out):
        self.name = name
        bound = np.sqrt(6.0 / fan_in)
        self.W = rng.uniform(-bound, bound, size=shape)
        self.b = np.zeros(n_out)

    def params(self):
        return {self.name + ".W": self.W, self.name + ".b": self.b}


class Conv2D(ParamLayer):
    """Stride-1 3x3 convolution with zero padding 1.

    `col_buf` is None, or a flat float64 buffer that `train_single_song`
    lends for the run: a training pass then unfolds its batch into the
    head of that buffer rather than into a new im2col matrix. glibc's
    malloc returns free heap to the system once it exceeds twice the
    largest mapped block freed so far. With inference in blocks of
    _INFER_BLOCK items that block is one 8-item im2col matrix, and a
    training step's temporaries, fresh matrices included, came to just
    over twice that, so each step gave them back and faulted them in
    again.
    """

    def __init__(self, c_in, c_out, rng, name):
        super().__init__(name, rng, (c_out, c_in, 3, 3), c_in * 9, c_out)
        self.col_buf = None

    def forward(self, x, train=False):
        out, col = conv2d(x, self.W, buf=self.col_buf if train else None)
        if train:
            self._col, self._in_hw = col, x.shape[1:3]
        return _add_bias(out, self.b)

    def param_grads(self, gy, grads):
        col, self._col = self._col, None
        grads[self.name + ".W"] = conv2d_grad_kernel(col, gy, self.W.shape)
        grads[self.name + ".b"] = _channel_sum(gy)

    def backward(self, gy, grads):
        self.param_grads(gy, grads)
        return conv2d_grad_input(gy, self.W, self._in_hw)


class ConvTranspose2D(ParamLayer):
    """Stride-2 transposed 3x3 convolution doubling both spatial dims.

    Stored as the kernel of its adjoint convolution (c_in, c_out, 3, 3),
    stride 2, pad 1.
    """

    def __init__(self, c_in, c_out, rng, name):
        super().__init__(name, rng, (c_in, c_out, 3, 3), c_in * 9, c_out)

    def forward(self, z, train=False):
        if train:
            self._z = z
        h, w = z.shape[1], z.shape[2]
        return _add_bias(conv2d_grad_input(z, self.W, (2 * h, 2 * w), stride=2, pad=1), self.b)

    def backward(self, gy, grads):
        # The adjoint convolution unfolds gy once for both gradients.
        gz, col = conv2d(gy, self.W, stride=2, pad=1)
        z, self._z = self._z, None
        grads[self.name + ".W"] = conv2d_grad_kernel(col, z, self.W.shape)
        grads[self.name + ".b"] = _channel_sum(gy)
        return gz


class ReLU(Layer):
    def forward(self, x, train=False):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, gy, grads):
        mask, self._mask = self._mask, None
        return np.where(mask, gy, 0.0)


class MaxPool2x2(Layer):
    """2x2 max-pool over (H, W).

    Ties go to the first of the four window positions in row-major order,
    as an argmax over the window would.
    """

    OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, train=False):
        views = [x[:, i::2, j::2] for i, j in self.OFFSETS]
        y = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))
        if train:
            self._in_shape = x.shape
            self._masks = [views[0] == y]
            taken = self._masks[0]
            for v in views[1:]:
                mask = (v == y) & ~taken
                taken = taken | mask
                self._masks.append(mask)
        return y

    def backward(self, gy, grads):
        gx = np.empty(self._in_shape)
        masks, self._masks = self._masks, None
        for (i, j), mask in zip(self.OFFSETS, masks):
            np.multiply(gy, mask, out=gx[:, i::2, j::2])
        return gx


class Dense(ParamLayer):
    def __init__(self, n_in, n_out, rng, name):
        super().__init__(name, rng, (n_out, n_in), n_in, n_out)

    def forward(self, x, train=False):
        if train:
            self._x = x
        return x @ self.W.T + self.b

    def backward(self, gy, grads):
        x, self._x = self._x, None
        grads[self.name + ".W"] = gy.T @ x
        grads[self.name + ".b"] = gy.sum(axis=0)
        return gy @ self.W


class Flatten(Layer):
    """(N,H,W,C) -> (N, C*H*W) in channels-first order, for a C x H x W item.

    The dense layers index their weights by NCHW position, so both sides
    of the bottleneck cross it in that order.
    """

    def __init__(self, c, h, w):
        self.chw = (c, h, w)

    def forward(self, x, train=False):
        return x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1)

    def backward(self, gy, grads):
        return gy.reshape((gy.shape[0],) + self.chw).transpose(0, 2, 3, 1)


class Unflatten(Flatten):
    """(N, C*H*W) in channels-first order -> (N,H,W,C): Flatten run backwards."""

    forward, backward = Flatten.backward, Flatten.forward


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

# Items per block of an inference pass through the per-bar layers. At
# 80 x 96 bars one block's im2col matrix of conv1 or conv2 is 4.4 MB,
# against 17.7 MB for 32 bars. Every GEMM of these layers gives the bytes
# of the whole batch's GEMM at blocks of 8 and more (`workers.spans` merges
# a short tail): blocks of 4 change conv2's bytes on 8 x 8 bars, and
# blocks of 2 or 3 the transposed convolutions' bytes on 80 x 96 bars.
_INFER_BLOCK = 8


def _blocks(n, train):
    """Item spans of a pass through the per-bar layers: the whole batch in training."""
    return [(0, n)] if train else workers.spans(n, _INFER_BLOCK)


def _forward(layers, h, train):
    """h run through `layers` in order."""
    for layer in layers:
        h = layer.forward(h, train)
    return h


def bottleneck_size(n_bins, subdivision, d_c):
    """Size of the flattened input of the latent layer for f x s bars, which d_c must compress.

    Fails unless f and s are divisible by 4 (both pools halve both axes of
    a bar) and 1 <= d_c < that size.
    """
    if n_bins % 4 != 0:
        raise ValueError(f"n_bins must be divisible by 4, got {n_bins}")
    if subdivision % 4 != 0:
        raise ValueError(f"subdivision must be divisible by 4, got {subdivision}")
    flat_size = 16 * (n_bins // 4) * (subdivision // 4)
    if d_c < 1:
        raise ValueError("latent dimension must be positive")
    if d_c >= flat_size:
        raise ValueError(f"d_c={d_c} is not a compression of the {flat_size}-dim bottleneck input")
    return flat_size


class AENetwork:
    """Convolutional autoencoder for f x s bar patches."""

    def __init__(self, n_bins, subdivision, d_c, seed=42):
        """Fresh network with He-uniform weights and zero biases."""
        self.flat_size = bottleneck_size(n_bins, subdivision, d_c)
        self.n_bins = n_bins
        self.subdivision = subdivision
        rng = np.random.default_rng(seed)
        self.encoder = [
            Conv2D(1, 4, rng, "conv1"), MaxPool2x2(), ReLU(),
            Conv2D(4, 16, rng, "conv2"), MaxPool2x2(), ReLU(),
            Flatten(16, n_bins // 4, subdivision // 4), Dense(self.flat_size, d_c, rng, "fc_enc"),
        ]
        self.decoder = [
            Dense(d_c, self.flat_size, rng, "fc_dec"), ReLU(),
            Unflatten(16, n_bins // 4, subdivision // 4),
            ConvTranspose2D(16, 4, rng, "deconv1"), ReLU(),
            ConvTranspose2D(4, 1, rng, "deconv2"), ReLU(),
        ]

    # -- parameter plumbing --------------------------------------------------

    def parameters(self):
        out = {}
        for layer in self.encoder + self.decoder:
            out.update(layer.params())
        return out

    def get_state(self):
        return {k: v.copy() for k, v in self.parameters().items()}

    def set_state(self, state):
        for k, v in self.parameters().items():
            v[...] = state[k]

    # -- forward / backward ---------------------------------------------------

    def encode_batch(self, x, train=False):
        """x: (N, f, s) -> (N, d_c). Latent layer is linear by design."""
        x = np.asarray(x, dtype=np.float64)
        *per_bar, fc_enc = self.encoder
        flat = np.empty((len(x), self.flat_size))
        for start, stop in _blocks(len(x), train):
            flat[start:stop] = _forward(per_bar, x[start:stop, ..., None], train)
        return fc_enc.forward(flat, train)

    def decode_batch(self, z, train=False):
        """(N, d_c) -> a fresh (N, f, s), nonnegative thanks to the final ReLU."""
        h = _forward(self.decoder[:3], z, train)  # fc_dec, its ReLU and the unflatten
        out = np.empty((len(z), self.n_bins, self.subdivision))
        for start, stop in _blocks(len(z), train):
            out[start:stop] = _forward(self.decoder[3:], h[start:stop], train)[..., 0]
        return out

    def forward_batch(self, x, train=False):
        z = self.encode_batch(x, train)
        return z, self.decode_batch(z, train)

    def backward_batch(self, x):
        """Gradients of the batch-mean reconstruction MSE for every parameter."""
        x = np.asarray(x, dtype=np.float64)
        _, err = self.forward_batch(x, train=True)
        err -= x
        grads = {}
        g = (2.0 * err / err.size)[..., None]  # shaped as the (N, f, s, 1) output
        layers = self.encoder + self.decoder
        for layer in reversed(layers[1:]):
            g = layer.backward(g, grads)
        # Nothing reads the gradient with respect to the data.
        layers[0].param_grads(g, grads)
        return grads, float(np.mean(err**2))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class AdamOptimizer:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        for k, p in params.items():
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / (1 - self.beta1**self.t)
            v_hat = self.v[k] / (1 - self.beta2**self.t)
            p -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


class PlateauSchedule:
    """Plateau LR schedule with early stopping.

    Any strict decrease of the tracked loss counts as an improvement.
    After `patience` consecutive non-improving epochs the LR is divided
    by 10 (floored at lr_min) and the plateau counter resets; after
    `early_stop_patience` consecutive non-improving epochs training stops.
    """

    lr0, factor, patience, lr_min, early_stop_patience = 1e-3, 0.1, 20, 1e-5, 100

    def __init__(self):
        self.lr = self.lr0
        self.best_loss = np.inf
        self.plateau_count = 0
        self.stall_count = 0

    def step(self, loss):
        """Feed one epoch's loss; returns (lr, stop, improved)."""
        improved = loss < self.best_loss
        if improved:
            self.best_loss = loss
            self.plateau_count = 0
            self.stall_count = 0
        else:
            self.plateau_count += 1
            self.stall_count += 1
            if self.plateau_count >= self.patience:
                self.lr = max(self.lr * self.factor, self.lr_min)
                self.plateau_count = 0
        return self.lr, self.stall_count >= self.early_stop_patience, improved

    def may_act(self):
        """Whether some loss fed to the next `step` would change the LR or stop.

        Only a loss that does not improve moves the counters toward either.
        """
        return self.plateau_count + 1 >= self.patience or self.stall_count + 1 >= self.early_stop_patience


@dataclass
class TrainResult:
    embedding: np.ndarray  # d_c x b, best-loss parameters
    loss_trace: np.ndarray  # full-song loss per epoch
    best_loss: float

    @property
    def epochs_run(self):
        return len(self.loss_trace)


_LOSS_BATCH = 32  # bars per pass of the full-song loss: the dense layers round differently at other batch sizes


def _full_loss(net, bars):
    """Mean squared reconstruction error over all bars, taken `_LOSS_BATCH` bars at a time."""
    total = 0.0
    for start in range(0, len(bars), _LOSS_BATCH):
        chunk = bars[start : start + _LOSS_BATCH]
        _, err = net.forward_batch(chunk)
        np.subtract(chunk, err, out=err)
        total += float(np.sum(np.square(err, out=err)))
    return total / bars.size


def train_single_song(bars, d_c, seed=42, max_epochs=1000, batch_size=8):
    """Train the autoencoder on one song's bars and read out its embedding.

    `bars` is a sequence of b matrices of shape f x s. The result holds the
    d_c x b embedding Z encoded by the best-loss parameters; max_epochs=0
    gives the encoding of the initial network.

    Epoch e's loss pass runs on the helper thread while epoch e + 1
    trains, whenever no value of that loss could change the LR or stop
    training (see `PlateauSchedule.may_act`); otherwise it runs before
    epoch e + 1 starts. Without the helper (`workers.helper` gives None,
    as it does while a two-worker batch holds it), every pass runs
    before the next epoch. Either way every loss, LR and parameter byte
    is that of the serial loop, and so is the error a non-finite loss
    raises.
    """
    bars = np.asarray(bars, dtype=np.float64)
    if bars.ndim != 3 or bars.shape[0] < 1:
        raise ValueError("need at least one f x s bar")
    b, f, s = bars.shape
    net = AENetwork(f, s, d_c, seed=seed)
    rng = np.random.default_rng(seed)
    optimizer = AdamOptimizer(net.parameters())
    schedule = PlateauSchedule()
    # Every loss pass runs on this copy of the parameters, on either thread.
    snapshot = AENetwork(f, s, d_c)
    # Both convs take f * s values per bar and unfold each into 9.
    convs = [layer for layer in net.encoder if isinstance(layer, Conv2D)]
    for conv in convs:
        conv.col_buf = np.empty(9 * min(batch_size, b) * f * s)

    best_state, best_loss = net.get_state(), _full_loss(net, bars)
    trace = []

    def book(loss):
        """Take the loss of epoch len(trace), whose parameters `snapshot` holds; True means stop."""
        nonlocal best_state, best_loss
        if not np.isfinite(loss):
            raise FloatingPointError(f"training diverged: non-finite loss at epoch {len(trace)}")
        trace.append(loss)
        _, stop, _ = schedule.step(loss)
        if loss < best_loss:
            best_loss, best_state = loss, snapshot.get_state()
        return stop

    with workers.helper() as pool:
        pending = None  # the loss pass of the epoch before, running on the helper
        for epoch in range(max_epochs):
            order = rng.permutation(b)
            try:
                for start in range(0, b, batch_size):
                    grads, batch_loss = net.backward_batch(bars[order[start : start + batch_size]])
                    if not np.isfinite(batch_loss):
                        raise FloatingPointError(f"training diverged: non-finite loss at epoch {epoch}")
                    optimizer.step(net.parameters(), grads, schedule.lr)
            finally:
                # The epoch before is booked first, so its error wins, as it would serially.
                if pending is not None:
                    book(pending.result())
            snapshot.set_state(net.parameters())
            if pool is not None and epoch + 1 < max_epochs and not schedule.may_act():
                pending = pool.submit(_full_loss, snapshot, bars)
            else:
                pending = None
                if book(_full_loss(snapshot, bars)):
                    break
    for conv in convs:
        conv.col_buf = None
    net.set_state(best_state)
    embedding = net.encode_batch(bars).T
    return TrainResult(embedding, np.asarray(trace), best_loss)
