"""Single-song convolutional autoencoder, trained per song on its bars.

The network is small enough that forward passes, analytic backprop, and
Adam are written directly on numpy arrays (float64 throughout). It is two
layer lists, run in order and in reverse for backprop: the encoder is
conv(1->4), ReLU, pool, conv(4->16), ReLU, pool, flatten and a linear
latent layer of size d_c; the decoder is a dense layer, ReLU, a reshape to
16 channels and two stride-2 transposed convolutions, each with a ReLU.
Training follows a plateau learning-rate schedule with early stopping,
and the embedding is read out with the best-loss parameters.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class AEConfig:
    d_c: int = 8
    lr0: float = 0.001
    plateau_patience: int = 20
    lr_factor: float = 0.1
    lr_min: float = 1e-5
    early_stop_patience: int = 100
    max_epochs: int = 1000
    batch_size: int = 8
    seed: int = 42

    def __post_init__(self):
        if self.lr_min >= self.lr0:
            raise ValueError("lr_min must be below the initial learning rate")
        if self.d_c < 1:
            raise ValueError("latent dimension must be positive")


# ---------------------------------------------------------------------------
# Convolution primitives (batch NCHW). Kernels are 3x3; loops run over the
# 9 kernel offsets with strided slices, which keeps everything vectorized.
# ---------------------------------------------------------------------------


def _out_size(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def _im2col(x, kh, kw, stride, pad):
    """Unfold x (N,C,H,W) into (N*h_out*w_out, C*kh*kw) patch rows."""
    n, ci, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    h_out, w_out = _out_size(h, w, kh, kw, stride, pad)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :h_out, :w_out]
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, ci * kh * kw)
    return np.ascontiguousarray(col), h_out, w_out


def _col2im(gcol, in_shape, kh, kw, stride, pad):
    """Adjoint of _im2col: scatter-add patch rows back onto the input grid."""
    n, ci, h, w = in_shape
    h_out, w_out = _out_size(h, w, kh, kw, stride, pad)
    g = gcol.reshape(n, h_out, w_out, ci, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    gxp = np.zeros((n, ci, h + 2 * pad, w + 2 * pad))
    for di in range(kh):
        for dj in range(kw):
            gxp[:, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride] += g[:, :, di, dj]
    return gxp[:, :, pad : pad + h, pad : pad + w]


def conv2d(x, K, stride=1, pad=1):
    """Cross-correlation of x (N,Ci,H,W) with K (Co,Ci,kh,kw).

    Returns (out, col): col is the im2col matrix of x, which the kernel
    gradient reuses.
    """
    n = x.shape[0]
    co, ci, kh, kw = K.shape
    assert x.shape[1] == ci, f"channel mismatch {x.shape[1]} vs {ci}"
    col, h_out, w_out = _im2col(x, kh, kw, stride, pad)
    out = col @ K.reshape(co, -1).T
    return out.reshape(n, h_out, w_out, co).transpose(0, 3, 1, 2), col


def conv2d_grad_input(gy, K, in_shape, stride=1, pad=1):
    """Gradient of conv2d w.r.t. its input; also the transposed-conv forward."""
    n, co, h_out, w_out = gy.shape
    _, ci, kh, kw = K.shape
    gy2d = gy.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, co)
    gcol = gy2d @ K.reshape(co, -1)
    return _col2im(gcol, (n, ci) + tuple(in_shape), kh, kw, stride, pad)


def conv2d_grad_kernel(col, gy, kernel_shape):
    """Gradient of conv2d w.r.t. the kernel, given the im2col matrix of x."""
    n, co, h_out, w_out = gy.shape
    gy2d = gy.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, co)
    return (gy2d.T @ col).reshape(kernel_shape)


# ---------------------------------------------------------------------------
# Layers: backward(gy, grads) stores parameter gradients, returns the input's.
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
    def __init__(self, c_in, c_out, rng, name):
        super().__init__(name, rng, (c_out, c_in, 3, 3), c_in * 9, c_out)

    def forward(self, x):
        self._in_shape = x.shape
        out, self._col = conv2d(x, self.W)
        return out + self.b[None, :, None, None]

    def backward(self, gy, grads):
        grads[self.name + ".W"] = conv2d_grad_kernel(self._col, gy, self.W.shape)
        grads[self.name + ".b"] = gy.sum(axis=(0, 2, 3))
        return conv2d_grad_input(gy, self.W, self._in_shape[2:])


class ConvTranspose2D(ParamLayer):
    """Stride-2 transposed 3x3 convolution doubling both spatial dims.

    Stored as the kernel of its adjoint convolution (c_in, c_out, 3, 3),
    stride 2, pad 1.
    """

    def __init__(self, c_in, c_out, rng, name):
        super().__init__(name, rng, (c_in, c_out, 3, 3), c_in * 9, c_out)

    def forward(self, z):
        self._z = z
        h, w = z.shape[2], z.shape[3]
        y = conv2d_grad_input(z, self.W, (2 * h, 2 * w), stride=2, pad=1)
        return y + self.b[None, :, None, None]

    def backward(self, gy, grads):
        # The adjoint convolution unfolds gy once for both gradients.
        gz, col = conv2d(gy, self.W, stride=2, pad=1)
        grads[self.name + ".W"] = conv2d_grad_kernel(col, self._z, self.W.shape)
        grads[self.name + ".b"] = gy.sum(axis=(0, 2, 3))
        return gz


class ReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, gy, grads):
        return np.where(self._mask, gy, 0.0)


class MaxPool2x2(Layer):
    def forward(self, x):
        n, c, h, w = x.shape
        blocks = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
        self._argmax = blocks.argmax(axis=-1)
        self._in_shape = x.shape
        return np.take_along_axis(blocks, self._argmax[..., None], axis=-1)[..., 0]

    def backward(self, gy, grads):
        n, c, h, w = self._in_shape
        gblocks = np.zeros((n, c, h // 2, w // 2, 4))
        np.put_along_axis(gblocks, self._argmax[..., None], gy[..., None], axis=-1)
        return gblocks.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


class Dense(ParamLayer):
    def __init__(self, n_in, n_out, rng, name):
        super().__init__(name, rng, (n_out, n_in), n_in, n_out)

    def forward(self, x):
        self._x = x
        return x @ self.W.T + self.b

    def backward(self, gy, grads):
        grads[self.name + ".W"] = gy.T @ self._x
        grads[self.name + ".b"] = gy.sum(axis=0)
        return gy @ self.W


class Reshape(Layer):
    """Reshapes each batch item to `shape`; (-1,) flattens it."""

    def __init__(self, shape):
        self.shape = shape

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape((x.shape[0],) + self.shape)

    def backward(self, gy, grads):
        return gy.reshape(self._in_shape)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class AENetwork:
    """Convolutional autoencoder for f x s bar patches."""

    def __init__(self, n_bins, subdivision, d_c, seed=42):
        if subdivision % 4 != 0:
            raise ValueError(f"subdivision must be divisible by 4, got {subdivision}")
        self.n_bins = n_bins
        self.subdivision = subdivision
        # Pad the frequency axis up to a multiple of 4 with zero rows.
        self.f_pad = n_bins if n_bins % 4 == 0 else n_bins + (4 - n_bins % 4)
        self.flat_size = 16 * (self.f_pad // 4) * (subdivision // 4)
        if d_c >= self.flat_size:
            raise ValueError(f"d_c={d_c} is not a compression of the {self.flat_size}-dim bottleneck input")
        rng = np.random.default_rng(seed)
        self.encoder = [
            Conv2D(1, 4, rng, "conv1"), ReLU(), MaxPool2x2(),
            Conv2D(4, 16, rng, "conv2"), ReLU(), MaxPool2x2(),
            Reshape((-1,)), Dense(self.flat_size, d_c, rng, "fc_enc"),
        ]
        self.decoder = [
            Dense(d_c, self.flat_size, rng, "fc_dec"), ReLU(),
            Reshape((16, self.f_pad // 4, subdivision // 4)),
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

    def _pad_input(self, x):
        if self.f_pad == self.n_bins:
            return x
        return np.pad(x, ((0, 0), (0, 0), (0, self.f_pad - self.n_bins), (0, 0)))

    def encode_batch(self, x):
        """x: (N, f, s) -> (N, d_c). Latent layer is linear by design."""
        h = self._pad_input(np.asarray(x, dtype=np.float64)[:, None, :, :])
        for layer in self.encoder:
            h = layer.forward(h)
        return h

    def decode_batch(self, z):
        """(N, d_c) -> (N, f, s), nonnegative thanks to the final ReLU."""
        for layer in self.decoder:
            z = layer.forward(z)
        return z[:, 0, : self.n_bins, :]

    def forward_batch(self, x):
        z = self.encode_batch(x)
        return z, self.decode_batch(z)

    def backward_batch(self, x):
        """Gradients of the batch-mean reconstruction MSE for every parameter."""
        x = np.asarray(x, dtype=np.float64)
        n_batch = x.shape[0]
        z, x_hat = self.forward_batch(x)
        grads = {}
        gy = 2.0 * (x_hat - x) / (x.shape[1] * x.shape[2] * n_batch)
        # Undo the output crop: padded rows never contribute to the loss.
        g = np.zeros((n_batch, 1, self.f_pad, self.subdivision))
        g[:, 0, : self.n_bins, :] = gy
        for layer in reversed(self.encoder + self.decoder):
            g = layer.backward(g, grads)
        return grads, float(np.mean((x_hat - x) ** 2))


def init_network(n_bins, subdivision, d_c, seed=42):
    """Fresh network with He-uniform weights and zero biases."""
    return AENetwork(n_bins, subdivision, d_c, seed=seed)


def mse_loss(x, x_hat):
    """Mean squared error over all entries."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    return float(np.mean((x - x_hat) ** 2))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class AdamOptimizer:
    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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

    def __init__(self, lr0=0.001, factor=0.1, patience=20, lr_min=1e-5, early_stop_patience=100):
        self.lr = lr0
        self.factor = factor
        self.patience = patience
        self.lr_min = lr_min
        self.early_stop_patience = early_stop_patience
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


@dataclass
class TrainResult:
    network: "AENetwork"
    embedding: np.ndarray  # d_c x b, best-loss parameters
    loss_trace: np.ndarray  # full-song loss per epoch
    best_loss: float
    epochs_run: int


def _full_loss(net, bars, batch_size=32):
    total = 0.0
    for start in range(0, len(bars), batch_size):
        chunk = bars[start : start + batch_size]
        _, x_hat = net.forward_batch(chunk)
        total += float(np.sum((chunk - x_hat) ** 2))
    return total / bars.size


def train_single_song(bars, cfg):
    """Train the autoencoder on one song's bars and read out its embedding.

    `bars` is a sequence of b matrices of shape f x s. Returns the network
    restored to its best-loss parameters together with the d_c x b
    embedding Z encoded by those parameters.
    """
    bars = np.asarray(bars, dtype=np.float64)
    if bars.ndim != 3 or bars.shape[0] < 1:
        raise ValueError("need at least one f x s bar")
    b, f, s = bars.shape
    net = init_network(f, s, cfg.d_c, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    optimizer = AdamOptimizer(net.parameters())
    schedule = PlateauSchedule(cfg.lr0, cfg.lr_factor, cfg.plateau_patience, cfg.lr_min, cfg.early_stop_patience)

    best_state = net.get_state()
    best_loss = _full_loss(net, bars)
    trace = []
    lr = cfg.lr0
    epochs_run = 0
    for _ in range(cfg.max_epochs):
        order = rng.permutation(b)
        for start in range(0, b, cfg.batch_size):
            batch = bars[order[start : start + cfg.batch_size]]
            grads, batch_loss = net.backward_batch(batch)
            if not np.isfinite(batch_loss):
                raise FloatingPointError(f"training diverged: non-finite loss at epoch {epochs_run}")
            optimizer.step(net.parameters(), grads, lr)
        epoch_loss = _full_loss(net, bars)
        if not np.isfinite(epoch_loss):
            raise FloatingPointError(f"training diverged: non-finite loss at epoch {epochs_run}")
        trace.append(epoch_loss)
        epochs_run += 1
        lr, stop, improved = schedule.step(epoch_loss)
        if improved and epoch_loss < best_loss:
            best_loss = epoch_loss
            best_state = net.get_state()
        if stop:
            break
    net.set_state(best_state)
    embedding = net.encode_batch(bars).T
    return TrainResult(net, embedding, np.asarray(trace), best_loss, epochs_run)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_loss_trace_csv(path, trace):
    with open(path, "w") as fh:
        fh.write("epoch,loss\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{format(float(v), '.17g')}\n")
