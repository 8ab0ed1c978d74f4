import itertools
import threading

import numpy as np
import pytest

from barseg import autoencoder as ae
from barseg import bars, features, synthetic, workers

from conftest import traced_peak


class TestInitNetwork:
    def test_flatten_size_mel(self):
        net = ae.AENetwork(80, 96, 8)
        assert net.flat_size == 16 * 20 * 24 == 7680

    def test_flatten_size_chroma(self):
        net = ae.AENetwork(12, 96, 8)
        assert net.flat_size == 16 * 3 * 24 == 1152

    def test_seed_determinism(self):
        a = ae.AENetwork(12, 8, 4, seed=99)
        b = ae.AENetwork(12, 8, 4, seed=99)
        for k, v in a.parameters().items():
            assert np.array_equal(v, b.parameters()[k]), k

    def test_biases_zero_weights_bounded(self):
        net = ae.AENetwork(16, 16, 4, seed=0)
        for name, p in net.parameters().items():
            if name.endswith(".b"):
                assert np.all(p == 0.0)
        # He-uniform: |w| <= sqrt(6/fan_in)
        params = net.parameters()
        assert np.abs(params["conv1.W"]).max() <= np.sqrt(6.0 / 9)
        assert np.abs(params["fc_enc.W"]).max() <= np.sqrt(6.0 / net.flat_size)

    def test_non_compressing_latent_rejected(self):
        with pytest.raises(ValueError, match="compression"):
            ae.AENetwork(4, 8, 16 * 1 * 2)

    def test_nonpositive_latent_rejected(self):
        with pytest.raises(ValueError, match="latent dimension must be positive"):
            ae.AENetwork(4, 8, 0)

    def test_bins_not_divisible_by_4_rejected(self):
        with pytest.raises(ValueError, match=r"^n_bins must be divisible by 4, got 10$"):
            ae.AENetwork(10, 8, 2)


class TestForward:
    def test_zero_weights_zero_output(self):
        net = ae.AENetwork(8, 8, 3, seed=1)
        net.set_state({k: np.zeros_like(v) for k, v in net.parameters().items()})
        z, x_hat = net.forward_batch(np.zeros((1, 8, 8)))
        assert np.all(z == 0.0)
        assert np.all(x_hat == 0.0)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(2)
        net = ae.AENetwork(12, 16, 4, seed=3)
        for _ in range(5):
            _, x_hat = net.forward_batch(rng.standard_normal((1, 12, 16)))
            assert x_hat.min() >= 0.0

    def test_latent_dimension(self):
        net = ae.AENetwork(12, 16, 5, seed=4)
        z, _ = net.forward_batch(np.ones((1, 12, 16)))
        assert z.shape == (1, 5)

    def test_encoder_positive_homogeneity(self):
        # conv + ReLU + maxpool is positively homogeneous when biases are 0
        # and all pre-activations stay positive.
        net = ae.AENetwork(8, 8, 3, seed=5)
        state = net.get_state()
        state["conv1.W"] = np.abs(state["conv1.W"])
        state["conv2.W"] = np.abs(state["conv2.W"])
        net.set_state(state)
        x = np.random.default_rng(6).random((1, 8, 8)) + 0.5

        def conv_stages(h):
            for layer in net.encoder[:6]:
                h = layer.forward(h)
            return h

        h1 = conv_stages(x[..., None])
        h2 = conv_stages(2 * x[..., None])
        assert np.allclose(h2, 2 * h1, rtol=1e-12)

    def test_encoding_locality(self):
        # encode(bar) depends only on that bar, given fixed parameters.
        net = ae.AENetwork(8, 8, 3, seed=7)
        rng = np.random.default_rng(8)
        bar = rng.random((8, 8))
        other1, other2 = rng.random((8, 8)), rng.random((8, 8))
        z_a = net.encode_batch(np.stack([bar, other1]))[0]
        z_b = net.encode_batch(np.stack([bar, other2]))[0]
        assert np.array_equal(z_a, z_b)


class TestBackward:
    def finite_difference_check(self, net, x, n_samples=100, h=1e-5, seed=0):
        grads, _ = net.backward_batch(x[None])
        params = net.parameters()
        rng = np.random.default_rng(seed)
        names = list(params)
        worst = 0.0
        for _ in range(n_samples):
            name = names[rng.integers(len(names))]
            flat = params[name].ravel()
            idx = int(rng.integers(flat.size))
            orig = flat[idx]
            flat[idx] = orig + h
            _, up = net.forward_batch(x[None])
            lp = float(np.mean((up - x[None]) ** 2))
            flat[idx] = orig - h
            _, dn = net.forward_batch(x[None])
            lm = float(np.mean((dn - x[None]) ** 2))
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            g = grads[name].ravel()[idx]
            denom = max(abs(fd), abs(g), 1e-8)
            worst = max(worst, abs(fd - g) / denom)
        return worst

    def test_finite_difference_tiny_net(self):
        net = ae.AENetwork(4, 8, 2, seed=0)
        x = np.random.default_rng(1).random((4, 8))
        assert self.finite_difference_check(net, x) < 1e-4

    def test_finite_difference_every_layer_touched(self):
        # Per-tensor check so no layer type escapes coverage.
        net = ae.AENetwork(4, 8, 2, seed=2)
        x = np.random.default_rng(3).random((4, 8))
        grads, _ = net.backward_batch(x[None])
        params = net.parameters()
        h = 1e-5
        rng = np.random.default_rng(4)
        for name, p in params.items():
            flat = p.ravel()
            for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                _, up = net.forward_batch(x[None])
                lp = float(np.mean((up - x[None]) ** 2))
                flat[idx] = orig - h
                _, dn = net.forward_batch(x[None])
                lm = float(np.mean((dn - x[None]) ** 2))
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                g = grads[name].ravel()[idx]
                assert abs(fd - g) / max(abs(fd), abs(g), 1e-8) < 1e-4, name

    def test_zero_loss_point_zero_gradients(self):
        # With all weights zero the reconstruction of a zero input is exact,
        # so every gradient vanishes.
        net = ae.AENetwork(4, 8, 2, seed=5)
        net.set_state({k: np.zeros_like(v) for k, v in net.parameters().items()})
        grads, _ = net.backward_batch(np.zeros((1, 4, 8)))
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    def test_dead_relu_zero_gradient(self):
        # Force the decoder's first transposed conv to output negatives
        # everywhere: its ReLU is dead, so its incoming weights get no grad.
        net = ae.AENetwork(4, 8, 2, seed=6)
        state = net.get_state()
        state["deconv1.b"] = np.full_like(state["deconv1.b"], -1e6)
        net.set_state(state)
        grads, _ = net.backward_batch(np.random.default_rng(7).random((1, 4, 8)))
        assert np.all(grads["deconv1.W"] == 0.0)
        assert np.all(grads["fc_dec.W"] == 0.0)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_no_cached_array_after_backward(self, batch):
        # Backward drops what it read, so the epoch-end loss pass and the
        # trained network hold no activations of the last minibatch.
        net = ae.AENetwork(8, 8, 2, seed=8)
        net.backward_batch(np.random.default_rng(9).random((batch, 8, 8)))
        for layer in net.encoder + net.decoder:
            for name, value in vars(layer).items():
                if name.startswith("_"):
                    assert not isinstance(value, (np.ndarray, list)), (type(layer).__name__, name)


class TestPlateauSchedule:
    def run_trace(self, losses):
        sched = ae.PlateauSchedule()
        lrs, stops = [], []
        for loss in losses:
            lr, stop, _ = sched.step(loss)
            lrs.append(lr)
            stops.append(stop)
        return lrs, stops

    def test_flat_20_drops_to_1e4(self):
        # Epoch 0 improves (from +inf); epochs 1..20 are flat.
        lrs, _ = self.run_trace([1.0] * 21)
        assert lrs[19] == pytest.approx(1e-3)
        assert lrs[20] == pytest.approx(1e-4)

    def test_flat_40_drops_to_floor(self):
        lrs, _ = self.run_trace([1.0] * 41)
        assert lrs[40] == pytest.approx(1e-5)

    def test_flat_60_stays_at_floor(self):
        lrs, _ = self.run_trace([1.0] * 61)
        assert lrs[60] == pytest.approx(1e-5)

    def test_early_stop_at_100(self):
        _, stops = self.run_trace([1.0] * 101)
        assert not any(stops[:100])
        assert stops[100]

    def test_improvement_resets_counters(self):
        losses = [1.0] + [1.0] * 19 + [0.5] + [0.5] * 19
        lrs, stops = self.run_trace(losses)
        assert lrs[-1] == pytest.approx(1e-3)
        assert not any(stops)

    def test_any_strict_decrease_counts(self):
        losses = [1.0 - 1e-12 * i for i in range(150)]
        lrs, stops = self.run_trace(losses)
        assert lrs[-1] == pytest.approx(1e-3)
        assert not any(stops)


class TestTraining:
    def test_identical_bars_identical_embeddings(self):
        bar = np.random.default_rng(0).random((8, 8))
        bars = np.stack([bar] * 6)
        result = ae.train_single_song(bars, d_c=3, max_epochs=30, batch_size=4, seed=1)
        initial = ae.AENetwork(8, 8, 3, seed=1)
        assert result.best_loss < np.mean((bar - initial.decode_batch(initial.encode_batch(bars))[0]) ** 2)
        Z = result.embedding
        assert Z.shape == (3, 6)
        assert np.abs(Z - Z[:, :1]).max() < 1e-6

    def test_zero_epochs_returns_initial_encoding(self):
        rng = np.random.default_rng(2)
        bars = rng.random((4, 8, 8))
        result = ae.train_single_song(bars, d_c=3, max_epochs=0, seed=3)
        reference = ae.AENetwork(8, 8, 3, seed=3).encode_batch(bars).T
        assert np.array_equal(result.embedding, reference)
        assert result.epochs_run == 0

    def test_training_determinism(self):
        rng = np.random.default_rng(4)
        bars = rng.random((6, 8, 8))
        settings = dict(d_c=2, max_epochs=15, batch_size=4, seed=5)
        a = ae.train_single_song(bars.copy(), **settings)
        b = ae.train_single_song(bars.copy(), **settings)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_best_loss_is_trace_minimum(self):
        rng = np.random.default_rng(6)
        bars = rng.random((5, 8, 8))
        result = ae.train_single_song(bars, d_c=2, max_epochs=25, batch_size=4, seed=7)
        assert result.best_loss <= result.loss_trace.min() + 1e-15

    def test_divergence_aborts(self):
        rng = np.random.default_rng(8)
        bars = rng.random((4, 8, 8)) * 1e160  # squared error overflows to inf
        with pytest.raises(FloatingPointError):
            ae.train_single_song(bars, d_c=2, max_epochs=5, seed=9)


# ---------------------------------------------------------------------------
# Test-side copy of the channels-first (NCHW) network that the channels-last
# layers replaced, run on the parameters of an `ae.AENetwork` network. The
# module's network must match it byte for byte.
# ---------------------------------------------------------------------------


def nchw_im2col(x, kh, kw, stride, pad):
    n, ci, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    h_out, w_out = ae._out_size(h, w, kh, kw, stride, pad)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :h_out, :w_out]
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, ci * kh * kw)
    return np.ascontiguousarray(col), h_out, w_out


def nchw_col2im(gcol, in_shape, kh, kw, stride, pad):
    n, ci, h, w = in_shape
    h_out, w_out = ae._out_size(h, w, kh, kw, stride, pad)
    g = gcol.reshape(n, h_out, w_out, ci, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    gxp = np.zeros((n, ci, h + 2 * pad, w + 2 * pad))
    for di in range(kh):
        for dj in range(kw):
            gxp[:, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride] += g[:, :, di, dj]
    return gxp[:, :, pad : pad + h, pad : pad + w]


def nchw_conv2d(x, K, stride=1, pad=1):
    n = x.shape[0]
    co, ci, kh, kw = K.shape
    col, h_out, w_out = nchw_im2col(x, kh, kw, stride, pad)
    out = col @ K.reshape(co, -1).T
    return out.reshape(n, h_out, w_out, co).transpose(0, 3, 1, 2), col


def nchw_conv2d_grad_input(gy, K, in_shape, stride=1, pad=1):
    n, co, h_out, w_out = gy.shape
    _, ci, kh, kw = K.shape
    gy2d = gy.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, co)
    gcol = gy2d @ K.reshape(co, -1)
    return nchw_col2im(gcol, (n, ci) + tuple(in_shape), kh, kw, stride, pad)


def nchw_conv2d_grad_kernel(col, gy, kernel_shape):
    n, co, h_out, w_out = gy.shape
    gy2d = gy.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, co)
    return (gy2d.T @ col).reshape(kernel_shape)


class NCHWLayer:
    def __init__(self, name=None, state=None):
        self.name = name
        if name is not None:
            self.W, self.b = state[name + ".W"].copy(), state[name + ".b"].copy()

    def params(self):
        return {} if self.name is None else {self.name + ".W": self.W, self.name + ".b": self.b}


class NCHWConv2D(NCHWLayer):
    def forward(self, x):
        self._in_shape = x.shape
        out, self._col = nchw_conv2d(x, self.W)
        return out + self.b[None, :, None, None]

    def backward(self, gy, grads):
        grads[self.name + ".W"] = nchw_conv2d_grad_kernel(self._col, gy, self.W.shape)
        grads[self.name + ".b"] = gy.sum(axis=(0, 2, 3))
        return nchw_conv2d_grad_input(gy, self.W, self._in_shape[2:])


class NCHWConvTranspose2D(NCHWLayer):
    def forward(self, z):
        self._z = z
        h, w = z.shape[2], z.shape[3]
        y = nchw_conv2d_grad_input(z, self.W, (2 * h, 2 * w), stride=2, pad=1)
        return y + self.b[None, :, None, None]

    def backward(self, gy, grads):
        gz, col = nchw_conv2d(gy, self.W, stride=2, pad=1)
        grads[self.name + ".W"] = nchw_conv2d_grad_kernel(col, self._z, self.W.shape)
        grads[self.name + ".b"] = gy.sum(axis=(0, 2, 3))
        return gz


class NCHWReLU(NCHWLayer):
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, gy, grads):
        return np.where(self._mask, gy, 0.0)


class NCHWMaxPool2x2(NCHWLayer):
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


class NCHWDense(NCHWLayer):
    def forward(self, x):
        self._x = x
        return x @ self.W.T + self.b

    def backward(self, gy, grads):
        grads[self.name + ".W"] = gy.T @ self._x
        grads[self.name + ".b"] = gy.sum(axis=0)
        return gy @ self.W


class NCHWReshape(NCHWLayer):
    def __init__(self, shape):
        super().__init__()
        self.shape = shape

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape((x.shape[0],) + self.shape)

    def backward(self, gy, grads):
        return gy.reshape(self._in_shape)


class NCHWNetwork:
    """The NCHW network, built on a copy of `net`'s parameters."""

    def __init__(self, net):
        state = net.get_state()
        self.n_bins, self.subdivision = net.n_bins, net.subdivision
        self.encoder = [
            NCHWConv2D("conv1", state), NCHWReLU(), NCHWMaxPool2x2(),
            NCHWConv2D("conv2", state), NCHWReLU(), NCHWMaxPool2x2(),
            NCHWReshape((-1,)), NCHWDense("fc_enc", state),
        ]
        self.decoder = [
            NCHWDense("fc_dec", state), NCHWReLU(),
            NCHWReshape((16, self.n_bins // 4, self.subdivision // 4)),
            NCHWConvTranspose2D("deconv1", state), NCHWReLU(),
            NCHWConvTranspose2D("deconv2", state), NCHWReLU(),
        ]

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

    def encode_batch(self, x):
        h = np.asarray(x, dtype=np.float64)[:, None, :, :]
        for layer in self.encoder:
            h = layer.forward(h)
        return h

    def forward_batch(self, x):
        z = self.encode_batch(x)
        h = z
        for layer in self.decoder:
            h = layer.forward(h)
        return z, h[:, 0]

    def backward_batch(self, x):
        x = np.asarray(x, dtype=np.float64)
        n_batch = x.shape[0]
        z, x_hat = self.forward_batch(x)
        grads = {}
        g = (2.0 * (x_hat - x) / (x.shape[1] * x.shape[2] * n_batch))[:, None]
        for layer in reversed(self.encoder + self.decoder):
            g = layer.backward(g, grads)
        return grads, float(np.mean((x_hat - x) ** 2))


def nchw_full_loss(net, bars):
    """The full-song loss of `ae._full_loss`, run on the NCHW network."""
    total = 0.0
    for start in range(0, len(bars), 32):
        chunk = bars[start : start + 32]
        _, x_hat = net.forward_batch(chunk)
        total += float(np.sum((chunk - x_hat) ** 2))
    return total / bars.size


def nchw_train_single_song(bars, d_c, seed=42, max_epochs=1000, batch_size=8):
    """The training loop of `ae.train_single_song`, run on the NCHW network."""
    b, f, s = bars.shape
    net = NCHWNetwork(ae.AENetwork(f, s, d_c, seed=seed))
    rng = np.random.default_rng(seed)
    optimizer = ae.AdamOptimizer(net.parameters())
    schedule = ae.PlateauSchedule()

    def full_loss():
        return nchw_full_loss(net, bars)

    best_state, best_loss = net.get_state(), full_loss()
    trace, lr, epochs_run = [], schedule.lr, 0
    for _ in range(max_epochs):
        order = rng.permutation(b)
        for start in range(0, b, batch_size):
            grads, _ = net.backward_batch(bars[order[start : start + batch_size]])
            optimizer.step(net.parameters(), grads, lr)
        epoch_loss = full_loss()
        trace.append(epoch_loss)
        epochs_run += 1
        lr, stop, improved = schedule.step(epoch_loss)
        if improved and epoch_loss < best_loss:
            best_loss, best_state = epoch_loss, net.get_state()
        if stop:
            break
    net.set_state(best_state)
    return net.encode_batch(bars).T, np.asarray(trace), best_loss, epochs_run


def assert_same_bytes(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


@pytest.fixture(scope="module")
def acceptance_bars(tmp_path_factory):
    """The nnlms bar patches (32 x 80 x 96) of the synthetic acceptance song."""
    directory = tmp_path_factory.mktemp("ae") / "song"
    grid, _ = synthetic.write_song_dir(directory)
    signal = features.load_wav(str(directory / "audio.wav"))
    tf = bars.barwise_tf(features.FeatureFrames(signal, "nnlms"), grid)
    return np.stack([tf.bar_patch(i) for i in range(tf.n_bars)])


class TestMatchesNCHWReference:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("n_bins,subdivision,d_c", [(80, 96, 8), (12, 16, 3), (8, 8, 2)])
    def test_backward_batch_byte_equal(self, n_bins, subdivision, d_c, batch):
        # Three SGD steps, so the biases move off zero. The ReLU zeros give max-pool ties.
        net = ae.AENetwork(n_bins, subdivision, d_c, seed=11)
        ref = NCHWNetwork(net)
        x = np.random.default_rng(12).random((batch, n_bins, subdivision))
        for step in range(3):
            grads, loss = net.backward_batch(x)
            ref_grads, ref_loss = ref.backward_batch(x)
            assert loss == ref_loss, f"step {step}"
            assert sorted(grads) == sorted(ref_grads)
            for name in grads:
                assert_same_bytes(grads[name], ref_grads[name], f"step {step} {name}")
            for params, g in ((net.parameters(), grads), (ref.parameters(), ref_grads)):
                for name, p in params.items():
                    p -= 0.01 * g[name]

    def test_forward_byte_equal(self):
        net = ae.AENetwork(8, 8, 2, seed=13)
        x = np.random.default_rng(14).random((5, 8, 8))
        z, x_hat = net.forward_batch(x)
        ref_z, ref_x_hat = NCHWNetwork(net).forward_batch(x)
        assert_same_bytes(z, ref_z, "z")
        assert_same_bytes(x_hat, ref_x_hat, "x_hat")

    def test_train_single_song_byte_equal(self, acceptance_bars):
        settings = dict(d_c=8, seed=42, max_epochs=30)
        result = ae.train_single_song(acceptance_bars, **settings)
        embedding, trace, best_loss, epochs_run = nchw_train_single_song(acceptance_bars, **settings)
        assert_same_bytes(result.loss_trace, trace, "loss_trace")
        assert_same_bytes(result.embedding, embedding, "embedding")
        assert result.best_loss == best_loss
        assert result.epochs_run == epochs_run == 30


class TestBlockwiseInferenceConv:
    @pytest.mark.parametrize("n_bins,subdivision,d_c", [(80, 96, 8), (12, 16, 3), (8, 8, 2)])
    def test_forward_batch_of_33_byte_equal(self, n_bins, subdivision, d_c):
        # 33 items run the inference convs in blocks of 8, 8, 8 and a merged 9.
        net = ae.AENetwork(n_bins, subdivision, d_c, seed=15)
        x = np.random.default_rng(16).random((33, n_bins, subdivision))
        z, x_hat = net.forward_batch(x)
        ref_z, ref_x_hat = NCHWNetwork(net).forward_batch(x)
        assert_same_bytes(z, ref_z, "z")
        assert_same_bytes(x_hat, ref_x_hat, "x_hat")

    @pytest.mark.parametrize("n_items", [1, 7, 8, 9, 17, 33])
    @pytest.mark.parametrize("n_bins,subdivision,d_c", [(80, 96, 8), (12, 16, 3), (8, 8, 2)])
    def test_inference_passes_byte_equal(self, n_bins, subdivision, d_c, n_items):
        # Fewer than 16 items make one block; 17 make blocks of 8 and 9. The
        # loss pass over 33 runs a chunk of 32 in blocks of 8 and a 1-item tail.
        net = ae.AENetwork(n_bins, subdivision, d_c, seed=23)
        ref = NCHWNetwork(net)
        x = np.random.default_rng(24).random((n_items, n_bins, subdivision))
        assert_same_bytes(net.encode_batch(x), ref.encode_batch(x), "encode_batch")
        z, x_hat = net.forward_batch(x)
        ref_z, ref_x_hat = ref.forward_batch(x)
        assert_same_bytes(z, ref_z, "z")
        assert_same_bytes(x_hat, ref_x_hat, "x_hat")
        assert ae._full_loss(net, x) == nchw_full_loss(ref, x)

    def test_loss_pass_peak_memory(self):
        # One 32-bar im2col matrix of conv1 is 17.7 MB; the pass peaked at
        # 26.3 MiB with it, at 15.5 MiB with the convs' im2col in blocks of
        # 8 bars, and at 8.5 MiB with every per-bar layer in such blocks.
        net = ae.AENetwork(80, 96, 8, seed=17)
        bars = np.random.default_rng(18).random((32, 80, 96))
        assert traced_peak(lambda: ae._full_loss(net, bars)) < 10 * 2**20

    def test_final_encoding_peak_memory(self):
        # 120 bars: the (120, 7680) flatten output is 7.0 MiB. With whole-batch
        # pools, ReLUs and biases the encoding peaked at 49.2 MiB, and at
        # 13.7 MiB with every per-bar layer in blocks of 8 bars.
        net = ae.AENetwork(80, 96, 8, seed=17)
        bars = np.random.default_rng(18).random((120, 80, 96))
        assert traced_peak(lambda: net.encode_batch(bars)) < 20 * 2**20


def pin_workers(monkeypatch, count):
    monkeypatch.setattr(workers, "worker_count", lambda: count)


def assert_same_result(result, expected):
    embedding, trace, best_loss, epochs_run = expected
    assert_same_bytes(result.loss_trace, trace, "loss_trace")
    assert_same_bytes(result.embedding, embedding, "embedding")
    assert result.best_loss == best_loss
    assert result.epochs_run == epochs_run


class TestOverlappedLossPass:
    """The loss pass beside the next epoch changes no byte and no error of the serial loop."""

    settings = dict(d_c=2, max_epochs=40, batch_size=4)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        bars = np.random.default_rng(19).random((10, 8, 8))
        expected = nchw_train_single_song(bars, seed=20, **self.settings)
        pin_workers(monkeypatch, 2)
        assert_same_result(ae.train_single_song(bars, seed=20, **self.settings), expected)
        pin_workers(monkeypatch, 1)

        def no_thread(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert_same_result(ae.train_single_song(bars, seed=20, **self.settings), expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lr_drops_and_early_stop_match_the_serial_loop(self, monkeypatch, seed):
        # A start LR of 0.1 makes the loss stall, so with these patiences the
        # loop switches between overlapped epochs and the serial ones before
        # each LR drop and the early stop.
        monkeypatch.setattr(ae.PlateauSchedule, "lr0", 0.1)
        monkeypatch.setattr(ae.PlateauSchedule, "patience", 2)
        monkeypatch.setattr(ae.PlateauSchedule, "early_stop_patience", 5)
        pin_workers(monkeypatch, 2)
        bars = np.random.default_rng(seed).random((6, 8, 8))
        result = ae.train_single_song(bars, seed=seed, **self.settings)
        assert_same_result(result, nchw_train_single_song(bars, seed=seed, **self.settings))
        schedule, lrs = ae.PlateauSchedule(), []
        for loss in result.loss_trace:
            lr, stop, _ = schedule.step(loss)
            lrs.append(lr)
        assert len(set(lrs)) >= 3, lrs
        assert stop and result.epochs_run < self.settings["max_epochs"]

    @pytest.mark.parametrize("bad_pass, bad_batch", [(3, None), (None, 4), (3, 4), (4, 4)])
    @pytest.mark.parametrize("bad", [np.nan, RuntimeError])
    def test_divergence_raises_the_serial_error(self, monkeypatch, bad, bad_pass, bad_batch):
        # The loss pass after epoch `bad_pass` and the first minibatch of
        # epoch `bad_batch` give `bad`: a non-finite loss, or an exception.
        bars = np.random.default_rng(21).random((6, 8, 8))  # two minibatches per epoch
        bad_call = None if bad_batch is None else 2 * bad_batch
        full_loss, backward_batch = ae._full_loss, ae.AENetwork.backward_batch

        def run(count):
            pin_workers(monkeypatch, count)
            passes, batches = itertools.count(-1), itertools.count()  # pass -1 is the initial loss

            def failing_full_loss(net, bars):
                if next(passes) == bad_pass:
                    if bad is RuntimeError:
                        raise RuntimeError(f"loss pass {bad_pass} failed")
                    return bad
                return full_loss(net, bars)

            def failing_backward_batch(net, x):
                grads, loss = backward_batch(net, x)
                if next(batches) == bad_call:
                    if bad is RuntimeError:
                        raise RuntimeError(f"minibatch of epoch {bad_batch} failed")
                    return grads, bad
                return grads, loss

            monkeypatch.setattr(ae, "_full_loss", failing_full_loss)
            monkeypatch.setattr(ae.AENetwork, "backward_batch", failing_backward_batch)
            before = threading.active_count()
            with pytest.raises((FloatingPointError, RuntimeError)) as raised:
                ae.train_single_song(bars, seed=22, **self.settings)
            assert threading.active_count() == before
            return type(raised.value), str(raised.value)

        serial = run(1)
        assert run(2) == serial
        first = min(e for e in (bad_pass, bad_batch) if e is not None)
        assert str(first) in serial[1]
