import numpy as np
import pytest

from barseg import autoencoder as ae


class TestInitNetwork:
    def test_flatten_size_mel(self):
        net = ae.init_network(80, 96, 8)
        assert net.flat_size == 16 * 20 * 24 == 7680

    def test_flatten_size_chroma(self):
        net = ae.init_network(12, 96, 8)
        assert net.f_pad == 12
        assert net.flat_size == 16 * 3 * 24 == 1152

    def test_seed_determinism(self):
        a = ae.init_network(12, 8, 4, seed=99)
        b = ae.init_network(12, 8, 4, seed=99)
        for k, v in a.parameters().items():
            assert np.array_equal(v, b.parameters()[k]), k

    def test_biases_zero_weights_bounded(self):
        net = ae.init_network(16, 16, 4, seed=0)
        for name, p in net.parameters().items():
            if name.endswith(".b"):
                assert np.all(p == 0.0)
        # He-uniform: |w| <= sqrt(6/fan_in)
        params = net.parameters()
        assert np.abs(params["conv1.W"]).max() <= np.sqrt(6.0 / 9)
        assert np.abs(params["fc_enc.W"]).max() <= np.sqrt(6.0 / net.flat_size)

    def test_non_compressing_latent_rejected(self):
        with pytest.raises(ValueError, match="compression"):
            ae.init_network(4, 8, 16 * 1 * 2)

    def test_frequency_padding(self):
        net = ae.init_network(10, 8, 4)
        assert net.f_pad == 12
        z, x_hat = net.forward_batch(np.random.default_rng(0).random((1, 10, 8)))
        assert x_hat.shape == (1, 10, 8)


class TestForward:
    def test_zero_weights_zero_output(self):
        net = ae.init_network(8, 8, 3, seed=1)
        net.set_state({k: np.zeros_like(v) for k, v in net.parameters().items()})
        z, x_hat = net.forward_batch(np.zeros((1, 8, 8)))
        assert np.all(z == 0.0)
        assert np.all(x_hat == 0.0)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(2)
        net = ae.init_network(12, 16, 4, seed=3)
        for _ in range(5):
            _, x_hat = net.forward_batch(rng.standard_normal((1, 12, 16)))
            assert x_hat.min() >= 0.0

    def test_latent_dimension(self):
        net = ae.init_network(12, 16, 5, seed=4)
        z, _ = net.forward_batch(np.ones((1, 12, 16)))
        assert z.shape == (1, 5)

    def test_encoder_positive_homogeneity(self):
        # conv + ReLU + maxpool is positively homogeneous when biases are 0
        # and all pre-activations stay positive.
        net = ae.init_network(8, 8, 3, seed=5)
        state = net.get_state()
        state["conv1.W"] = np.abs(state["conv1.W"])
        state["conv2.W"] = np.abs(state["conv2.W"])
        net.set_state(state)
        x = np.random.default_rng(6).random((1, 8, 8)) + 0.5

        def conv_stages(h):
            for layer in net.encoder[:6]:
                h = layer.forward(h)
            return h

        h1 = conv_stages(net._pad_input(x[:, None]))
        h2 = conv_stages(net._pad_input(2 * x[:, None]))
        assert np.allclose(h2, 2 * h1, rtol=1e-12)

    def test_encoding_locality(self):
        # encode(bar) depends only on that bar, given fixed parameters.
        net = ae.init_network(8, 8, 3, seed=7)
        rng = np.random.default_rng(8)
        bar = rng.random((8, 8))
        other1, other2 = rng.random((8, 8)), rng.random((8, 8))
        z_a = net.encode_batch(np.stack([bar, other1]))[0]
        z_b = net.encode_batch(np.stack([bar, other2]))[0]
        assert np.array_equal(z_a, z_b)


class TestMseLoss:
    def test_equal_inputs(self):
        x = np.random.default_rng(0).random((4, 4))
        assert ae.mse_loss(x, x) == 0.0

    def test_ones_vs_zeros(self):
        assert ae.mse_loss(np.ones((3, 5)), np.zeros((3, 5))) == 1.0

    def test_arithmetic(self):
        assert ae.mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5


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
        net = ae.init_network(4, 8, 2, seed=0)
        x = np.random.default_rng(1).random((4, 8))
        assert self.finite_difference_check(net, x) < 1e-4

    def test_finite_difference_every_layer_touched(self):
        # Per-tensor check so no layer type escapes coverage.
        net = ae.init_network(4, 8, 2, seed=2)
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
        net = ae.init_network(4, 8, 2, seed=5)
        net.set_state({k: np.zeros_like(v) for k, v in net.parameters().items()})
        grads, _ = net.backward_batch(np.zeros((1, 4, 8)))
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    def test_dead_relu_zero_gradient(self):
        # Force the decoder's first transposed conv to output negatives
        # everywhere: its ReLU is dead, so its incoming weights get no grad.
        net = ae.init_network(4, 8, 2, seed=6)
        state = net.get_state()
        state["deconv1.b"] = np.full_like(state["deconv1.b"], -1e6)
        net.set_state(state)
        grads, _ = net.backward_batch(np.random.default_rng(7).random((1, 4, 8)))
        assert np.all(grads["deconv1.W"] == 0.0)
        assert np.all(grads["fc_dec.W"] == 0.0)


class TestPlateauSchedule:
    def run_trace(self, losses, **kwargs):
        sched = ae.PlateauSchedule(**kwargs)
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
        cfg = ae.AEConfig(d_c=3, max_epochs=30, batch_size=4, seed=1)
        result = ae.train_single_song(bars, cfg)
        assert result.best_loss < ae.mse_loss(bar, ae.init_network(8, 8, 3, seed=1).decode_batch(
            ae.init_network(8, 8, 3, seed=1).encode_batch(bars))[0])
        Z = result.embedding
        assert Z.shape == (3, 6)
        assert np.abs(Z - Z[:, :1]).max() < 1e-6

    def test_zero_epochs_returns_initial_encoding(self):
        rng = np.random.default_rng(2)
        bars = rng.random((4, 8, 8))
        cfg = ae.AEConfig(d_c=3, max_epochs=0, seed=3)
        result = ae.train_single_song(bars, cfg)
        reference = ae.init_network(8, 8, 3, seed=3).encode_batch(bars).T
        assert np.array_equal(result.embedding, reference)
        assert result.epochs_run == 0

    def test_training_determinism(self):
        rng = np.random.default_rng(4)
        bars = rng.random((6, 8, 8))
        cfg = ae.AEConfig(d_c=2, max_epochs=15, batch_size=4, seed=5)
        a = ae.train_single_song(bars.copy(), cfg)
        b = ae.train_single_song(bars.copy(), cfg)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_best_loss_is_trace_minimum(self):
        rng = np.random.default_rng(6)
        bars = rng.random((5, 8, 8))
        cfg = ae.AEConfig(d_c=2, max_epochs=25, batch_size=4, seed=7)
        result = ae.train_single_song(bars, cfg)
        assert result.best_loss <= result.loss_trace.min() + 1e-15

    def test_divergence_aborts(self):
        rng = np.random.default_rng(8)
        bars = rng.random((4, 8, 8)) * 1e160  # squared error overflows to inf
        cfg = ae.AEConfig(d_c=2, max_epochs=5, seed=9)
        with pytest.raises(FloatingPointError):
            ae.train_single_song(bars, cfg)


class TestSerialization:
    def test_loss_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        ae.write_loss_trace_csv(path, [0.5, 0.25])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert lines[1] == "0,0.5"
        assert len(lines) == 3
