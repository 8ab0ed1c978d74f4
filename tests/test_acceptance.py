"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion is checked at its stated tolerance and runtime budget; run
with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from barseg import autoencoder as ae
from barseg import evaluate, lowrank, pipeline, segment, synthetic

from dp_oracle import enumerate_best_score


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException as exc:
        label = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"[{label}] {name}")
        raise
    print(f"[PASS] {name}")


def random_autosimilarity(rng, b):
    M = rng.uniform(-1, 1, size=(b, b))
    A = np.clip((M + M.T) / 2, -1, 1)
    np.fill_diagonal(A, 1.0)
    return A


@pytest.fixture(scope="module")
def synthetic_song(tmp_path_factory):
    directory = tmp_path_factory.mktemp("e2e") / "song"
    synthetic.write_song_dir(directory, synthetic.DEFAULT_STRUCTURE)
    return directory


class TestAcceptance:
    def test_dp_oracle_equivalence(self):
        with criterion("DP oracle equivalence (50 random, b in 6..16, 1e-12, <10s)"):
            rng = np.random.default_rng(2024)
            start = time.perf_counter()
            checked = 0
            while checked < 50:
                b = int(rng.integers(6, 17))
                A = random_autosimilarity(rng, b)
                if segment.compute_ck8max(A) <= 0:
                    continue
                dp_score = segment.dp_segment(A).total_score
                oracle = enumerate_best_score(A)
                assert abs(dp_score - oracle) <= 1e-12, f"b={b}"
                checked += 1
            assert time.perf_counter() - start < 10.0

    def test_kernel_penalty_tables(self):
        with criterion("kernel/penalty closed forms exact for n in 1..64"):
            for n in range(1, 65):
                dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
                expected = np.where(dist == 0, 0.0, np.where(dist <= 4, 2.0, 1.0))
                assert np.array_equal(segment.kernel(n), expected)
                if n == 8:
                    p = 0.0
                elif n == 4:
                    p = 0.25
                else:
                    p = 0.5 if n % 2 == 0 else 1.0
                assert segment.penalty(n) == p

    def test_score_fixed_point(self):
        with criterion("segment with cost == c_k8_max at n=8 scores exactly 1.0"):
            rng = np.random.default_rng(3)
            for _ in range(5):
                A = random_autosimilarity(rng, 8)
                A = np.abs(A)  # keep c_k8_max positive
                np.fill_diagonal(A, 1.0)
                c8 = segment.compute_ck8max(A)
                # b == 8 has a single size-8 window, so its cost is c_k8_max.
                assert segment.segment_score(A, 0, 8, c8) == 1.0

    def test_pca_optimality(self):
        with criterion("PCA matches Eckart-Young oracle (20 random 50x30, rel 1e-9)"):
            rng = np.random.default_rng(4)
            for trial in range(20):
                X = rng.standard_normal((50, 30)) * rng.uniform(0.1, 10)
                d_c = int(rng.integers(1, 15))
                model = lowrank.pca_compress(X, d_c)
                err = np.linalg.norm(X - model.reconstruct())
                centered = X - X.mean(axis=1, keepdims=True)
                eigvals = np.linalg.eigvalsh(centered.T @ centered)[::-1]
                oracle = float(np.sqrt(np.maximum(eigvals[d_c:], 0.0).sum()))
                assert err == pytest.approx(oracle, rel=1e-9, abs=1e-12), f"trial {trial}"

    def test_nmf_monotonicity_and_recovery(self):
        with criterion("NMF loss nonincreasing (slack 1e-12) + exact-rank recovery"):
            rng = np.random.default_rng(5)
            for trial in range(10):
                X = rng.random((40, 20)) * rng.uniform(0.5, 5)
                for d_c in (2, 4, 8):
                    model = lowrank.nmf_compress(X, d_c, seed=trial)
                    assert np.all(np.diff(model.loss_trace) <= 1e-12), f"trial {trial} d_c={d_c}"
            for rank in (1, 2, 4):
                W0 = rng.random((40, rank)) + 0.1
                H0 = rng.random((rank, 20)) + 0.1
                X = W0 @ H0
                model = lowrank.nmf_compress(X, rank, seed=0)
                assert model.loss_trace[-1] <= 1e-8 * np.sum(X**2), f"rank {rank}"

    def test_ae_gradient_check(self):
        with criterion("AE finite-difference gradients < 1e-4 on tiny net (<30s)"):
            start = time.perf_counter()
            net = ae.AENetwork(n_bins=4, subdivision=8, d_c=2, seed=0)
            x = np.random.default_rng(1).random((2, 4, 8))
            grads, _ = net.backward_batch(x)
            params = net.parameters()
            h = 1e-5
            rng = np.random.default_rng(2)
            for name, p in params.items():
                flat = p.ravel()
                for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    _, up = net.forward_batch(x)
                    lp = float(np.mean((up - x) ** 2))
                    flat[idx] = orig - h
                    _, dn = net.forward_batch(x)
                    lm = float(np.mean((dn - x) ** 2))
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    g = grads[name].ravel()[idx]
                    rel = abs(fd - g) / max(abs(fd), abs(g), 1e-8)
                    assert rel < 1e-4, f"{name}[{idx}]: rel={rel}"
            assert time.perf_counter() - start < 30.0

    def test_ae_schedule_conformance(self):
        with criterion("AE plateau schedule: exact LR-drop and stop epochs"):
            # 1 improving epoch then flat: LR drops after 20 non-improving
            # epochs, again after 40, then sits at the 1e-5 floor.
            sched = ae.PlateauSchedule()
            lrs, stops = [], []
            for epoch in range(130):
                lr, stop, _ = sched.step(1.0 if epoch == 0 else 1.0)
                lrs.append(lr)
                stops.append(stop)
            assert lrs[19] == pytest.approx(1e-3)
            assert lrs[20] == pytest.approx(1e-4)
            assert lrs[39] == pytest.approx(1e-4)
            assert lrs[40] == pytest.approx(1e-5)
            assert lrs[60] == pytest.approx(1e-5)  # floored
            # Early stop fires at exactly 100 improvement-free epochs.
            assert stops.index(True) == 100
            # An improvement resets both counters.
            sched = ae.PlateauSchedule()
            losses = [1.0] + [1.0] * 19 + [0.5] + [0.5] * 19
            lr_after = [sched.step(v)[0] for v in losses]
            assert all(lr == pytest.approx(1e-3) for lr in lr_after)
            # The epoch cap bounds training even while the loss improves.
            bars = np.random.default_rng(8).random((4, 4, 8))
            result = ae.train_single_song(bars, d_c=2, max_epochs=3, batch_size=2)
            assert result.epochs_run == 3

    @pytest.mark.parametrize("compressor,budget", [
        ("none", 10.0), ("pca", 10.0), ("nmf", 10.0), ("ae", 300.0),
    ])
    def test_synthetic_end_to_end(self, synthetic_song, tmp_path, compressor, budget):
        with criterion(f"synthetic end-to-end {compressor}: F(0.5s)=1.0 in <{budget:g}s"):
            cfg = pipeline.PipelineConfig(
                feature="nnlms",
                compressor=compressor,
                d_c=8,
                audio_path=str(synthetic_song / "audio.wav"),
                downbeats_path=str(synthetic_song / "downbeats.txt"),
                annotations_path=str(synthetic_song / "annotations.txt"),
                output_dir=str(tmp_path),
            )
            start = time.perf_counter()
            result = pipeline.run_song(cfg)
            elapsed = time.perf_counter() - start
            assert result["eval"]["0.5"]["f_measure"] == 1.0, result["boundaries_seconds"]
            assert elapsed < budget, f"took {elapsed:.1f}s; stage timings {result['timings']}"

    def test_metric_hand_cases(self):
        with criterion("hit-rate hand cases incl. one-to-one matching trap"):
            est = ref = np.array([0.0, 10.0, 20.0])
            for tol in (0.5, 3.0):
                res = evaluate.hit_rate(est, ref, tol)
                assert (res["precision"], res["recall"], res["f_measure"]) == (1.0, 1.0, 1.0)

            est = np.array([0.0, 10.0, 20.0])
            ref = np.array([0.0, 10.4, 20.0])
            assert evaluate.hit_rate(est, ref, 0.5)["f_measure"] == 1.0
            res = evaluate.hit_rate(est, ref, 0.3)
            assert res["n_matched"] == 2
            assert res["precision"] == pytest.approx(2 / 3)
            assert res["recall"] == pytest.approx(2 / 3)
            assert res["f_measure"] == pytest.approx(2 / 3)

            res = evaluate.hit_rate(np.array([10.0, 10.2]), np.array([10.1]), 0.5)
            assert res["n_matched"] == 1
            assert res["precision"] == 0.5
            assert res["recall"] == 1.0
            assert res["f_measure"] == pytest.approx(2 / 3)

    def test_performance_envelope(self):
        with criterion("compression timing: pca < 1s, nmf < 3s on 7680x100, d_c=24"):
            rng = np.random.default_rng(6)
            X = rng.random((7680, 100))
            start = time.perf_counter()
            lowrank.pca_compress(X, 24)
            pca_time = time.perf_counter() - start
            start = time.perf_counter()
            model = lowrank.nmf_compress(X, 24, seed=42)
            nmf_time = time.perf_counter() - start
            iters = len(model.loss_trace) - 1
            assert pca_time < 1.0, f"pca took {pca_time:.2f}s"
            assert nmf_time < 3.0, (
                f"nmf took {nmf_time:.2f}s over {iters} iterations"
                f" ({nmf_time / max(iters, 1) * 1e3:.2f} ms per iteration)"
            )

    def test_dataset_benchmark_documented_not_run(self):
        with criterion("external dataset benchmark: documented, not CI-run"):
            # Needs licensed audio plus third-party downbeat estimates; see
            # the README for how to run the batch sweep if you have them.
            pytest.skip("requires licensed dataset audio; run manually via `barseg batch`")
