"""Barwise compression walkthrough.

Builds the barwise TF matrix of a synthetic song and compresses it with
PCA, NMF, and the single-song autoencoder, comparing reconstruction
error and wall time at the same latent dimension. Run with:

    python3 demo/02_compression.py
"""

import time

import numpy as np

from barseg import autoencoder, bars, features, lowrank, synthetic

D_C = 8


def main():
    samples, grid, _ = synthetic.make_song()
    signal = features.AudioSignal(samples, sample_rate=44100)
    # FeatureFrames computes the feature only at the frames the bars read.
    tf_matrix = bars.barwise_tf(features.FeatureFrames(signal, "nnlms"), grid)
    X = tf_matrix.values.T  # bar columns
    norm_sq = np.sum(X**2)
    print(f"barwise TF: {tf_matrix.n_bars} bars x {X.shape[0]} dims, d_c={D_C}")

    for name, run in [
        ("pca", lambda: lowrank.pca_compress(X, D_C)),
        ("nmf", lambda: lowrank.nmf_compress(X, D_C)),
    ]:
        t0 = time.perf_counter()
        model = run()
        dt = time.perf_counter() - t0
        rel = np.sum((X - model.reconstruct()) ** 2) / norm_sq
        print(f"{name}: relative reconstruction error {rel:.4f} in {dt:.2f}s")

    # The autoencoder sees each bar as an f x s image; a short training
    # run is enough to illustrate the loss trace shape.
    patches = np.stack([tf_matrix.bar_patch(i) for i in range(tf_matrix.n_bars)])
    cfg = autoencoder.AEConfig(d_c=D_C, max_epochs=60)
    t0 = time.perf_counter()
    result = autoencoder.train_single_song(patches, cfg)
    dt = time.perf_counter() - t0
    print(f"ae: loss {result.loss_trace[0]:.4f} -> {result.best_loss:.4f} "
          f"over {result.epochs_run} epochs in {dt:.1f}s")
    print(f"ae embedding: {result.embedding.shape[0]} x {result.embedding.shape[1]}")


if __name__ == "__main__":
    main()
