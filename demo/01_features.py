"""Feature extraction walkthrough.

Renders a short synthetic song, then computes each supported
time-frequency representation from the same power STFT and prints a
small summary of every matrix. Run with:

    python3 demo/01_features.py
"""

import numpy as np

from barseg import features, synthetic


def main():
    samples, grid, _ = synthetic.make_song("AABB", bar_seconds=0.5)
    signal = features.AudioSignal(samples, sample_rate=44100)
    print(f"song: {signal.samples.size} samples @ {signal.sample_rate} Hz, "
          f"{grid.n_bars} bars")

    for kind in ("chroma", "mel", "lms", "nnlms", "mfcc"):
        v = features.compute_feature(signal, kind)
        print(f"{kind:>6}: {v.shape[0]:3d} bins x {v.shape[1]} frames, "
              f"range [{v.min():.3f}, {v.max():.3f}]")

    # Chroma concentrates energy on the pitch classes of the chord being
    # played; show the dominant pitch class per bar.
    chroma = features.compute_feature(signal, "chroma")
    frames_per_bar = chroma.shape[1] // grid.n_bars
    names = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]
    for bar in range(grid.n_bars):
        block = chroma[:, bar * frames_per_bar:(bar + 1) * frames_per_bar]
        top = int(np.argmax(block.sum(axis=1)))
        print(f"bar {bar}: dominant pitch class {names[top]}")


if __name__ == "__main__":
    main()
