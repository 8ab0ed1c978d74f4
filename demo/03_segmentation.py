"""Structure segmentation walkthrough.

Runs the full pipeline on a synthetic song with a known sectional form
and shows the autosimilarity matrix (as ASCII art), the boundaries the
dynamic program picks, and how they compare to the ground truth. Run:

    python3 demo/03_segmentation.py
"""

import numpy as np

from barseg import bars, features, lowrank, segment, synthetic

STRUCTURE = synthetic.DEFAULT_STRUCTURE


def ascii_matrix(A, shades=" .:-=+*#%@"):
    scaled = np.clip((A + 1) / 2, 0, 1) * (len(shades) - 1)
    return "\n".join("".join(shades[int(v)] for v in row) for row in scaled)


def main():
    samples, grid, truth = synthetic.make_song(STRUCTURE)
    signal = features.AudioSignal(samples, sample_rate=44100)
    # FeatureFrames computes the feature only at the frames the bars read.
    tf_matrix = bars.barwise_tf(features.FeatureFrames(signal, "nnlms"), grid)

    model = lowrank.pca_compress(tf_matrix.values.T, 8)
    A = segment.cosine_autosimilarity(model.H)
    print(f"structure {STRUCTURE}")
    print("autosimilarity (one character per bar pair):")
    print(ascii_matrix(A))

    seg = segment.dp_segment(A).with_times(grid)
    print(f"\nestimated boundaries (bars):    {[int(v) for v in seg.boundaries_bars]}")
    print(f"estimated boundaries (seconds): {[float(v) for v in seg.boundaries_seconds]}")
    print(f"reference boundaries (seconds): {[float(v) for v in truth.times]}")
    print(f"segment sizes: {[int(v) for v in seg.segment_sizes()]}")


if __name__ == "__main__":
    main()
