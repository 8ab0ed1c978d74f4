"""Boundary evaluation walkthrough.

Shows how the hit-rate metric behaves at the strict (0.5s) and lenient
(3s) tolerances, why one-to-one matching matters, and what downbeat
alignment does to an annotation. Run with:

    python3 demo/04_evaluation.py
"""

import numpy as np

from barseg import evaluate
from barseg.bars import BarGrid


def show(label, est, ref, tol):
    res = evaluate.hit_rate(np.asarray(est), np.asarray(ref), tol)
    print(f"{label} (tol {tol}s): P={res['precision']:.3f} R={res['recall']:.3f} "
          f"F={res['f_measure']:.3f} matched={res['n_matched']}")


def main():
    ref = [0.0, 12.0, 24.0, 36.0, 48.0]

    # A slightly-off estimate passes the lenient tolerance but not the
    # strict one.
    est = [0.0, 13.2, 24.0, 35.1, 48.0]
    show("slightly off ", est, ref, 0.5)
    show("slightly off ", est, ref, 3.0)

    # Over-segmenting hurts precision but not recall.
    est = [0.0, 6.0, 12.0, 18.0, 24.0, 30.0, 36.0, 42.0, 48.0]
    show("over-segmented", est, ref, 0.5)

    # Two estimates near one reference: only one of them can match.
    show("matching trap ", [10.0, 10.2], [10.1], 0.5)

    # Annotations snapped to the downbeat grid before scoring.
    grid = BarGrid(np.arange(0.0, 50.0, 2.0))
    annot = evaluate.BoundarySet(np.array([0.3, 12.9, 24.0, 36.8, 47.2]))
    aligned = evaluate.align_to_downbeats(annot, grid)
    print(f"annotation:       {[float(t) for t in annot.times]}")
    print(f"downbeat-aligned: {[float(t) for t in aligned.times]}")

    report = evaluate.evaluate_boundaries(np.array([0.0, 12.0, 24.0]), np.asarray(ref))
    print("full report:", report)


if __name__ == "__main__":
    main()
