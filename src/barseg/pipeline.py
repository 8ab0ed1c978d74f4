"""Per-song pipeline orchestration and dataset batch runs.

One run goes: audio -> feature -> barwise TF matrix -> compression
(pca | nmf | ae | none) -> cosine autosimilarity -> DP segmentation ->
optional hit-rate evaluation, with every artifact written to the output
directory (JSON result, boundary text, autosimilarity PGM).
"""

import contextlib
import os
import time
import traceback
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autoencoder, bars, evaluate, features, lowrank, matio, segment, workers

COMPRESSORS = ("pca", "nmf", "ae", "none")
# The per-tolerance means of a batch, in aggregate.json and aggregate.csv.
_MEAN_METRICS = ("precision", "recall", "f_measure")
# The artifacts run_song writes for a song, <song><suffix>, in the order it writes them.
_ARTIFACTS = (".boundaries.txt", ".autosim.pgm", ".result.json")


@dataclass
class PipelineConfig:
    feature: str = "nnlms"
    compressor: str = "pca"
    d_c: int = 8
    subdivision: int = 96
    max_segment: int = 32
    tolerances: tuple = evaluate.DEFAULT_TOLERANCES
    seed: int = 42
    n_fft: int = features.DEFAULT_N_FFT
    hop: int = features.DEFAULT_HOP
    audio_path: str = ""
    downbeats_path: str = ""
    annotations_path: str = ""
    output_dir: str = ""
    ae_max_epochs: int = 1000
    ae_batch_size: int = 8

    def __post_init__(self):
        if self.feature not in features.FEATURES:
            raise ValueError(f"unknown feature {self.feature!r}")
        if self.compressor not in COMPRESSORS:
            raise ValueError(f"unknown compressor {self.compressor!r}")
        if self.compressor != "none" and self.d_c < 1:
            raise ValueError("d_c is required unless compressor=none")
        if not (self.n_fft >= self.hop >= 1):
            raise ValueError(f"need n_fft >= hop >= 1, got n_fft={self.n_fft}, hop={self.hop}")
        for name in ("subdivision", "max_segment", "ae_max_epochs", "ae_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.compressor == "ae" and self.subdivision % 4:
            raise ValueError(f"subdivision must be divisible by 4, got {self.subdivision}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.tolerances = tuple(self.tolerances)  # so a result's config, which lists them, gives this config back
        if not self.tolerances or not all(0 < tol < np.inf for tol in self.tolerances):
            raise ValueError(f"tolerances must be finite and positive, got {self.tolerances}")
        evaluate.tolerance_keys(self.tolerances)


class StageError(RuntimeError):
    """Pipeline failure wrapper naming the stage that raised."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


def _compress(tf_matrix, cfg):
    """BarwiseTF -> d x b embedding matrix Z (columns are bars)."""
    X = tf_matrix.values.T  # n x b, bar columns
    if cfg.compressor == "none":
        return X
    if cfg.compressor == "pca":
        return lowrank.pca_compress(X, cfg.d_c).H
    if cfg.compressor == "nmf":
        if np.any(X < 0):
            raise ValueError(
                f"NMF needs nonnegative input but feature {cfg.feature!r} produced "
                "negative values; use chroma, mel, or nnlms"
            )
        return lowrank.nmf_compress(X, cfg.d_c, seed=cfg.seed).H
    patches = tf_matrix.values.reshape(tf_matrix.n_bars, tf_matrix.n_bins, tf_matrix.subdivision)
    return autoencoder.train_single_song(
        patches, cfg.d_c, cfg.seed, max_epochs=cfg.ae_max_epochs, batch_size=cfg.ae_batch_size
    ).embedding


@contextlib.contextmanager
def _stage(name, timings=None):
    """Time the block into timings[name] and re-raise failures as StageError."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc
    if timings is not None:
        timings[name] = time.perf_counter() - t0


def run_song(cfg, song_id=None):
    """Execute the full pipeline for one song and write its artifacts, at one BLAS thread.

    Returns the dict its `<song>.result.json` holds. It removes the song's
    artifacts (`remove_artifacts`) before its first stage, and again if it raises.
    """
    song_id = _song_id(cfg, song_id)
    try:
        remove_artifacts(cfg, song_id)
        with workers.one_blas_thread():
            return _run_stages(cfg, song_id)
    except BaseException:
        remove_artifacts(cfg, song_id)
        raise


def _song_id(cfg, song_id=None):
    return song_id or os.path.splitext(os.path.basename(cfg.audio_path))[0]


def remove_artifacts(cfg, song_id=None):
    """Remove the artifacts `run_song(cfg, song_id)` writes, which would otherwise
    read as a later run's; one that cannot be removed stays."""
    if cfg.output_dir:
        for suffix in _ARTIFACTS:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(cfg.output_dir, _song_id(cfg, song_id) + suffix))


def _run_stages(cfg, song_id):
    """The stages of `run_song`, which clears the song's artifacts before them and if one fails."""
    timings = {}
    with _stage("load", timings):
        signal = features.load_wav(cfg.audio_path)
        grid = bars.load_downbeats(cfg.downbeats_path)
        ref = evaluate.load_annotations(cfg.annotations_path) if cfg.annotations_path else None
    with _stage("features", timings):
        # Lazy: checks its inputs here; the barwise_tf stage computes the
        # STFT and the feature at the frames the bars select.
        spec = features.FeatureFrames(signal, cfg.feature, n_fft=cfg.n_fft, hop=cfg.hop)
        # Downbeats past the audio end would give bars with no frames.
        grid, dropped = bars.drop_bars_past_end(grid, spec)
    if dropped:
        warnings.warn(f"song {song_id!r}: dropped {dropped} bars that start at or past the audio end",
                      stacklevel=3)  # run_song's caller
    # PCA and NMF give at most one component per bar; the AE's d_c is
    # bounded by its bottleneck instead. Fail before paying for features.
    if cfg.compressor in ("pca", "nmf") and cfg.d_c > grid.n_bars:
        raise ValueError(
            f"{cfg.compressor} needs d_c <= the number of bars, but d_c={cfg.d_c} "
            f"and song {song_id!r} has {grid.n_bars} bars"
        )
    with _stage("barwise_tf", timings):
        tf_matrix = bars.barwise_tf(spec, grid, subdivision=cfg.subdivision)
    # The later stages read only tf_matrix and grid, so the stored audio goes before compression.
    del signal, spec
    with _stage("compression", timings):
        Z = _compress(tf_matrix, cfg)
    with _stage("segmentation", timings):
        A = segment.cosine_autosimilarity(Z)
        seg = segment.dp_segment(A, max_segment=cfg.max_segment).with_times(grid)
    result = {
        "song_id": song_id,
        "config": {**asdict(cfg), "tolerances": list(cfg.tolerances)},
        "boundaries_bars": [int(v) for v in seg.boundaries_bars],
        "boundaries_seconds": [float(v) for v in seg.boundaries_seconds],
        "total_score": seg.total_score,
        "timings": timings,
    }
    if ref is not None:
        with _stage("evaluation", timings):
            est = evaluate.BoundarySet(seg.boundaries_seconds)
            result["eval"] = evaluate.evaluate_boundaries(est, ref, cfg.tolerances)
    if cfg.output_dir:
        with _stage("output"):
            boundaries_path, autosim_path, result_path = (
                os.path.join(cfg.output_dir, song_id + suffix) for suffix in _ARTIFACTS)
            # The result JSON vouches for the other two, so it is moved into place last.
            matio.write_in_place((boundaries_path, matio.write_text, _boundary_text(seg.boundaries_seconds)),
                                 (autosim_path, matio.write_pgm, A), (result_path, matio.write_json, result))
    return result


def _boundary_text(boundary_seconds):
    """Two-column start/end text, one segment per line."""
    return "".join(f"{s:.17g}\t{e:.17g}\n" for s, e in zip(boundary_seconds[:-1], boundary_seconds[1:]))


@workers.one_blas_thread()
def run_batch(dataset_dir, cfg):
    """Run every <dataset_dir>/<song>/ directory through the pipeline, at one BLAS thread.

    Songs share no model or data, so `workers.share` runs them two at a
    time in sorted order. Per-song failures are recorded and the batch
    continues. Returns (aggregate dict, results list, failures dict), in
    sorted song order whichever thread ran each song.
    """
    if not os.path.isdir(dataset_dir):
        raise ValueError(f"dataset directory not found: {dataset_dir}")
    out = os.path.realpath(cfg.output_dir) if cfg.output_dir else None  # no song, even inside dataset_dir
    paths = (os.path.join(dataset_dir, d) for d in os.listdir(dataset_dir))
    song_dirs = sorted(os.path.basename(p) for p in paths if os.path.isdir(p) and os.path.realpath(p) != out)
    if not song_dirs:
        raise ValueError(f"no song directories in {dataset_dir}")

    outcomes = {}  # song -> its result dict, or the text of its failure

    def work(song, _):
        base = os.path.join(dataset_dir, song)
        annotations = os.path.join(base, "annotations.txt")
        song_cfg = replace(
            cfg,
            audio_path=os.path.join(base, "audio.wav"),
            downbeats_path=os.path.join(base, "downbeats.txt"),
            annotations_path=annotations if os.path.exists(annotations) else "",
            output_dir=os.path.join(cfg.output_dir, song) if cfg.output_dir else "",
        )
        try:
            outcomes[song] = run_song(song_cfg, song_id=song)
        except Exception as exc:
            outcomes[song] = f"{exc}\n{traceback.format_exc(limit=2)}"

    workers.share(song_dirs, work)
    results = [outcomes[song] for song in song_dirs if isinstance(outcomes[song], dict)]
    failures = {song: outcomes[song] for song in song_dirs if isinstance(outcomes[song], str)}

    aggregate = {"n_songs": len(song_dirs), "n_ok": len(results), "n_failed": len(failures)}
    per_tol = {}
    for key in evaluate.tolerance_keys(cfg.tolerances):
        rows = [r["eval"][key] for r in results if "eval" in r]
        if rows:
            per_tol[key] = {m: float(np.mean([row[m] for row in rows])) for m in _MEAN_METRICS}
            per_tol[key]["n_songs"] = len(rows)
    aggregate["mean"] = per_tol

    if cfg.output_dir:
        failed = {k: str(v).splitlines()[0] for k, v in failures.items()}
        matio.write_in_place(
            (os.path.join(cfg.output_dir, "aggregate.json"), matio.write_json, {**aggregate, "failures": failed}),
            (os.path.join(cfg.output_dir, "aggregate.csv"), matio.write_text, _aggregate_csv(per_tol)))
    return aggregate, results, failures


def _aggregate_csv(per_tol):
    """aggregate.csv: a header, then each tolerance's means and song count."""
    rows = [("tolerance", *_MEAN_METRICS, "n_songs")]
    rows += [(key, *(format(row[m], ".17g") for m in _MEAN_METRICS), str(row["n_songs"]))
             for key, row in per_tol.items()]
    return "".join(",".join(row) + "\n" for row in rows)
