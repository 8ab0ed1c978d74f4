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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autoencoder, bars, evaluate, features, lowrank, matio, segment

COMPRESSORS = ("pca", "nmf", "ae", "none")


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
        if self.feature not in features.FEATURE_KINDS or self.feature == "stft_power":
            raise ValueError(f"unknown feature {self.feature!r}")
        if self.compressor not in COMPRESSORS:
            raise ValueError(f"unknown compressor {self.compressor!r}")
        if self.compressor != "none" and self.d_c < 1:
            raise ValueError("d_c is required unless compressor=none")

    def echo(self):
        d = asdict(self)
        d["tolerances"] = list(self.tolerances)
        return d


@dataclass
class SongResult:
    song_id: str
    config: dict
    boundaries_bars: list
    boundaries_seconds: list
    total_score: float
    timings: dict
    eval_report: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "song_id": self.song_id,
            "config": self.config,
            "boundaries_bars": self.boundaries_bars,
            "boundaries_seconds": self.boundaries_seconds,
            "total_score": self.total_score,
            "timings": self.timings,
        }
        if self.eval_report:
            out["eval"] = self.eval_report
        return out


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
    ae_cfg = autoencoder.AEConfig(
        d_c=cfg.d_c, seed=cfg.seed, max_epochs=cfg.ae_max_epochs, batch_size=cfg.ae_batch_size
    )
    patches = np.stack([tf_matrix.bar_patch(i) for i in range(tf_matrix.n_bars)])
    return autoencoder.train_single_song(patches, ae_cfg).embedding


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
    """Execute the full pipeline for one song and write its artifacts."""
    song_id = song_id or os.path.splitext(os.path.basename(cfg.audio_path))[0]
    timings = {}
    with _stage("load", timings):
        signal = features.load_wav(cfg.audio_path)
        grid = bars.load_downbeats(cfg.downbeats_path)
    with _stage("features", timings):
        # Lazy: checks its inputs here; the barwise_tf stage computes the
        # STFT and the feature at the frames the bars select.
        spec = features.FeatureFrames(signal, cfg.feature, n_fft=cfg.n_fft, hop=cfg.hop)
    with _stage("barwise_tf", timings):
        tf_matrix = bars.barwise_tf(spec, grid, subdivision=cfg.subdivision)
    with _stage("compression", timings):
        Z = _compress(tf_matrix, cfg)
    with _stage("segmentation", timings):
        A = segment.cosine_autosimilarity(Z)
        seg = segment.dp_segment(A, max_segment=cfg.max_segment).with_times(grid)
    eval_report = {}
    if cfg.annotations_path:
        with _stage("evaluation", timings):
            ref = evaluate.load_annotations(cfg.annotations_path)
            est = evaluate.BoundarySet(seg.boundaries_seconds)
            eval_report = evaluate.evaluate_boundaries(est, ref, cfg.tolerances).to_dict()
    result = SongResult(
        song_id=song_id,
        config=cfg.echo(),
        boundaries_bars=[int(v) for v in seg.boundaries_bars],
        boundaries_seconds=[float(v) for v in seg.boundaries_seconds],
        total_score=seg.total_score,
        timings=timings,
        eval_report=eval_report,
    )
    if cfg.output_dir:
        with _stage("output"):
            os.makedirs(cfg.output_dir, exist_ok=True)
            prefix = os.path.join(cfg.output_dir, song_id)
            matio.write_json(prefix + ".result.json", result.to_dict())
            write_boundary_file(prefix + ".boundaries.txt", seg.boundaries_seconds)
            matio.write_pgm(prefix + ".autosim.pgm", A)
    return result


def write_boundary_file(path, boundary_seconds):
    """Two-column start/end text, one segment per line."""
    with open(path, "w") as fh:
        for start, end in zip(boundary_seconds[:-1], boundary_seconds[1:]):
            fh.write(f"{format(float(start), '.17g')}\t{format(float(end), '.17g')}\n")


def run_batch(dataset_dir, cfg):
    """Run every <dataset_dir>/<song>/ directory through the pipeline.

    Per-song failures are recorded and the batch continues. Returns
    (aggregate dict, results list, failures dict).
    """
    if not os.path.isdir(dataset_dir):
        raise ValueError(f"dataset directory not found: {dataset_dir}")
    song_dirs = sorted(
        d for d in os.listdir(dataset_dir) if os.path.isdir(os.path.join(dataset_dir, d))
    )
    if not song_dirs:
        raise ValueError(f"no song directories in {dataset_dir}")

    results, failures = [], {}
    for song in song_dirs:
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
            results.append(run_song(song_cfg, song_id=song))
        except Exception as exc:
            failures[song] = f"{exc}\n{traceback.format_exc(limit=2)}"
    results.sort(key=lambda r: r.song_id)

    aggregate = {"n_songs": len(song_dirs), "n_ok": len(results), "n_failed": len(failures)}
    evaluated = [r for r in results if r.eval_report]
    per_tol = {}
    for tol in cfg.tolerances:
        key = format(tol, "g")
        rows = [r.eval_report[key] for r in evaluated if key in r.eval_report]
        if rows:
            per_tol[key] = {
                "precision": float(np.mean([r["precision"] for r in rows])),
                "recall": float(np.mean([r["recall"] for r in rows])),
                "f_measure": float(np.mean([r["f_measure"] for r in rows])),
                "n_songs": len(rows),
            }
    aggregate["mean"] = per_tol

    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        matio.write_json(os.path.join(cfg.output_dir, "aggregate.json"), {
            **aggregate,
            "failures": {k: str(v).splitlines()[0] for k, v in failures.items()},
        })
        with open(os.path.join(cfg.output_dir, "aggregate.csv"), "w") as fh:
            fh.write("tolerance,precision,recall,f_measure,n_songs\n")
            for key, row in per_tol.items():
                fh.write(
                    f"{key},{format(row['precision'], '.17g')},{format(row['recall'], '.17g')},"
                    f"{format(row['f_measure'], '.17g')},{row['n_songs']}\n"
                )
    return aggregate, results, failures
