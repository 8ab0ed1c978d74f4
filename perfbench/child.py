"""Run one barseg CLI invocation in this fresh process and report its cost.

Usage: python3 child.py REPORT TRACE -- BARSEG_ARGS...

`wall_s` and `cpu_s` cover `barseg.cli.main()` only, not interpreter
start or import; `peak_rss_mb` is the process's `ru_maxrss`. With TRACE=1 the public functions that the pipeline calls
through module attributes are wrapped from outside, and the spans are
kept in memory and written with the report at the end.
"""

import ctypes
import json
import os
import resource
import sys
import time


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def blas_threads():
    """Threads the loaded OpenBLAS will use, or 0 if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


class Tracer:
    """Spans around module-attribute calls: name, start, end, parent, song."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.song = ""

    def wrap(self, owner, attr, name, info=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else -1, "song": self.song}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self.stack.pop()
            if info is not None:
                span.update(info(out, *args, **kwargs))
            return out

        setattr(owner, attr, traced)

    def install(self):
        from barseg import autoencoder, bars, evaluate, features, lowrank, matio, pipeline, segment

        def frames(spec, signal, kind, n_fft=features.DEFAULT_N_FFT, hop=features.DEFAULT_HOP):
            return {"frames": int(spec.n_frames), "spec_bytes": (n_fft // 2 + 1) * int(spec.n_frames) * 8}

        def bar_count(tf, *args, **kwargs):
            return {"bars": int(tf.n_bars), "subdivision": int(tf.subdivision)}

        def nmf_info(model, X, *args, **kwargs):
            return {"iters": len(model.loss_trace) - 1,
                    "rel_loss": float(model.loss_trace[-1]) / float((X * X).sum())}

        def ae_info(result, *args, **kwargs):
            return {"epochs": int(result.epochs_run), "best_loss": float(result.best_loss)}

        def size_of(_, path, *args, **kwargs):
            return {"bytes": os.path.getsize(path)}

        self.wrap(pipeline, "run_song", "pipeline.run_song")
        run_song = pipeline.run_song

        def run_song_named(cfg, song_id=None):
            # Outermost, so the run_song span and its children carry the id;
            # the default mirrors run_song's own.
            self.song = song_id or os.path.splitext(os.path.basename(cfg.audio_path))[0]
            return run_song(cfg, song_id)

        pipeline.run_song = run_song_named
        self.wrap(pipeline, "run_batch", "pipeline.run_batch")
        self.wrap(features, "load_wav", "features.load_wav")
        self.wrap(features, "compute_feature", "features.compute_feature", frames)
        self.wrap(bars, "barwise_tf", "bars.barwise_tf", bar_count)
        self.wrap(lowrank, "pca_compress", "lowrank.pca_compress")
        self.wrap(lowrank, "nmf_compress", "lowrank.nmf_compress", nmf_info)
        self.wrap(autoencoder, "train_single_song", "autoencoder.train_single_song", ae_info)
        self.wrap(autoencoder.AENetwork, "backward_batch", "autoencoder.backward_batch")
        self.wrap(segment, "cosine_autosimilarity", "segment.cosine_autosimilarity")
        self.wrap(segment, "dp_segment", "segment.dp_segment")
        self.wrap(evaluate, "evaluate_boundaries", "evaluate.evaluate_boundaries")
        self.wrap(matio, "write_json", "matio.write_json", size_of)
        self.wrap(matio, "write_pgm", "matio.write_pgm", size_of)


def main():
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import barseg.cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.wrap(barseg.cli, "main", "cli.main")
    cpu0, t0 = _cpu_s(), time.monotonic()
    rc = barseg.cli.main(argv)
    wall_s, cpu_s = time.monotonic() - t0, _cpu_s() - cpu0
    report = {
        "rc": rc,
        "barseg_file": barseg.__file__,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "spans": tracer.spans if tracer else [],
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
