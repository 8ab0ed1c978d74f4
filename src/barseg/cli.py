"""Command-line interface: barseg features|segment|eval|batch."""

import argparse
import dataclasses
import os
import sys

from . import evaluate, features, matio, pipeline

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(pipeline.PipelineConfig)}
# The config-file keys that change a `features` output; it ignores the rest.
_FEATURE_KEYS = ("feature", "n_fft", "hop", "output_dir")


def _load_config_file(path):
    """Read a flat key=value config file (# comments and blanks ignored)."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith(";"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _convert(source, key, convert, value):
    """convert(value), with a bad value reported as `<source>: <key>: <reason>`."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{source}: {key}: {exc}") from exc


def _float_tuple(value):
    return tuple(float(t) for t in value.split(","))


def _coerce_config(values, source):
    """Convert option values to the types of their PipelineConfig fields."""
    out = {}
    for key, value in values.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"{source}: unknown config key {key!r}")
        if value == "":  # not given, in a config file and on the command line alike
            continue
        convert = _float_tuple if _FIELD_TYPES[key] is tuple else _FIELD_TYPES[key]
        out[key] = _convert(source, key, convert, value)
    return out


def _build_pipeline_config(args, file_keys=None):
    """PipelineConfig from the --config file, then the flags. With `file_keys`
    the file's other PipelineConfig keys are ignored; unknown keys still fail."""
    cfg = {}
    if getattr(args, "config", None):
        values = _load_config_file(args.config)
        if file_keys is not None:
            values = {k: v for k, v in values.items() if k in file_keys or k not in _FIELD_TYPES}
        cfg.update(_coerce_config(values, args.config))
    flags = {k: v for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None}
    cfg.update(_coerce_config(flags, "command line"))
    return pipeline.PipelineConfig(**cfg)


def _add_common(parser, with_compressor=True):
    parser.add_argument("--out", dest="output_dir", metavar="OUT", default=None)
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--feature", default=None, choices=list(features.FEATURES))
    if with_compressor:
        parser.add_argument("--subdivision", type=int, default=None, help="frames per bar (default 96)")
        parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 42)")
        parser.add_argument("--compressor", default=None, choices=list(pipeline.COMPRESSORS))
        parser.add_argument("--dc", dest="d_c", metavar="DC", type=int, default=None, help="latent dimension")
        parser.add_argument("--max-segment", dest="max_segment", type=int, default=None)
        parser.add_argument("--tolerances", default=None, help='e.g. "0.5,3.0"')
        parser.add_argument("--ae-max-epochs", dest="ae_max_epochs", type=int, default=None)


def cmd_features(args):
    cfg = _build_pipeline_config(args, file_keys=_FEATURE_KEYS)
    out_dir = cfg.output_dir or "."
    matio.check_output_dir(out_dir)
    signal = features.load_wav(cfg.audio_path)
    values = features.compute_feature(signal, cfg.feature, n_fft=cfg.n_fft, hop=cfg.hop)
    stem = pipeline._song_id(cfg)
    csv_path = os.path.join(out_dir, f"{stem}.{cfg.feature}.csv")
    bseg_path = os.path.join(out_dir, f"{stem}.{cfg.feature}.bseg")
    matio.write_in_place((csv_path, matio.write_csv_matrix, values), (bseg_path, matio.write_bseg, values))
    print(f"{cfg.feature}: {values.shape[0]} bins x {values.shape[1]} frames -> {csv_path}, {bseg_path}")
    return 0


def _print_result(result, run=""):
    """Print a song's boundaries and scores, headed `<run>/<song>` for a run of a sweep."""
    name = f"{run}/{result['song_id']}" if run else result["song_id"]
    print(f"{name}: boundaries (bars) {result['boundaries_bars']}")
    for key, row in result.get("eval", {}).items():
        print(
            f"  tol {key}s: P={row['precision']:.3f} R={row['recall']:.3f} F={row['f_measure']:.3f}"
        )


def cmd_segment(args):
    base = _build_pipeline_config(args)
    runs = [("", base)]
    if args.dc_sweep:
        sweep = _convert("command line", "dc_sweep", lambda v: [int(t) for t in v.split(",")], args.dc_sweep)
        # Each value runs once, in the order it first appears. Each config
        # checks its d_c here, before any file is removed or written.
        # A run is named after its output subdirectory.
        runs = [
            (f"dc{d_c}", dataclasses.replace(
                base, d_c=d_c, output_dir=base.output_dir and os.path.join(base.output_dir, f"dc{d_c}")))
            for d_c in dict.fromkeys(sweep)
        ]
    for _, cfg in runs:  # an earlier command's files would read as this one's, even if a run stops the rest
        pipeline.remove_artifacts(cfg)
    for run, cfg in runs:
        _print_result(pipeline.run_song(cfg), run)
    return 0


def cmd_eval(args):
    est = evaluate.load_annotations(args.estimated)
    ref = evaluate.load_annotations(args.reference)
    tolerances = _build_pipeline_config(args).tolerances
    report = evaluate.evaluate_boundaries(est, ref, tolerances)
    if args.out:
        matio.write_in_place((os.path.join(args.out, "eval.json"), matio.write_json, report))
    print(matio.dumps_json(report), end="")
    return 0


def cmd_batch(args):
    cfg = _build_pipeline_config(args)
    aggregate, results, failures = pipeline.run_batch(args.dataset, cfg)
    for result in results:
        _print_result(result)
    for song, err in failures.items():
        print(f"FAILED {song}: {str(err).splitlines()[0]}", file=sys.stderr)
    print(matio.dumps_json(aggregate), end="")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="barseg", description="Barwise compression music structure analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract a time-frequency feature from audio")
    p.add_argument("audio_path", metavar="audio")
    _add_common(p, with_compressor=False)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("segment", help="segment one song")
    p.add_argument("audio_path", metavar="audio")
    p.add_argument("--downbeats", dest="downbeats_path", metavar="DOWNBEATS", required=True)
    p.add_argument("--annotations", dest="annotations_path", metavar="ANNOTATIONS", default=None)
    p.add_argument("--dc-sweep", dest="dc_sweep", default=None,
                   help="comma-separated latent dimensions, one run per value")
    _add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="score estimated boundaries against a reference")
    p.add_argument("estimated")
    p.add_argument("reference")
    p.add_argument("--tolerances", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("batch", help="run a dataset directory of songs")
    p.add_argument("dataset")
    _add_common(p)
    p.set_defaults(func=cmd_batch)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, pipeline.StageError) as exc:
        print(f"barseg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
