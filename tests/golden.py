"""Golden outputs: the SHA-256 of every file that a fixed matrix of CLI calls writes.

The matrix runs on seeded synthetic songs: the 32-bar acceptance song
(`synthetic.write_song_dir`) segmented under pca, nmf, none and ae (40
epochs) and with `--dc-sweep 8,4,16`, a `batch` over three songs with
annotations, the song's five `barseg features` outputs and one `barseg
eval`. A result JSON is hashed without its `timings` and its path-valued
config fields, which differ between runs of the same outputs.
`test_golden.py` regenerates the matrix and compares it with
`golden/manifest.json`. Rewrite the manifest, only for a change meant to
alter output bytes, with:

    PYTHONPATH=src python3 tests/golden.py --write
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from barseg import cli, features, matio, synthetic

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "manifest.json")
_PATH_FIELDS = ("audio_path", "downbeats_path", "annotations_path", "output_dir")
# name, structure, bar seconds and noise seed of each song of the batch.
_BATCH_SONGS = (("a", "AAAABBBBAAAACCCC", 0.5, 1), ("b", "AABBCCAABBCCDDDD", 0.4, 2),
                ("c", "ABABCCCCDDDDAAAA", 0.6, 3))
# Estimated boundaries for `barseg eval`: some within 0.5 s of the song's, some only within 3 s.
_ESTIMATED = "0.0\n2.3\n4.0\n9.0\n12.0\n16.0\n"


def environment():
    """NumPy's version and the OpenBLAS core it runs on, on which output bytes may depend."""
    return {"numpy": np.__version__, "openblas_core": _openblas_core()}


def _openblas_core():
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(lib), name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def _calls(inputs, out):
    """The matrix: one argv per CLI call."""
    song = os.path.join(inputs, "song")
    audio = os.path.join(song, "audio.wav")
    annotations = os.path.join(song, "annotations.txt")
    segment = ["segment", audio, "--downbeats", os.path.join(song, "downbeats.txt"), "--annotations", annotations]
    calls = [segment + ["--compressor", kind, "--out", os.path.join(out, "segment", kind)]
             for kind in ("pca", "nmf", "none")]
    calls.append(segment + ["--compressor", "ae", "--ae-max-epochs", "40", "--out", os.path.join(out, "segment", "ae")])
    calls.append(segment + ["--dc-sweep", "8,4,16", "--out", os.path.join(out, "sweep")])
    calls.append(["batch", os.path.join(inputs, "dataset"), "--out", os.path.join(out, "batch")])
    calls += [["features", audio, "--feature", kind, "--out", os.path.join(out, "features")]
              for kind in features.FEATURES]
    calls.append(["eval", os.path.join(inputs, "estimated.txt"), annotations, "--out", os.path.join(out, "eval")])
    return calls


def _digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".result.json"):
        result = json.loads(data)
        del result["timings"]
        for field in _PATH_FIELDS:
            del result["config"][field]
        data = matio.dumps_json(result).encode()
    return hashlib.sha256(data).hexdigest()


def generate(root):
    """Write the matrix's inputs and outputs under `root`; {output path relative to root/out: SHA-256}."""
    inputs, out = os.path.join(root, "inputs"), os.path.join(root, "out")
    synthetic.write_song_dir(os.path.join(inputs, "song"))
    for name, structure, bar_seconds, seed in _BATCH_SONGS:
        synthetic.write_song_dir(os.path.join(inputs, "dataset", name), structure, bar_seconds, seed=seed)
    with open(os.path.join(inputs, "estimated.txt"), "w") as fh:
        fh.write(_ESTIMATED)
    for argv in _calls(inputs, out):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"barseg {' '.join(argv)} exited {rc}")
    hashes = {}
    for directory, _, names in os.walk(out):
        for name in names:
            path = os.path.join(directory, name)
            hashes[os.path.relpath(path, out).replace(os.sep, "/")] = _digest(path)
    return dict(sorted(hashes.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {MANIFEST}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        manifest = {**environment(), "files": generate(root)}
    if args.write:
        os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
        with open(MANIFEST, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(manifest, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
