"""barseg benchmark: one workload, end to end, each CLI call in a fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload song4m_pca --seed 1 --seconds 30 --trace 0

The program is run from the checkout's `src/`. The run writes the
workload's seeded inputs under `perfbench/_work/`, times `import barseg`
in fresh interpreters (`setup_s`), then calls the `barseg` CLI in fresh
processes until `--seconds` is used up (at least once) and checks every
call's outputs. With `--trace 1` an untimed warm-up call comes first,
then untraced and traced calls alternate, and the run reports
per-module metrics derived from the spans instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it name
each metric with its unit and record the environment.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
CHILD = HERE / "child.py"

# One BLAS thread: no BLAS threads contending for a small shared host's
# cores, and the same setting for every commit compared.
BLAS_THREADS = 1
SETUP_PROBES = 3
RUN_LIMIT_S = 170  # a call still running then is killed and counted as failed
TOLERANCES = (("0.5", 0.5), ("3", 3.0))


class CheckFailed(Exception):
    """A CLI call exited badly or wrote outputs that fail a check."""


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def setup_probe(env):
    """Seconds from starting a fresh interpreter until `import barseg` returns.

    Both processes read CLOCK_MONOTONIC, which is system-wide on Linux.
    """
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, barseg; print(time.monotonic())"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - spawned


def invoke(argv, trace, work, env, deadline):
    """One CLI call in a fresh process; returns the child's report."""
    shutil.rmtree(work / "out", ignore_errors=True)
    report_path, log_path = work / "report.json", work / "call.log"
    report_path.unlink(missing_ok=True)
    with open(log_path, "w") as log:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(report_path), str(int(trace)), "--", *argv],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=max(1.0, deadline - time.monotonic()))
    tail = log_path.read_text()[-2000:]
    if proc.returncode != 0:
        raise CheckFailed(f"benchmark child exited {proc.returncode}:\n{tail}")
    report = json.loads(report_path.read_text())
    if report["rc"] != 0:
        raise CheckFailed(f"barseg exited {report['rc']}:\n{tail}")
    if Path(report["barseg_file"]).resolve().parent != SRC / "barseg":
        raise CheckFailed(f"imported barseg from {report['barseg_file']}, not {SRC}")
    return report


def f_measure(est, ref, tol):
    """Boundary F-measure under maximum one-to-one matching within `tol`."""
    owner = {}  # reference index -> estimate index

    def augment(i, seen):
        for j, r in enumerate(ref):
            if abs(est[i] - r) <= tol and j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    hits = sum(augment(i, set()) for i in range(len(est)))
    if not hits:
        return 0.0
    precision, recall = hits / len(est), hits / len(ref)
    return 2 * precision * recall / (precision + recall)


def check_song(prefix, downbeats, truth):
    """Check one song's artifacts; returns (boundaries_bars, {tol key: F})."""
    result = json.loads(Path(f"{prefix}.result.json").read_text())
    bars, seconds = result["boundaries_bars"], result["boundaries_seconds"]
    n_bars = len(downbeats) - 1
    if bars[0] != 0 or bars[-1] != n_bars or any(b <= a for a, b in zip(bars, bars[1:])):
        raise CheckFailed(f"{prefix}: boundaries {bars} do not rise strictly from 0 to {n_bars}")
    if len(seconds) != len(bars) or any(abs(s - downbeats[b]) > 1e-9 for s, b in zip(seconds, bars)):
        raise CheckFailed(f"{prefix}: boundary times {seconds} are not the downbeats of {bars}")
    scores = {}
    for key, tol in TOLERANCES:
        reported, expected = result["eval"][key]["f_measure"], f_measure(seconds, truth, tol)
        if abs(reported - expected) > 1e-12:
            raise CheckFailed(f"{prefix}: F at {key} s is {reported}, expected {expected}")
        scores[key] = reported
    header = Path(f"{prefix}.autosim.pgm").read_bytes()[:32].split(b"\n")[:3]
    if header != [b"P5", f"{n_bars} {n_bars}".encode(), b"255"]:
        raise CheckFailed(f"{prefix}: autosimilarity image header {header}")
    return bars, scores


def check_outputs(out, truth, batch):
    """Check a call's artifacts; returns (outcome to compare across calls, f05, f3)."""
    outcome = {}
    for song_id, (downbeats, ref) in truth.items():
        prefix = out / song_id / song_id if batch else out / song_id
        outcome[song_id] = check_song(prefix, downbeats, ref)
    if not batch:
        ((_, scores),) = outcome.values()
        return outcome, scores["0.5"], scores["3"]
    aggregate = json.loads((out / "aggregate.json").read_text())
    if (aggregate["n_ok"], aggregate["n_failed"]) != (len(truth), 0):
        raise CheckFailed(f"aggregate: {aggregate['n_ok']} ok, {aggregate['n_failed']} failed")
    means = []
    for key, _ in TOLERANCES:
        mean = aggregate["mean"][key]["f_measure"]
        expected = fmean(scores[key] for _, scores in outcome.values())
        if abs(mean - expected) > 1e-12:
            raise CheckFailed(f"aggregate: mean F at {key} s is {mean}, expected {expected}")
        means.append(mean)
    return outcome, *means


def layer_metrics(spans):
    """Per-module metrics of one traced call, derived from its spans."""
    by_name, children = defaultdict(list), defaultdict(list)
    for i, span in enumerate(spans):
        span["i"], span["s"] = i, span["end"] - span["start"]
        by_name[span["name"]].append(span)
        children[span["parent"]].append(i)

    def total(*names, key="s"):
        return sum(span.get(key, 0) for name in names for span in by_name[name])

    def self_s(*names):
        return sum(span["s"] - sum(spans[c]["s"] for c in children[span["i"]])
                   for name in names for span in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    feature = "features.compute_feature"
    frames = total(feature, key="frames")
    useful = sum(s["bars"] * s["subdivision"] for s in by_name["bars.barwise_tf"])
    nmf, ae = "lowrank.nmf_compress", "autoencoder.train_single_song"
    return {
        "features.load_wav.s": (total("features.load_wav"), "s"),
        "features.compute_feature.s": (total(feature), "s"),
        "features.frames": (frames, "count"),
        "features.useful_ratio": (ratio(useful, frames), "ratio"),
        "features.spec_mb": (max((s["spec_bytes"] for s in by_name[feature]), default=0) / 2**20, "MB"),
        "bars.barwise_tf.s": (total("bars.barwise_tf"), "s"),
        "bars.bars": (total("bars.barwise_tf", key="bars"), "count"),
        "lowrank.pca_compress.s": (total("lowrank.pca_compress"), "s"),
        "lowrank.nmf_compress.s": (total(nmf), "s"),
        "lowrank.nmf.iters": (total(nmf, key="iters"), "count"),
        "lowrank.nmf.s_per_iter": (ratio(total(nmf), total(nmf, key="iters")), "s"),
        "lowrank.nmf.rel_loss": (ratio(total(nmf, key="rel_loss"), len(by_name[nmf])), "ratio"),
        "autoencoder.train_single_song.s": (total(ae), "s"),
        "autoencoder.epochs": (total(ae, key="epochs"), "count"),
        "autoencoder.s_per_epoch": (ratio(total(ae), total(ae, key="epochs")), "s"),
        "autoencoder.backward_batch.calls": (len(by_name["autoencoder.backward_batch"]), "count"),
        "autoencoder.backward_batch.s": (total("autoencoder.backward_batch"), "s"),
        "autoencoder.best_loss": (ratio(total(ae, key="best_loss"), len(by_name[ae])), "mse"),
        "segment.cosine_autosimilarity.s": (total("segment.cosine_autosimilarity"), "s"),
        "segment.dp_segment.s": (total("segment.dp_segment"), "s"),
        "evaluate.evaluate_boundaries.s": (total("evaluate.evaluate_boundaries"), "s"),
        "matio.write.s": (total("matio.write_json", "matio.write_pgm"), "s"),
        "matio.bytes": (total("matio.write_json", "matio.write_pgm", key="bytes"), "bytes"),
        "pipeline.run_song.s": (total("pipeline.run_song"), "s"),
        "pipeline.self_s": (self_s("pipeline.run_song", "pipeline.run_batch"), "s"),
        "pipeline.songs": (len(by_name["pipeline.run_song"]), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }


def environment(reports):
    import numpy
    import scipy

    rev = "none"  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": sorted({r["blas_threads"] for r in reports}),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main():
    from workloads import WORKLOADS, write_inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "barseg" / "__init__.py").is_file():
        print(f"run.py: no barseg sources at {SRC / 'barseg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv, truth = write_inputs(args.workload, args.seed, str(work))
    batch = WORKLOADS[args.workload]["command"] == "batch"
    env = child_env()

    # write_inputs imported barseg here already, which wrote its bytecode.
    setup = [] if args.trace else [setup_probe(env) for _ in range(SETUP_PROBES)]

    attempted, failures, reports = 0, [], {False: [], True: []}
    first_outcome = scores = None

    def call(trace):
        """One checked CLI call; returns its report, or None if it failed."""
        nonlocal attempted, first_outcome, scores
        attempted += 1
        try:
            report = invoke(argv, trace, work, env, deadline)
            outcome, f05, f3 = check_outputs(work / "out", truth, batch)
            if first_outcome is None:
                first_outcome, scores = outcome, (f05, f3)
            elif outcome != first_outcome:
                raise CheckFailed(f"outputs differ between calls: {outcome} vs {first_outcome}")
        except Exception as exc:  # any failed call is counted, reported, and the run goes on
            failures.append(f"{type(exc).__name__}: {exc}")
            print(f"FAILED call {attempted}: {failures[-1]}", file=sys.stderr)
            return None
        print(f"call {attempted}{' traced' if trace else ''}: wall_s {report['wall_s']:.3f} "
              f"cpu_s {report['cpu_s']:.3f} peak_rss_mb {report['peak_rss_mb']:.1f}")
        return report

    if args.trace:
        # The first call after new inputs runs slower than the next ones; an
        # untimed warm-up keeps that out of the traced-minus-untraced overhead.
        call(False)
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for trace in ((False, True) if args.trace else (False,)):
            report = call(trace)
            if report is not None:
                reports[trace].append(report)
        now = time.monotonic()
        if now - start + (now - round_start) > args.seconds:
            break

    metrics = {}
    untraced = reports[False]
    if untraced and not args.trace:
        metrics = {
            "wall_s": (median(r["wall_s"] for r in untraced), "s"),
            "cpu_s": (median(r["cpu_s"] for r in untraced), "s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in untraced), "MB"),
            "setup_s": (median(setup), "s"),
            "f05": (scores[0], "ratio"),
            "f3": (scores[1], "ratio"),
        }
    elif untraced and reports[True]:
        per_call = [layer_metrics(r["spans"]) for r in reports[True]]
        metrics = {name: (median(m[name][0] for m in per_call), unit)
                   for name, (_, unit) in per_call[0].items()}
        overhead = median(r["wall_s"] for r in reports[True]) - median(r["wall_s"] for r in untraced)
        metrics["trace.overhead_s"] = (overhead, "s")

    env_record = environment(untraced + reports[True])
    print(f"workload {args.workload} seed {args.seed}: {attempted} calls, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.3f}), {len(setup)} setup probes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
