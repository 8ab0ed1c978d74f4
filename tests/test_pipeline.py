import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.io.wavfile

from barseg import autoencoder, cli, features, matio, pipeline, synthetic, workers

STRUCTURE = synthetic.DEFAULT_STRUCTURE
EXPECTED_SECONDS = [0.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0]


@pytest.fixture(scope="module")
def song_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("song") / "demo"
    synthetic.write_song_dir(directory, STRUCTURE)
    return directory


@pytest.fixture(scope="module")
def short_song_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("short") / "tiny"
    synthetic.write_song_dir(directory, "AAAABBBB")
    return directory


@pytest.fixture(scope="module")
def silent_song_dir(tmp_path_factory):
    """An 8 s song of 16 bars whose audio is all zeros."""
    directory = tmp_path_factory.mktemp("silent") / "silent"
    synthetic.write_song_dir(directory, "AAAABBBBAAAABBBB")
    rate, samples = scipy.io.wavfile.read(directory / "audio.wav")
    scipy.io.wavfile.write(directory / "audio.wav", rate, np.zeros_like(samples))
    return directory


def make_config(song_dir, out_dir, **overrides):
    base = dict(
        feature="nnlms",
        compressor="pca",
        d_c=8,
        audio_path=str(song_dir / "audio.wav"),
        downbeats_path=str(song_dir / "downbeats.txt"),
        annotations_path=str(song_dir / "annotations.txt"),
        output_dir=str(out_dir),
    )
    base.update(overrides)
    return pipeline.PipelineConfig(**base)


@pytest.fixture(scope="module")
def pca_run(song_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("out_pca")
    cfg = make_config(song_dir, out)
    return pipeline.run_song(cfg), out, cfg


class TestWriteSongDir:
    @pytest.mark.parametrize("structure, bar_seconds, rate", [("AB", 0.5, 44100), ("ABC", 0.3333, 22050)])
    def test_wav_bytes_match_scipy_writer(self, tmp_path, structure, bar_seconds, rate):
        synthetic.write_song_dir(tmp_path / "song", structure, bar_seconds, rate)
        samples, _, _ = synthetic.make_song(structure, bar_seconds, rate)
        pcm = np.clip(samples * 32767.0, -32768, 32767).astype(np.int16)
        scipy.io.wavfile.write(tmp_path / "scipy.wav", rate, pcm)
        assert (tmp_path / "song" / "audio.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


class TestRunSong:
    def test_recovers_structure(self, pca_run):
        result, _, _ = pca_run
        assert result["boundaries_seconds"] == EXPECTED_SECONDS
        assert result["eval"]["0.5"]["f_measure"] == 1.0
        assert result["eval"]["3"]["f_measure"] == 1.0

    def test_artifacts_written(self, pca_run):
        _, out, _ = pca_run
        for suffix in (".result.json", ".boundaries.txt", ".autosim.pgm"):
            assert (out / f"audio{suffix}").exists()

    def test_result_json_parses(self, pca_run):
        result, out, _ = pca_run
        loaded = json.loads((out / "audio.result.json").read_text())
        assert loaded["boundaries_seconds"] == result["boundaries_seconds"]
        assert loaded["config"]["compressor"] == "pca"
        assert loaded["eval"]["0.5"]["f_measure"] == 1.0

    @pytest.mark.parametrize("annotated", [True, False])
    def test_result_is_the_result_json(self, short_song_dir, tmp_path, annotated):
        cfg = make_config(short_song_dir, tmp_path, **({} if annotated else {"annotations_path": ""}))
        result = pipeline.run_song(cfg)
        assert ("eval" in result) == annotated
        text = (tmp_path / "audio.result.json").read_text()
        assert result == json.loads(text)
        assert matio.dumps_json(result) == text

    def test_timings_present_and_positive(self, pca_run):
        result, _, _ = pca_run
        expected = {"load", "features", "barwise_tf", "compression", "segmentation", "evaluation"}
        assert set(result["timings"]) == expected
        assert all(v > 0 for v in result["timings"].values())

    def test_boundary_file_format(self, pca_run):
        result, out, _ = pca_run
        lines = (out / "audio.boundaries.txt").read_text().splitlines()
        assert len(lines) == len(result["boundaries_seconds"]) - 1
        starts, ends = zip(*(map(float, line.split("\t")) for line in lines))
        assert list(starts) == result["boundaries_seconds"][:-1]
        assert list(ends) == result["boundaries_seconds"][1:]

    def test_boundary_text_is_the_savetxt_bytes(self, tmp_path):
        # The boundary file was np.savetxt of the start and end columns, kept here as its reference.
        b = np.array([0.0, -0.0, 0.1, 1e-320, 2.5, 123456.78901234567, 1e300])
        np.savetxt(tmp_path / "ref.txt", np.column_stack([b[:-1], b[1:]]), fmt="%.17g", delimiter="\t")
        assert pipeline._boundary_text(b) == (tmp_path / "ref.txt").read_text()

    def test_autosim_pgm_diagonal_white(self, pca_run):
        _, out, _ = pca_run
        pixels = matio.read_pgm(out / "audio.autosim.pgm")
        assert pixels.shape == (len(STRUCTURE), len(STRUCTURE))
        assert np.all(np.diag(pixels) == 255)

    def test_deterministic_outputs(self, pca_run, song_dir, tmp_path):
        result, out, _ = pca_run
        rerun = pipeline.run_song(make_config(song_dir, tmp_path))
        # Byte-identical artifacts; the result dict matches except for
        # wall-clock timings.
        assert (tmp_path / "audio.boundaries.txt").read_bytes() == (
            out / "audio.boundaries.txt"
        ).read_bytes()
        assert (tmp_path / "audio.autosim.pgm").read_bytes() == (
            out / "audio.autosim.pgm"
        ).read_bytes()
        a, b = ({**r, "timings": None, "config": {**r["config"], "output_dir": None}} for r in (result, rerun))
        assert matio.dumps_json(a) == matio.dumps_json(b)

    def test_compressor_none_completes(self, short_song_dir, tmp_path):
        cfg = make_config(short_song_dir, tmp_path, compressor="none")
        result = pipeline.run_song(cfg)
        assert result["boundaries_bars"][0] == 0 and result["boundaries_bars"][-1] == 8
        assert np.all(np.diag(matio.read_pgm(tmp_path / "audio.autosim.pgm")) == 255)

    def test_nmf_rejects_signed_feature(self, short_song_dir, tmp_path):
        cfg = make_config(short_song_dir, tmp_path, compressor="nmf", feature="lms")
        with pytest.raises(pipeline.StageError, match="compression") as excinfo:
            pipeline.run_song(cfg)
        assert excinfo.value.stage == "compression"
        assert "lms" in str(excinfo.value) and "nonnegative" in str(excinfo.value)

    def test_missing_audio_fails_in_load_stage(self, short_song_dir, tmp_path):
        cfg = make_config(short_song_dir, tmp_path, audio_path=str(tmp_path / "missing.wav"))
        with pytest.raises(pipeline.StageError) as excinfo:
            pipeline.run_song(cfg)
        assert excinfo.value.stage == "load"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_float_audio_fails_in_load_stage(self, short_song_dir, tmp_path, dtype, bad):
        # 4 s of stereo, the bad sample in the second channel past the first block the check reads.
        data = np.zeros((4 * 44100, 2), dtype=dtype)
        data[features._CHECK_BLOCK + 5, 1] = bad
        path = tmp_path / "bad.wav"
        scipy.io.wavfile.write(path, 44100, data)
        cfg = make_config(short_song_dir, tmp_path / "out", audio_path=str(path))
        with pytest.raises(pipeline.StageError, match="audio contains non-finite samples") as excinfo:
            pipeline.run_song(cfg)
        assert excinfo.value.stage == "load"

    @pytest.mark.parametrize("stage", ["features", "barwise_tf", "evaluation", "output"])
    def test_failure_names_its_stage(self, short_song_dir, tmp_path, stage):
        overrides = {"output_dir": str(tmp_path / "out")}
        if stage == "features":
            # Centered frames need more than n_fft/2 samples.
            path = tmp_path / "short.wav"
            scipy.io.wavfile.write(path, 44100, np.zeros(100, dtype=np.int16))
            overrides["audio_path"] = str(path)
        elif stage == "barwise_tf":
            # Two downbeats less than one frame apart give a bar with no frames.
            path = tmp_path / "downbeats.txt"
            times = (short_song_dir / "downbeats.txt").read_text().split()
            path.write_text("\n".join([times[0], "0.0001", *times[1:]]) + "\n")
            overrides["downbeats_path"] = str(path)
        elif stage == "evaluation":
            path = tmp_path / "annotations.txt"
            path.write_text("0.0\tintro\nsoon\tverse\n")
            overrides["annotations_path"] = str(path)
        else:
            (tmp_path / "out").write_text("an existing file, not a directory")
        cfg = make_config(short_song_dir, tmp_path, compressor="none", **overrides)
        with pytest.raises(pipeline.StageError) as excinfo:
            pipeline.run_song(cfg)
        assert excinfo.value.stage == stage
        assert f"stage {stage!r} failed" in str(excinfo.value)

    def test_failed_pgm_write_leaves_no_result_json(self, short_song_dir, tmp_path, monkeypatch):
        cfg = make_config(short_song_dir, tmp_path, compressor="none")
        pipeline.run_song(cfg)
        assert (tmp_path / "audio.result.json").exists()

        def disk_full(path, matrix):
            with open(path, "wb") as fh:
                fh.write(b"P5\n")
            raise OSError("no space left on device")

        monkeypatch.setattr(matio, "write_pgm", disk_full)
        with pytest.raises(pipeline.StageError, match="no space left") as excinfo:
            pipeline.run_song(cfg)
        assert excinfo.value.stage == "output"
        # Neither the earlier run's files nor this run's first one are left.
        assert list(tmp_path.iterdir()) == []

    def test_timings_keys_without_annotations(self, short_song_dir, tmp_path):
        cfg = make_config(short_song_dir, tmp_path, compressor="none", annotations_path="")
        result = pipeline.run_song(cfg)
        assert set(result["timings"]) == {"load", "features", "barwise_tf", "compression", "segmentation"}


class TestDegenerateInput:
    @pytest.mark.parametrize("compressor", ["pca", "nmf", "none"])
    def test_silent_song_is_one_segment(self, silent_song_dir, tmp_path, compressor):
        cfg = make_config(silent_song_dir, tmp_path, compressor=compressor)
        with pytest.warns(UserWarning, match=r"c_k8_max=0\.0 is not positive"):
            result = pipeline.run_song(cfg)
        assert result["boundaries_bars"] == [0, 16]
        assert result["boundaries_seconds"] == [0.0, 8.0]
        assert result["total_score"] == 0.0
        assert json.loads((tmp_path / "audio.result.json").read_text())["boundaries_bars"] == [0, 16]

    @pytest.mark.parametrize("dc_args", [[], ["--dc-sweep", "2,3"]])
    def test_eight_bar_pca_song_splits_at_its_sections(self, short_song_dir, tmp_path, capsys, dc_args):
        # PCA of AAAABBBB makes the A and B bars anti-correlated, so
        # c_k8_max < 0 over the one window; the DP segments (A+1)/2.
        with pytest.warns(UserWarning, match=r"c_k8_max=-.* rescaled cosine \(A\+1\)/2"):
            rc = cli.main([
                "segment", str(short_song_dir / "audio.wav"),
                "--downbeats", str(short_song_dir / "downbeats.txt"),
                "--compressor", "pca", *dc_args, "--out", str(tmp_path),
            ])
        assert rc == 0
        results = sorted(tmp_path.rglob("audio.result.json"))
        assert len(results) == (2 if dc_args else 1)
        for path in results:
            assert json.loads(path.read_text())["boundaries_bars"] == [0, 4, 8]

    def test_downbeats_past_the_audio_end_are_dropped(self, short_song_dir, tmp_path):
        path = tmp_path / "downbeats.txt"
        text = (short_song_dir / "downbeats.txt").read_text()
        last = float(text.split()[-1])
        path.write_text(text + f"{last + 1}\n{last + 2}\n")
        cfg = make_config(short_song_dir, tmp_path / "out", compressor="none", downbeats_path=str(path))
        dropped = r"^song 'audio': dropped 2 bars that start at or past the audio end$"
        with pytest.warns(UserWarning, match=dropped) as record:
            result = pipeline.run_song(cfg)
        assert record[0].filename == __file__  # the warning names run_song's caller
        expected = pipeline.run_song(make_config(short_song_dir, tmp_path / "ref", compressor="none"))
        assert result["boundaries_bars"] == expected["boundaries_bars"] == [0, 4, 8]
        assert result["boundaries_seconds"] == expected["boundaries_seconds"]
        assert result["total_score"] == expected["total_score"]

    @pytest.mark.parametrize("compressor", ["pca", "nmf"])
    def test_fewer_bars_than_dc_fails_before_features(self, tmp_path, monkeypatch, compressor):
        synthetic.write_song_dir(tmp_path / "six", "AAABBB")

        def no_features(*args, **kwargs):
            raise AssertionError("features were computed")

        monkeypatch.setattr(pipeline.features, "FeatureFrames", no_features)
        cfg = make_config(tmp_path / "six", tmp_path / "out", compressor=compressor, d_c=8)
        with pytest.raises(ValueError, match=rf"^{compressor} needs d_c <= the number of bars, "
                                             r"but d_c=8 and song 'audio' has 6 bars$"):
            pipeline.run_song(cfg)
        assert not (tmp_path / "out").exists()

    def test_fewer_bars_than_dc_allowed_for_ae_and_at_dc_equal_b(self, tmp_path):
        synthetic.write_song_dir(tmp_path / "six", "AAABBB")
        for compressor, d_c in (("ae", 8), ("pca", 6), ("nmf", 6)):
            cfg = make_config(tmp_path / "six", tmp_path / compressor, compressor=compressor, d_c=d_c,
                              ae_max_epochs=1)
            assert pipeline.run_song(cfg)["boundaries_bars"][-1] == 6


class TestPipelineConfig:
    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="feature"):
            pipeline.PipelineConfig(feature="cqt")

    def test_unknown_compressor_rejected(self):
        with pytest.raises(ValueError, match="compressor"):
            pipeline.PipelineConfig(compressor="svd")

    @pytest.mark.parametrize("n_fft, hop", [(2048, 0), (16, 32)])
    def test_bad_stft_grid_rejected(self, n_fft, hop):
        with pytest.raises(ValueError, match=rf"need n_fft >= hop >= 1, got n_fft={n_fft}, hop={hop}"):
            pipeline.PipelineConfig(n_fft=n_fft, hop=hop)

    @pytest.mark.parametrize("field, value, message", [
        ("max_segment", 0, "max_segment must be >= 1, got 0"),
        ("max_segment", -3, "max_segment must be >= 1, got -3"),
        ("subdivision", 0, "subdivision must be >= 1, got 0"),
        ("ae_batch_size", 0, "ae_batch_size must be >= 1, got 0"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("tolerances", (), r"tolerances must be finite and positive, got \(\)"),
        ("tolerances", (0.5, float("nan")), r"tolerances must be finite and positive, got \(0.5, nan\)"),
        ("tolerances", (float("inf"),), r"tolerances must be finite and positive, got \(inf,\)"),
        ("tolerances", (0.0, 3.0), r"tolerances must be finite and positive, got \(0.0, 3.0\)"),
        ("tolerances", (-0.5,), r"tolerances must be finite and positive, got \(-0.5,\)"),
        ("tolerances", (0.5, 0.5000001, 3.0), r"tolerances 0.5 and 0.5000001 share the report key '0.5'"),
        ("ae_max_epochs", 0, "ae_max_epochs must be >= 1, got 0"),
    ])
    def test_bad_setting_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            pipeline.PipelineConfig(**{field: value})

    def test_config_echo_round_trips(self, pca_run):
        _, out, cfg = pca_run
        echoed = json.loads((out / "audio.result.json").read_text())["config"]
        assert echoed["tolerances"] == [0.5, 3.0]
        assert pipeline.PipelineConfig(**echoed) == cfg


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    for i, name in enumerate(["song_a", "song_b", "song_c"]):
        synthetic.write_song_dir(root / name, STRUCTURE, seed=100 + i)
    return root


class TestRunBatch:
    def test_aggregate_perfect(self, dataset, tmp_path):
        cfg = make_config(dataset / "song_a", tmp_path)
        aggregate, results, failures = pipeline.run_batch(str(dataset), cfg)
        assert not failures
        assert aggregate["n_songs"] == 3 and aggregate["n_ok"] == 3
        assert aggregate["mean"]["0.5"]["f_measure"] == 1.0
        assert aggregate["mean"]["3"]["f_measure"] == 1.0
        assert [r["song_id"] for r in results] == ["song_a", "song_b", "song_c"]
        for r in results:
            song = r["song_id"]
            assert r == json.loads((tmp_path / song / f"{song}.result.json").read_text())
        assert (tmp_path / "aggregate.json").exists()
        csv_lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert csv_lines[0] == "tolerance,precision,recall,f_measure,n_songs"
        assert len(csv_lines) == 3

    def test_aggregate_and_result_bytes(self, tmp_path):
        # Pins the serialized aggregate files and the key order of every result dict.
        root = tmp_path / "data"
        synthetic.write_song_dir(root / "song_a", "AAAABBBBAAAACCCCCC", seed=7)
        synthetic.write_song_dir(root / "song_b", "AAAAAABBBBBB", bar_seconds=0.75, seed=8)
        cfg = make_config(root / "song_a", tmp_path / "out", d_c=4, tolerances=(3.0, 0.5))
        _, results, failures = pipeline.run_batch(str(root), cfg)
        assert not failures
        assert [list(r["boundaries_bars"]) for r in results] == [[0, 4, 8, 12, 14, 18], [0, 4, 6, 10, 12]]
        assert (tmp_path / "out" / "aggregate.csv").read_text().splitlines() == [
            "tolerance,precision,recall,f_measure,n_songs",
            "3,0.71666666666666667,1,0.82954545454545447,2",
            "0.5,0.71666666666666667,1,0.82954545454545447,2",
        ]
        aggregate = json.loads((tmp_path / "out" / "aggregate.json").read_text())
        assert list(aggregate) == ["n_songs", "n_ok", "n_failed", "mean", "failures"]
        assert list(aggregate["mean"]) == ["3", "0.5"]
        assert aggregate["mean"]["3"] == {"precision": 0.7166666666666667, "recall": 1.0,
                                          "f_measure": 0.8295454545454545, "n_songs": 2}
        keys = ["song_id", "config", "boundaries_bars", "boundaries_seconds", "total_score", "timings"]
        loaded = json.loads((tmp_path / "out" / "song_b" / "song_b.result.json").read_text())
        assert list(loaded) == keys + ["eval"]
        assert list(loaded["eval"]) == ["0.5", "3"]
        assert loaded["eval"]["0.5"] == {"tol": 0.5, "precision": 0.6, "recall": 1.0, "f_measure": 0.7499999999999999,
                                         "n_est": 5, "n_ref": 3, "n_matched": 3}
        song_cfg = make_config(root / "song_b", tmp_path / "bare", d_c=4, annotations_path="")
        pipeline.run_song(song_cfg)
        assert list(json.loads((tmp_path / "bare" / "audio.result.json").read_text())) == keys

    def test_per_song_failure_recorded(self, dataset, tmp_path):
        import shutil

        broken = tmp_path / "data"
        shutil.copytree(dataset, broken)
        wav = broken / "song_b" / "audio.wav"
        wav.write_bytes(wav.read_bytes()[:100])
        cfg = make_config(broken / "song_a", tmp_path / "out")
        aggregate, results, failures = pipeline.run_batch(str(broken), cfg)
        assert aggregate["n_ok"] == 2 and aggregate["n_failed"] == 1
        assert set(failures) == {"song_b"}
        assert len(results) == 2

    def test_rerun_removes_the_artifacts_of_a_song_that_now_fails(self, dataset, tmp_path):
        import shutil

        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(dataset, data)
        cfg = make_config(data / "song_a", out, d_c=4)
        pipeline.run_batch(str(data), cfg)
        (out / "song_b" / "notes.txt").write_text("kept")
        kept = {song: sorted((out / song).iterdir()) for song in ("song_a", "song_c")}
        wav = data / "song_b" / "audio.wav"
        wav.write_bytes(wav.read_bytes()[:-1000])
        aggregate, _, failures = pipeline.run_batch(str(data), cfg)
        assert aggregate["n_failed"] == 1 and set(failures) == {"song_b"}
        assert json.loads((out / "aggregate.json").read_text())["n_failed"] == 1
        assert sorted(p.name for p in (out / "song_b").iterdir()) == ["notes.txt"]
        assert {song: sorted((out / song).iterdir()) for song in kept} == kept
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv", "aggregate.json", "song_a", "song_b", "song_c"]

    def test_empty_dataset_rejected(self, tmp_path):
        cfg = pipeline.PipelineConfig()
        with pytest.raises(ValueError, match="no song directories"):
            pipeline.run_batch(str(tmp_path), cfg)
        with pytest.raises(ValueError, match="not found"):
            pipeline.run_batch(str(tmp_path / "nope"), cfg)


def batch_outputs(out):
    """Every file under `out`: bytes, with each result JSON parsed and its timings dropped."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name.endswith(".result.json"):
                data = {**json.loads(data), "timings": None}
            files[str(path.relative_to(out))] = data
    return files


def comparable(batch):
    """run_batch's return value without the timings, which differ between runs."""
    aggregate, results, failures = batch
    return aggregate, [{**r, "timings": None} for r in results], list(failures.items())


def pin_workers(monkeypatch, count):
    monkeypatch.setattr(workers, "worker_count", lambda: count)


def record_threads(monkeypatch):
    """Wrap run_song and Thread.start; returns the threads that ran songs and the threads started."""
    song_threads, started = set(), []
    run_song, start = pipeline.run_song, threading.Thread.start

    def recording_run_song(cfg, song_id=None):
        song_threads.add(threading.current_thread())
        return run_song(cfg, song_id)

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(pipeline, "run_song", recording_run_song)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return song_threads, started


class TestTwoWorkerBatch:
    """A batch run two songs at a time matches the same batch run one song at a time.

    The helper thread needs two CPUs per BLAS thread, so `worker_count`
    is pinned. `run_batch` holds one BLAS thread, which keeps every GEMM's
    bytes those of the serial run while two songs call BLAS at once.
    """

    def run_both(self, monkeypatch, data, out, **overrides):
        """Run the batch on two workers, then on one, into `out`; returns each run's outputs."""
        runs = {}
        for count in (2, 1):
            pin_workers(monkeypatch, count)
            cfg = make_config(data / "song_a", out, **overrides)
            runs[count] = comparable(pipeline.run_batch(str(data), cfg)), batch_outputs(out)
        return runs

    @pytest.mark.parametrize("compressor", ["pca", "nmf"])
    def test_every_output_matches_one_worker(self, dataset, tmp_path, monkeypatch, compressor):
        song_threads, started = record_threads(monkeypatch)
        before = threading.active_count()
        runs = self.run_both(monkeypatch, dataset, tmp_path / "out", compressor=compressor, d_c=4)
        assert runs[2] == runs[1]
        assert sorted(runs[2][1]) == ["aggregate.csv", "aggregate.json"] + [
            f"{song}/{song}{suffix}" for song in ("song_a", "song_b", "song_c")
            for suffix in (".autosim.pgm", ".boundaries.txt", ".result.json")]
        assert len(song_threads) == 2  # the two-worker run split its songs
        assert len(started) == 1 and threading.active_count() == before

    def test_failing_middle_song_fails_alone(self, dataset, tmp_path, monkeypatch):
        import shutil

        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(dataset, data)
        pin_workers(monkeypatch, 1)
        pipeline.run_batch(str(data), make_config(data / "song_a", out, d_c=4))
        assert (out / "song_b" / "song_b.result.json").exists()
        wav = data / "song_b" / "audio.wav"
        wav.write_bytes(wav.read_bytes()[:-1000])
        runs = self.run_both(monkeypatch, data, out, d_c=4)
        assert runs[2] == runs[1]
        (aggregate, results, failures), files = runs[2]
        assert [song for song, _ in failures] == ["song_b"] and aggregate["n_failed"] == 1
        assert [r["song_id"] for r in results] == ["song_a", "song_c"]
        assert not any(name.startswith("song_b") for name in files)

    def test_song_steps_start_no_thread_of_their_own(self, dataset, tmp_path, monkeypatch):
        # The AE overlaps its loss pass from the first epoch, and every song
        # has 12 feature chunks, so with the helper free both would use it.
        song_threads, started = record_threads(monkeypatch)
        alive = []
        at, train = features.FeatureFrames.at, autoencoder.train_single_song

        def counting(fn):
            def counted(*args, **kwargs):
                alive.append(threading.active_count())
                out = fn(*args, **kwargs)
                alive.append(threading.active_count())
                return out
            return counted

        monkeypatch.setattr(features.FeatureFrames, "at", counting(at))
        monkeypatch.setattr(autoencoder, "train_single_song", counting(train))
        pin_workers(monkeypatch, 2)
        before = threading.active_count()
        cfg = make_config(dataset / "song_a", tmp_path / "out", compressor="ae", d_c=4, ae_max_epochs=3)
        _, results, failures = pipeline.run_batch(str(dataset), cfg)
        assert not failures and len(results) == 3
        assert len(started) == 1 and len(song_threads) == 2
        assert len(alive) == 12 and max(alive) <= before + 1
        assert threading.active_count() == before

    def test_one_song_leaves_the_helper_to_its_features(self, short_song_dir, tmp_path, monkeypatch):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(short_song_dir, data / "only")
        feature_threads = set()
        fill_power = features._fill_power

        def recording_fill_power(*args):
            feature_threads.add(threading.current_thread())
            return fill_power(*args)

        _, started = record_threads(monkeypatch)
        monkeypatch.setattr(features, "_fill_power", recording_fill_power)
        pin_workers(monkeypatch, 2)
        before = threading.active_count()
        cfg = make_config(data / "only", tmp_path / "out", compressor="none")
        _, results, failures = pipeline.run_batch(str(data), cfg)
        assert not failures and len(results) == 1
        assert len(started) == 1 and len(feature_threads) == 2
        assert threading.active_count() == before

    def test_interrupted_caller_leaves_the_helper_no_new_song(self, dataset, tmp_path, monkeypatch):
        songs = []
        caller = threading.current_thread()
        helper_has_a_song, caller_stopped = threading.Event(), threading.Event()

        def run_song(cfg, song_id=None):
            songs.append(song_id)
            if threading.current_thread() is caller:
                helper_has_a_song.wait(timeout=30)
                caller_stopped.set()
                raise KeyboardInterrupt
            helper_has_a_song.set()
            caller_stopped.wait(timeout=30)
            time.sleep(0.2)  # the caller's interrupt passes through run_batch's cleanup meanwhile
            return None

        monkeypatch.setattr(pipeline, "run_song", run_song)
        pin_workers(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            pipeline.run_batch(str(dataset), make_config(dataset / "song_a", tmp_path / "out"))
        assert sorted(songs) == ["song_a", "song_b"]
        assert threading.active_count() == before


class TestOneBlasThread:
    """`run_song`, `run_batch` and `compute_feature` run at one BLAS thread whatever the caller set."""

    def outputs(self, result, out):
        files = {p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith(".result.json")}
        return {**result, "timings": None}, files

    def test_run_song_bytes_do_not_depend_on_the_callers_count(self, song_dir, tmp_path, set_blas_threads):
        # NMF's total_score differs in its last bits at two BLAS threads.
        runs = {}
        for threads in (1, 2):
            set_blas_threads(threads)
            result = pipeline.run_song(make_config(song_dir, tmp_path, compressor="nmf"))
            runs[threads] = self.outputs(result, tmp_path)
        assert runs[2] == runs[1]

    def test_compute_feature_bytes_do_not_depend_on_the_callers_count(self, song_dir, set_blas_threads):
        signal = features.load_wav(str(song_dir / "audio.wav"))
        values = {}
        for threads in (1, 2):
            set_blas_threads(threads)
            values[threads] = features.compute_feature(signal, "nnlms").tobytes()
        assert values[2] == values[1]

    def test_the_callers_count_comes_back(self, short_song_dir, dataset, tmp_path, monkeypatch, set_blas_threads):
        get, _ = workers._openblas()
        set_blas_threads(2)
        seen = []
        compress, at = pipeline._compress, features.FeatureFrames.at

        def recording(fn):
            def recorded(*args, **kwargs):
                seen.append(get())
                return fn(*args, **kwargs)
            return recorded

        monkeypatch.setattr(pipeline, "_compress", recording(compress))
        monkeypatch.setattr(features.FeatureFrames, "at", recording(at))
        pipeline.run_song(make_config(short_song_dir, tmp_path / "song", compressor="none"))
        assert seen == [1, 1] and get() == 2
        pipeline.run_batch(str(dataset), make_config(dataset / "song_a", tmp_path / "batch", compressor="none"))
        assert seen[2:] == [1] * 6 and get() == 2
        features.compute_feature(features.load_wav(str(short_song_dir / "audio.wav")), "chroma")
        assert seen[8:] == [1] and get() == 2

        def failing(*args):
            seen.append(get())
            raise RuntimeError("compression failed")

        monkeypatch.setattr(pipeline, "_compress", failing)
        with pytest.raises(pipeline.StageError, match="compression failed"):
            pipeline.run_song(make_config(short_song_dir, tmp_path / "failed"))
        assert seen[9:] == [1, 1] and get() == 2
        with pytest.raises(ValueError, match="unknown feature"):
            features.compute_feature(features.load_wav(str(short_song_dir / "audio.wav")), "bogus")
        assert get() == 2


class TestCli:
    def test_features_subcommand(self, short_song_dir, tmp_path, capsys):
        rc = cli.main([
            "features", str(short_song_dir / "audio.wav"),
            "--feature", "chroma", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "audio.chroma.csv").exists()
        back = matio.read_bseg(tmp_path / "audio.chroma.bseg")
        assert back.shape[0] == 12
        assert "chroma" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--seed", "--subdivision"])
    def test_features_takes_no_pipeline_only_flags(self, short_song_dir, tmp_path, capsys, flag):
        # Neither flag changes the feature output, so the subcommand refuses them.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["features", str(short_song_dir / "audio.wav"), flag, "7", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("writer, suffix", [("write_csv_matrix", "csv"), ("write_bseg", "bseg")])
    def test_interrupted_features_write_keeps_the_earlier_file(self, short_song_dir, tmp_path, monkeypatch,
                                                                writer, suffix):
        argv = ["features", str(short_song_dir / "audio.wav"), "--feature", "chroma", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def disk_full(path, matrix):
            with open(path, "w") as fh:
                fh.write("0.5,")
            raise OSError("no space left on device")

        monkeypatch.setattr(matio, writer, disk_full)
        assert cli.main(argv) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert f"audio.chroma.{suffix}" in before

    def test_features_config_ignores_keys_that_change_no_feature(self, short_song_dir, tmp_path):
        # One config file serves features and segment alike: features reads
        # only its feature keys, so a segment-only value cannot fail it.
        audio = str(short_song_dir / "audio.wav")
        assert cli.main(["features", audio, "--out", str(tmp_path / "plain")]) == 0
        config = tmp_path / "run.cfg"
        config.write_text("subdivision = 0\ncompressor = ae\nae_max_epochs = 5\n")
        assert cli.main(["features", audio, "--config", str(config), "--out", str(tmp_path / "cfg")]) == 0
        for suffix in ("nnlms.csv", "nnlms.bseg"):
            plain = (tmp_path / "plain" / f"audio.{suffix}").read_bytes()
            assert (tmp_path / "cfg" / f"audio.{suffix}").read_bytes() == plain, suffix

    def test_features_config_applies_feature_key(self, short_song_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"feature = mel\noutput_dir = {tmp_path / 'out'}\n")
        assert cli.main(["features", str(short_song_dir / "audio.wav"), "--config", str(config)]) == 0
        assert matio.read_bseg(tmp_path / "out" / "audio.mel.bseg").shape[0] == 80
        assert capsys.readouterr().out.startswith("mel: 80 bins")

    def test_features_config_unknown_key_rejected(self, short_song_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("feature = mel\nbogus = 1\n")
        rc = cli.main(["features", str(short_song_dir / "audio.wav"), "--config", str(config),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"barseg: error: {config}: unknown config key 'bogus'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dc_args", [[], ["--dc-sweep", "2,3"]])
    def test_failed_segment_rerun_leaves_no_earlier_artifacts(self, short_song_dir, tmp_path, capsys, dc_args):
        argv = ["segment", str(short_song_dir / "audio.wav"), "--downbeats", str(short_song_dir / "downbeats.txt"),
                *dc_args, "--out", str(tmp_path)]
        failing_run = tmp_path / "dc2" if dc_args else tmp_path
        assert cli.main(argv + ["--compressor", "none"]) == 0
        assert sorted(p.name for p in failing_run.iterdir()) == [
            "audio.autosim.pgm", "audio.boundaries.txt", "audio.result.json"]
        # LMS is negative wherever the mel power is below 1, and NMF refuses it.
        assert cli.main(argv + ["--compressor", "nmf", "--feature", "lms"]) == 2
        assert "stage 'compression' failed: NMF needs nonnegative input" in capsys.readouterr().err
        assert not [p for p in failing_run.iterdir() if p.is_file()]
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]  # nor in a sweep run not reached

    @pytest.mark.parametrize("dc_args", [[], ["--dc-sweep", "2,3"]])
    def test_killed_run_leaves_no_earlier_artifacts(self, short_song_dir, tmp_path, dc_args):
        # os._exit runs no except block, as when the process is killed during compression.
        argv = ["segment", str(short_song_dir / "audio.wav"), "--downbeats", str(short_song_dir / "downbeats.txt"),
                *dc_args, "--compressor", "pca", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        for run in ([tmp_path / "dc2", tmp_path / "dc3"] if dc_args else [tmp_path]):
            assert sorted(p.name for p in run.iterdir()) == [
                "audio.autosim.pgm", "audio.boundaries.txt", "audio.result.json"]
        code = ("import os, sys; from barseg import cli, lowrank; "
                "lowrank.pca_compress = lambda *args: os._exit(3); sys.exit(cli.main(sys.argv[1:]))")
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 3, done.stderr
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("dc_args", [[], ["--dc-sweep", "2,3"]])
    def test_rerun_clears_every_run_before_its_first_load(self, short_song_dir, tmp_path, monkeypatch, dc_args):
        argv = ["segment", str(short_song_dir / "audio.wav"), "--downbeats", str(short_song_dir / "downbeats.txt"),
                *dc_args, "--compressor", "none", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        seen = []  # the files under --out as each run's load stage starts
        load_wav = features.load_wav

        def recording_load_wav(path):
            seen.append(sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()))
            return load_wav(path)

        monkeypatch.setattr(features, "load_wav", recording_load_wav)
        assert cli.main(argv) == 0
        artifacts = ["audio.autosim.pgm", "audio.boundaries.txt", "audio.result.json"]
        assert seen == ([[]] if not dc_args else [[], [os.path.join("dc2", name) for name in artifacts]])

    def test_wav_below_32_khz_fails_in_features_under_mel_bands(self, tmp_path, capsys):
        song = tmp_path / "song"
        synthetic.write_song_dir(song, "AAAABBBB", sample_rate=22050)
        argv = ["segment", str(song / "audio.wav"), "--downbeats", str(song / "downbeats.txt")]
        assert cli.main(argv + ["--out", str(tmp_path / "nnlms")]) == 2
        assert capsys.readouterr().err == (
            "barseg: error: stage 'features' failed: feature 'nnlms' needs a sample rate of at least 32 kHz "
            "(its mel bands reach 16000 Hz), got 22050 Hz\n")
        assert not (tmp_path / "nnlms").exists()
        for feature in ("chroma", "mfcc"):
            assert cli.main(argv + ["--feature", feature, "--out", str(tmp_path / feature)]) == 0
            assert (tmp_path / feature / "audio.result.json").exists()

    def test_silent_song_under_pca_is_one_segment(self, silent_song_dir, tmp_path, capsys):
        # Every PCA component of silence is at the rounding floor, so H is
        # zero and the autosimilarity is degenerate.
        with pytest.warns(UserWarning, match=r"degenerate autosimilarity: c_k8_max=0\.0"):
            rc = cli.main([
                "segment", str(silent_song_dir / "audio.wav"),
                "--downbeats", str(silent_song_dir / "downbeats.txt"),
                "--compressor", "pca", "--dc", "8", "--out", str(tmp_path),
            ])
        assert rc == 0
        assert "boundaries (bars) [0, 16]" in capsys.readouterr().out
        assert json.loads((tmp_path / "audio.result.json").read_text())["boundaries_bars"] == [0, 16]

    def test_segment_subcommand(self, song_dir, tmp_path, capsys):
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"),
            "--downbeats", str(song_dir / "downbeats.txt"),
            "--annotations", str(song_dir / "annotations.txt"),
            "--compressor", "pca", "--dc", "8", "--feature", "nnlms",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("audio: boundaries (bars) [0, ")
        assert "F=1.000" in out
        assert (tmp_path / "audio.result.json").exists()

    def test_segment_loads_no_scipy(self, short_song_dir, tmp_path):
        # Neither the import nor a call pays for SciPy, MFCC included: its DCT is one matrix product.
        song = short_song_dir
        code = ("import sys, barseg.cli; rc = barseg.cli.main(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy'))); sys.exit(rc)")
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        for feature in ("nnlms", "mfcc"):
            out = tmp_path / feature
            argv = ["segment", str(song / "audio.wav"), "--downbeats", str(song / "downbeats.txt"),
                    "--annotations", str(song / "annotations.txt"), "--feature", feature,
                    "--compressor", "pca", "--out", str(out)]
            done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src})
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == "[]", feature
            assert (out / "audio.result.json").exists()

    @pytest.mark.parametrize("feature", features.FEATURES)
    @pytest.mark.parametrize("command", ["features", "segment"])
    def test_every_feature_runs_without_scipy(self, short_song_dir, tmp_path, monkeypatch, command, feature):
        for name in ["scipy", *(m for m in sys.modules if m.startswith("scipy."))]:
            monkeypatch.setitem(sys.modules, name, None)  # makes `import scipy...` raise ImportError
        argv = [command, str(short_song_dir / "audio.wav"), "--feature", feature, "--out", str(tmp_path)]
        if command == "segment":
            argv += ["--downbeats", str(short_song_dir / "downbeats.txt"), "--compressor", "none"]
        assert cli.main(argv) == 0

    def test_segment_dc_sweep(self, song_dir, tmp_path, capsys):
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"),
            "--downbeats", str(song_dir / "downbeats.txt"),
            "--annotations", str(song_dir / "annotations.txt"),
            "--compressor", "pca", "--dc-sweep", "2,4", "--feature", "nnlms",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        # Each run's heading names its output subdirectory; its scores are indented under it.
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines] == [
            "dc2/audio", "  tol 0.5s", "  tol 3s", "dc4/audio", "  tol 0.5s", "  tol 3s"]
        for d_c in (2, 4):
            loaded = json.loads((tmp_path / f"dc{d_c}" / "audio.result.json").read_text())
            assert loaded["config"]["d_c"] == d_c
            bars = ", ".join(str(b) for b in loaded["boundaries_bars"])
            assert f"dc{d_c}/audio: boundaries (bars) [{bars}]" in lines

    def test_config_file_with_flag_override(self, song_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# pipeline defaults\nfeature = lms\nd_c = 4\ncompressor = pca\n")
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"),
            "--downbeats", str(song_dir / "downbeats.txt"),
            "--config", str(config), "--feature", "nnlms",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        loaded = json.loads((tmp_path / "out" / "audio.result.json").read_text())
        # The flag overrides the config file; unset keys fall back to the file.
        assert loaded["config"]["feature"] == "nnlms"
        assert loaded["config"]["d_c"] == 4

    def test_config_file_unknown_key_rejected(self, song_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("d_c = 4\nbogus = 1\n")
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"),
            "--downbeats", str(song_dir / "downbeats.txt"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("barseg: error: ")
        assert str(config) in err and "'bogus'" in err
        assert not (tmp_path / "out").exists()

    def test_config_file_bad_value_names_file_and_key(self, song_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("d_c = abc\n")
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"),
            "--downbeats", str(song_dir / "downbeats.txt"), "--config", str(config),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"barseg: error: {config}: d_c: invalid literal for int() with base 10: 'abc'\n"

    @pytest.mark.parametrize("command", ["segment", "eval"])
    def test_bad_tolerances_flag_names_source_and_key(self, song_dir, tmp_path, capsys, command):
        ann = str(song_dir / "annotations.txt")
        if command == "segment":
            argv = ["segment", str(song_dir / "audio.wav"), "--downbeats", str(song_dir / "downbeats.txt")]
        else:
            argv = ["eval", ann, ann]
        rc = cli.main(argv + ["--tolerances", "x", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "barseg: error: command line: tolerances: could not convert string to float: 'x'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, config, message", [
        (["--max-segment", "0"], None, "max_segment must be >= 1, got 0"),
        (["--subdivision", "0"], None, "subdivision must be >= 1, got 0"),
        (["--compressor", "nmf", "--seed=-1"], None, "seed must be >= 0, got -1"),
        (["--tolerances=nan"], None, "tolerances must be finite and positive, got (nan,)"),
        (["--tolerances=0,3"], None, "tolerances must be finite and positive, got (0.0, 3.0)"),
        ([], "compressor = ae\nae_batch_size = 0\n", "ae_batch_size must be >= 1, got 0"),
        (["--compressor", "ae", "--ae-max-epochs=-2"], None, "ae_max_epochs must be >= 1, got -2"),
        (["--compressor", "ae", "--subdivision", "90"], None, "subdivision must be divisible by 4, got 90"),
        ([], "compressor = ae\nsubdivision = 90\n", "subdivision must be divisible by 4, got 90"),
        (["--tolerances=0.5,0.5000001,3"], None, "tolerances 0.5 and 0.5000001 share the report key '0.5'"),
    ])
    def test_bad_setting_exits_2_before_any_stage(self, song_dir, tmp_path, capsys, flags, config, message):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            flags = flags + ["--config", str(tmp_path / "run.cfg")]
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"), "--downbeats", str(song_dir / "downbeats.txt"),
            "--annotations", str(song_dir / "annotations.txt"), "--out", str(tmp_path / "out"),
        ] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"barseg: error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_eval_rejects_tolerances_that_share_a_key(self, song_dir, tmp_path, capsys):
        ann = str(song_dir / "annotations.txt")
        rc = cli.main(["eval", ann, ann, "--tolerances", "0.5,0.5000001,3", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr() == ("", "barseg: error: tolerances 0.5 and 0.5000001 share the report key '0.5'\n")
        assert not (tmp_path / "out").exists()

    def test_bad_dc_sweep_names_flag(self, song_dir, tmp_path, capsys):
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"), "--downbeats", str(song_dir / "downbeats.txt"),
            "--dc-sweep", "2,x", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "barseg: error: command line: dc_sweep: invalid literal for int() with base 10: 'x'\n"
        assert not (tmp_path / "out").exists()

    def test_dc_sweep_checks_every_value_before_the_first_run(self, short_song_dir, tmp_path, capsys):
        rc = cli.main([
            "segment", str(short_song_dir / "audio.wav"), "--downbeats", str(short_song_dir / "downbeats.txt"),
            "--dc-sweep", "4,0", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "barseg: error: d_c is required unless compressor=none\n"
        assert not (tmp_path / "out" / "dc4").exists()

    def test_repeated_dc_sweep_value_runs_once(self, short_song_dir, tmp_path, capsys, monkeypatch):
        calls = []
        run_song = pipeline.run_song
        monkeypatch.setattr(pipeline, "run_song", lambda cfg: calls.append(cfg.d_c) or run_song(cfg))
        rc = cli.main([
            "segment", str(short_song_dir / "audio.wav"), "--downbeats", str(short_song_dir / "downbeats.txt"),
            "--dc-sweep", "4,2,4", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert calls == [4, 2]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines] == ["dc4/audio", "dc2/audio"]

    def test_interrupted_eval_write_keeps_the_earlier_file(self, song_dir, tmp_path, monkeypatch, capsys):
        ann = str(song_dir / "annotations.txt")
        assert cli.main(["eval", ann, ann, "--out", str(tmp_path)]) == 0
        before = (tmp_path / "eval.json").read_bytes()

        def disk_full(path, obj):
            with open(path, "w") as fh:
                fh.write("{")
            raise OSError("no space left on device")

        monkeypatch.setattr(matio, "write_json", disk_full)
        assert cli.main(["eval", ann, ann, "--out", str(tmp_path)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["eval.json"]
        assert (tmp_path / "eval.json").read_bytes() == before

    def test_eval_subcommand(self, song_dir, tmp_path, capsys):
        ann = str(song_dir / "annotations.txt")
        rc = cli.main(["eval", ann, ann, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["0.5"]["f_measure"] == 1.0
        assert json.loads((tmp_path / "eval.json").read_text()) == report

    def test_batch_subcommand_failure_exit_code(self, tmp_path, capsys):
        root = tmp_path / "data"
        synthetic.write_song_dir(root / "ok", "AAAABBBB")
        os.makedirs(root / "bad")
        (root / "bad" / "audio.wav").write_bytes(b"not a wav")
        (root / "bad" / "downbeats.txt").write_text("0.0\n0.5\n")
        rc = cli.main([
            "batch", str(root), "--compressor", "none",
            "--feature", "nnlms", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILED bad" in captured.err
        assert '"n_failed": 1' in captured.out

    def test_batch_takes_no_dc_sweep(self, dataset, tmp_path, capsys):
        # Only `segment` sweeps d_c. A batch runs one d_c, so it refuses the flag instead of ignoring it.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["batch", str(dataset), "--dc-sweep", "2,4", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --dc-sweep 2,4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_batch_output_inside_dataset_is_no_song(self, tmp_path, capsys):
        root = tmp_path / "data"
        synthetic.write_song_dir(root / "song", "AAAABBBB")
        argv = ["batch", str(root), "--compressor", "none", "--out", str(root / "results")]
        for _ in range(2):
            assert cli.main(argv) == 0
            aggregate = json.loads((root / "results" / "aggregate.json").read_text())
            assert (aggregate["n_songs"], aggregate["n_failed"]) == (1, 0)
        assert "FAILED" not in capsys.readouterr().err

    def test_bad_arguments_exit_2(self, tmp_path, capsys):
        rc = cli.main([
            "segment", str(tmp_path / "missing.wav"),
            "--downbeats", str(tmp_path / "missing.txt"),
            "--compressor", "pca", "--dc", "2",
        ])
        assert rc == 2
        assert "barseg: error" in capsys.readouterr().err
