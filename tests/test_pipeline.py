import json
import os

import numpy as np
import pytest
import scipy.io.wavfile

from barseg import cli, matio, pipeline, synthetic

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


class TestRunSong:
    def test_recovers_structure(self, pca_run):
        result, _, _ = pca_run
        assert result.boundaries_seconds == EXPECTED_SECONDS
        assert result.eval_report["0.5"]["f_measure"] == 1.0
        assert result.eval_report["3"]["f_measure"] == 1.0

    def test_artifacts_written(self, pca_run):
        _, out, _ = pca_run
        for suffix in (".result.json", ".boundaries.txt", ".autosim.pgm"):
            assert (out / f"audio{suffix}").exists()

    def test_result_json_parses(self, pca_run):
        result, out, _ = pca_run
        loaded = json.loads((out / "audio.result.json").read_text())
        assert loaded["boundaries_seconds"] == result.boundaries_seconds
        assert loaded["config"]["compressor"] == "pca"
        assert loaded["eval"]["0.5"]["f_measure"] == 1.0

    def test_timings_present_and_positive(self, pca_run):
        result, _, _ = pca_run
        expected = {"load", "features", "barwise_tf", "compression", "segmentation", "evaluation"}
        assert set(result.timings) == expected
        assert all(v > 0 for v in result.timings.values())

    def test_boundary_file_format(self, pca_run):
        result, out, _ = pca_run
        lines = (out / "audio.boundaries.txt").read_text().splitlines()
        assert len(lines) == len(result.boundaries_seconds) - 1
        starts, ends = zip(*(map(float, line.split("\t")) for line in lines))
        assert list(starts) == result.boundaries_seconds[:-1]
        assert list(ends) == result.boundaries_seconds[1:]

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
        a, b = result.to_dict(), rerun.to_dict()
        a.pop("timings"), b.pop("timings")
        a["config"].pop("output_dir"), b["config"].pop("output_dir")
        assert matio.dumps_json(a) == matio.dumps_json(b)

    def test_compressor_none_completes(self, short_song_dir, tmp_path):
        cfg = make_config(short_song_dir, tmp_path, compressor="none")
        result = pipeline.run_song(cfg)
        assert result.boundaries_bars[0] == 0 and result.boundaries_bars[-1] == 8
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

    def test_timings_keys_without_annotations(self, short_song_dir, tmp_path):
        cfg = make_config(short_song_dir, tmp_path, compressor="none", annotations_path="")
        result = pipeline.run_song(cfg)
        assert set(result.timings) == {"load", "features", "barwise_tf", "compression", "segmentation"}


class TestDegenerateInput:
    @pytest.mark.parametrize("compressor", ["pca", "none"])
    def test_silent_song_is_one_segment(self, silent_song_dir, tmp_path, compressor):
        cfg = make_config(silent_song_dir, tmp_path, compressor=compressor)
        with pytest.warns(UserWarning, match=r"c_k8_max=0\.0 is not positive"):
            result = pipeline.run_song(cfg)
        assert result.boundaries_bars == [0, 16]
        assert result.boundaries_seconds == [0.0, 8.0]
        assert result.total_score == 0.0
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
        with pytest.warns(UserWarning, match=r"^song 'audio': dropped 2 bars that start at or past the audio end$"):
            result = pipeline.run_song(cfg)
        expected = pipeline.run_song(make_config(short_song_dir, tmp_path / "ref", compressor="none"))
        assert result.boundaries_bars == expected.boundaries_bars == [0, 4, 8]
        assert result.boundaries_seconds == expected.boundaries_seconds
        assert result.total_score == expected.total_score

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
            assert pipeline.run_song(cfg).boundaries_bars[-1] == 6


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
        ("ae_max_epochs", 0, "ae_max_epochs must be >= 1, got 0"),
    ])
    def test_bad_setting_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            pipeline.PipelineConfig(**{field: value})

    def test_config_echo_round_trips(self):
        cfg = pipeline.PipelineConfig(feature="mel", compressor="none", d_c=4)
        echoed = cfg.echo()
        assert echoed["feature"] == "mel"
        assert echoed["tolerances"] == [0.5, 3.0]


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
        assert [r.song_id for r in results] == ["song_a", "song_b", "song_c"]
        assert (tmp_path / "aggregate.json").exists()
        csv_lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert csv_lines[0] == "tolerance,precision,recall,f_measure,n_songs"
        assert len(csv_lines) == 3

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

    def test_empty_dataset_rejected(self, tmp_path):
        cfg = pipeline.PipelineConfig()
        with pytest.raises(ValueError, match="no song directories"):
            pipeline.run_batch(str(tmp_path), cfg)
        with pytest.raises(ValueError, match="not found"):
            pipeline.run_batch(str(tmp_path / "nope"), cfg)


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
        assert "F=1.000" in out
        assert (tmp_path / "audio.result.json").exists()

    def test_segment_dc_sweep(self, song_dir, tmp_path, capsys):
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"),
            "--downbeats", str(song_dir / "downbeats.txt"),
            "--compressor", "pca", "--dc-sweep", "2,4", "--feature", "nnlms",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        for d_c in (2, 4):
            loaded = json.loads((tmp_path / f"dc{d_c}" / "audio.result.json").read_text())
            assert loaded["config"]["d_c"] == d_c

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

    def test_bad_dc_sweep_names_flag(self, song_dir, tmp_path, capsys):
        rc = cli.main([
            "segment", str(song_dir / "audio.wav"), "--downbeats", str(song_dir / "downbeats.txt"),
            "--dc-sweep", "2,x", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "barseg: error: command line: dc_sweep: invalid literal for int() with base 10: 'x'\n"
        assert not (tmp_path / "out").exists()

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

    def test_bad_arguments_exit_2(self, tmp_path, capsys):
        rc = cli.main([
            "segment", str(tmp_path / "missing.wav"),
            "--downbeats", str(tmp_path / "missing.txt"),
            "--compressor", "pca", "--dc", "2",
        ])
        assert rc == 2
        assert "barseg: error" in capsys.readouterr().err
