import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from barseg import features, matio

from conftest import traced_peak


def round_trip(write, read, matrix, name):
    """read(write(matrix)) through a file in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        write(path, matrix)
        return read(path)


class TestBseg:
    def test_roundtrip(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((7, 5))
        path = tmp_path / "m.bseg"
        matio.write_bseg(path, m)
        back = matio.read_bseg(path)
        assert np.array_equal(back, m)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.bseg"
        matio.write_bseg(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"BSEG"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 3
        assert len(raw) == 12 + 2 * 3 * 8

    def test_write_copies_no_matrix(self, tmp_path):
        m = np.random.default_rng(1).random((80, 20000))
        assert traced_peak(lambda: matio.write_bseg(tmp_path / "m.bseg", m)) < m.nbytes / 16
        assert matio.read_bseg(tmp_path / "m.bseg").tobytes() == m.tobytes()

    @pytest.mark.parametrize("kind", ["chroma", "mel", "lms", "nnlms", "mfcc"])
    def test_feature_bytes_are_the_header_and_the_values(self, tmp_path, kind):
        sig = features.AudioSignal(np.random.default_rng(2).uniform(-1, 1, 22050), 44100)
        values = features.compute_feature(sig, kind)
        matio.write_bseg(tmp_path / "m.bseg", values)
        expected = b"BSEG" + struct.pack("<II", *values.shape) + values.astype("<f8").tobytes()
        assert (tmp_path / "m.bseg").read_bytes() == expected

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bseg"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            matio.read_bseg(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.bseg"
        matio.write_bseg(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            matio.read_bseg(path)

    @pytest.mark.parametrize("side", [0xFFFFFFFF, 40000])
    def test_header_larger_than_the_file_rejected_before_reading(self, tmp_path, side):
        # A 76-byte file whose header declares side x side values.
        path = tmp_path / "m.bseg"
        path.write_bytes(b"BSEG" + struct.pack("<II", side, side) + bytes(64))

        def read():
            with pytest.raises(ValueError) as excinfo:
                matio.read_bseg(path)
            assert str(excinfo.value) == f"{path}: truncated BSEG payload"

        assert traced_peak(read) < 1 << 20

    @settings(derandomize=True, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                  elements=st.floats(width=64) | st.sampled_from([0.0, -0.0, 1e308, -1e308])))
    def test_roundtrip_bit_equal(self, m):
        back = round_trip(matio.write_bseg, matio.read_bseg, m, "m.bseg")
        assert back.dtype == np.float64 and back.shape == m.shape
        assert back.tobytes() == m.tobytes()


class TestPgm:
    def test_mapping_values(self, tmp_path):
        path = tmp_path / "a.pgm"
        matio.write_pgm(path, np.array([[1.0, 0.0], [0.0, 1.0]]))
        pixels = matio.read_pgm(path)
        assert np.array_equal(pixels, [[255, 128], [128, 255]])

    def test_all_ones_all_white(self, tmp_path):
        path = tmp_path / "b.pgm"
        matio.write_pgm(path, np.ones((3, 3)))
        assert np.all(matio.read_pgm(path) == 255)

    def test_quantization_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.uniform(-1, 1, size=(9, 9))
        path = tmp_path / "c.pgm"
        matio.write_pgm(path, m)
        expected = np.clip(np.rint(255 * (m + 1) / 2), 0, 255).astype(np.uint8)
        assert np.array_equal(matio.read_pgm(path), expected)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "d.pgm"
        matio.write_pgm(path, np.zeros((3, 4)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError) as excinfo:
            matio.read_pgm(path)
        assert str(excinfo.value) == f"{path}: truncated PGM payload"

    @settings(derandomize=True, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
                  elements=st.floats(-1.0, 1.0)))
    def test_roundtrip_quantizes(self, m):
        expected = np.clip(np.rint(255 * (m + 1) / 2), 0, 255).astype(np.uint8)
        assert np.array_equal(round_trip(matio.write_pgm, matio.read_pgm, m, "m.pgm"), expected)


class TestJson:
    def test_floats_round_trip_exactly(self):
        values = [1.0 / 3.0, 0.1, 1e-300, 5e-324, 3.0]
        back = json.loads(matio.dumps_json({"x": values}))["x"]
        assert back == values
        assert all(type(v) is float for v in back)

    def test_deterministic_bytes(self):
        obj = {"a": [1, 2.5, None, True], "b": {"c": "hi"}}
        assert matio.dumps_json(obj) == matio.dumps_json(obj)

    def test_parses_back(self):
        obj = {"a": [1, 2.5, None, True, "x\"y"], "b": {}, "c": []}
        back = json.loads(matio.dumps_json(obj))
        assert back == obj

    def test_layout(self):
        text = matio.dumps_json({"a": [1, 0.5], "b": {}, "c": []})
        assert text == '{\n  "a": [\n    1,\n    0.5\n  ],\n  "b": {},\n  "c": []\n}\n'

    def test_numpy_scalars(self):
        text = matio.dumps_json({"i": np.int64(3), "f": np.float64(0.5), "v": np.arange(2)})
        assert json.loads(text) == {"i": 3, "f": 0.5, "v": [0, 1]}

    @pytest.mark.parametrize("text", ["tab\there", "new\nline"])
    def test_control_characters_round_trip(self, text):
        obj = {text: text, "list": [text]}
        assert json.loads(matio.dumps_json(obj)) == obj

    def test_non_ascii_song_id_round_trips(self):
        obj = {"song_id": "Für Elise – 第1楽章"}
        assert json.loads(matio.dumps_json(obj)) == obj

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64("nan"), np.array([1.0, np.inf])])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError):
            matio.dumps_json({"x": value})

    def test_non_finite_leaves_no_file(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            matio.write_json(path, {"x": float("nan")})
        assert not path.exists()

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            matio.dumps_json({"x": object()})


class TestCsv:
    def test_matrix_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        matio.write_csv_matrix(path, np.array([[1.0, 2.0], [3.5, -4.0]]))
        lines = path.read_text().splitlines()
        assert lines == ["1,2", "3.5,-4"]

    def test_signed_zero_and_subnormal_bytes(self, tmp_path):
        path = tmp_path / "m.csv"
        matio.write_csv_matrix(path, np.array([[-0.0, 1e-320], [0.1, 2.0]]))
        assert path.read_bytes() == b"-0,9.9998886718268301e-321\n0.10000000000000001,2\n"


class TestCheckOutputDir:
    @pytest.mark.parametrize("relative", [".", "out", "new/deeper/out"])
    def test_a_directory_or_one_that_can_be_made_passes_and_nothing_is_made(self, tmp_path, relative):
        (tmp_path / "out").mkdir()
        before = sorted(tmp_path.rglob("*"))
        matio.check_output_dir(str(tmp_path / relative))
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("relative", ["file", "file/sub", "broken", "broken/sub"])
    def test_a_file_on_the_path_fails(self, tmp_path, relative):
        (tmp_path / "file").write_text("")
        (tmp_path / "broken").symlink_to(tmp_path / "nowhere")
        with pytest.raises(ValueError, match="is not a directory$"):
            matio.check_output_dir(str(tmp_path / relative))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["broken", "file"]

    def test_an_unwritable_ancestor_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matio.os, "access", lambda path, mode: False)
        matio.check_output_dir(str(tmp_path))  # it exists, so write_in_place makes nothing
        with pytest.raises(ValueError, match=f"cannot make it in '{tmp_path}', which is not writable$"):
            matio.check_output_dir(str(tmp_path / "new" / "out"))
        assert list(tmp_path.iterdir()) == []
