import csv

import numpy as np
import pytest

from epkit import fileio
from epkit.fileio import InputFormatError, SchemaError
from epkit.fusion import HandDetection, ObjectDetection, PoseFrame
from epkit.synth import gen_driver_session, rng


def test_matrix_round_trip(tmp_path):
    m = rng(1).standard_normal((7, 5))
    path = tmp_path / "m.mat"
    fileio.write_matrix(path, m)
    assert np.array_equal(fileio.read_matrix(path), m)


def test_matrix_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"NOTMAT00junk")
    with pytest.raises(InputFormatError, match="byte offset 0"):
        fileio.read_matrix(path)


def test_matrix_truncated_data_names_offset(tmp_path):
    m = np.ones((3, 3))
    path = tmp_path / "m.mat"
    fileio.write_matrix(path, m)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(InputFormatError, match="byte offset"):
        fileio.read_matrix(path)


def test_matrix_garbage_dims(tmp_path):
    path = tmp_path / "m.mat"
    path.write_bytes(b"EPKMAT1\nthree by four\n")
    with pytest.raises(InputFormatError, match="two positive integers"):
        fileio.read_matrix(path)


def test_pgm_round_trip_bit_exact(tmp_path):
    f = np.round(rng(2).uniform(0, 1, size=(9, 13)) * 255) / 255
    path = tmp_path / "f.pgm"
    fileio.write_pgm(path, f)
    assert np.array_equal(fileio.read_pgm(path), f)


def test_pgm_rejects_malformed(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\nxxxx")
    with pytest.raises(InputFormatError, match="magic"):
        fileio.read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\nxx")  # short pixel data
    with pytest.raises(InputFormatError, match="pixel bytes"):
        fileio.read_pgm(path)


def test_detections_round_trip(tmp_path):
    bundle = gen_driver_session(
        [("safe_driving", 5), ("drinking", 5)], side_flip_fraction=0.3, seed=3, render=False
    )
    frames = bundle.payload["frames"]
    path = tmp_path / "d.jsonl"
    fileio.write_detections(path, frames)
    loaded = fileio.read_detections(path)
    assert len(loaded) == len(frames)
    for (pa, ha, oa), (pb, hb, ob) in zip(frames, loaded):
        assert pa == pb
        assert ha == hb
        assert oa == ob


def test_detections_schema_error_names_record(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"frame": 0, "hands": [{"box": [0.1, 0.1, 0.2]}]}\n')
    with pytest.raises(SchemaError, match=":1"):
        fileio.read_detections(path)


def test_jsonl_bad_line_names_offset(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"frame": 0}\nnot json\n')
    with pytest.raises(InputFormatError, match="byte offset 13"):
        fileio.read_jsonl(path)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    fileio.write_csv(path, ["frame", "energy"], [(0, 1.5), (1, 0.25)])
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["frame", "energy"]
    assert [(int(r[0]), float(r[1])) for r in rows] == [(0, 1.5), (1, 0.25)]


def test_canon_dumps_is_deterministic():
    rec = {"b": 1, "a": [1.5, {"z": 0.1, "y": None}]}
    assert fileio.canon_dumps(rec) == fileio.canon_dumps(dict(reversed(rec.items())))
    with pytest.raises(ValueError):
        fileio.canon_dumps({"x": float("nan")})


def test_list_pgm_frames_errors(tmp_path):
    with pytest.raises(InputFormatError):
        fileio.list_pgm_frames(tmp_path / "missing")
    empty = tmp_path / "frames"
    empty.mkdir()
    with pytest.raises(InputFormatError, match="no .pgm frames"):
        fileio.list_pgm_frames(empty)
