import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epkit import cli, fileio
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


def _pgm_pixels_reference(path):
    """fileio._pgm_pixels as it read the header before its token pattern: byte by byte."""
    blob = path.read_bytes()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(blob):
            c = blob[pos : pos + 1]
            if c == b"#":
                nl = blob.find(b"\n", pos)
                pos = len(blob) if nl < 0 else nl + 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise InputFormatError(f"{path}: truncated PGM header", byte_offset=start)
        return blob[start:pos], start

    magic, off = next_token()
    if magic != b"P5":
        raise InputFormatError(f"{path}: not a binary PGM (magic {magic!r})", byte_offset=off)
    fields = []
    for _ in range(3):
        tok, off = next_token()
        try:
            fields.append(int(tok))
        except ValueError:
            raise InputFormatError(f"{path}: non-numeric PGM header token {tok!r}", byte_offset=off) from None
    w, h, maxval = fields
    if maxval != 255 or w < 1 or h < 1:
        raise InputFormatError(f"{path}: unsupported PGM header {w}x{h} max {maxval}", byte_offset=off)
    pos += 1
    if len(blob) - pos != w * h:
        raise InputFormatError(f"{path}: expected {w * h} pixel bytes, found {len(blob) - pos}", byte_offset=pos)
    return np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(h, w)


_PGM_WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]  # all six ASCII whitespace bytes
_PGM_ALPHABET = _PGM_WHITESPACE + [bytes([c]) for c in b"#0123456789+-_"] + [b"P5", b"P6"]


@st.composite
def _pgm_blobs(draw) -> bytes:
    """A PGM file with drawn separators and comments, and a drawn bad token, pixel count or cut, or none."""
    junk = st.lists(st.sampled_from(_PGM_ALPHABET), max_size=6).map(b"".join)
    comment = junk.map(lambda j: b"#" + j.replace(b"\n", b"") + b"\n")
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tokens = [b"P5", b"%d" % w, b"%d" % h, b"255"]
    fault = draw(st.sampled_from([None, "token", "pixels", "cut"]))
    if fault == "token":
        tokens[draw(st.integers(0, 3))] = draw(st.sampled_from([b"P6", b"+2", b"-1", b"1_0", b"2#5", b"0255"]) | junk)
    blob = b""
    for k, token in enumerate(tokens):
        blob += b"".join(draw(st.lists(st.sampled_from(_PGM_WHITESPACE) | comment, min_size=min(k, 1), max_size=3)))
        blob += token
    n = w * h + (draw(st.sampled_from([-1, 1])) if fault == "pixels" else 0)
    blob += draw(st.sampled_from(_PGM_WHITESPACE)) + draw(st.binary(min_size=n, max_size=n))
    return blob[: draw(st.integers(0, len(blob)))] if fault == "cut" else blob


def _pgm_outcome(read, path):
    """The pixels read, or the InputFormatError's message and byte offset."""
    try:
        return read(path)
    except InputFormatError as exc:
        return str(exc), exc.byte_offset


@given(blob=_pgm_blobs())
@example(blob=b"#\x0b\nP5\x0c# a comment 9\n2\x0b1\r\n#\n255\t\x00\xff")
@example(blob=b"P5 2#5 1 255 xx")
@example(blob=b"P5 2 1 255 # no newline")
@example(blob=b"P5 2\x0b# cut after a separator\n\x0c")
def test_pgm_header_tokens_match_the_byte_scanner(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "header.pgm"
    path.write_bytes(blob)
    want = _pgm_outcome(_pgm_pixels_reference, path)
    got = _pgm_outcome(fileio._pgm_pixels, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)


def test_read_frames_is_one_uint8_stack_of_the_written_bytes(tmp_path):
    pixels = rng(3).integers(0, 256, size=(4, 5, 7), dtype=np.uint8)
    for t, p in enumerate(pixels):
        fileio.write_pgm(tmp_path / f"f{t}.pgm", p / 255.0)
    frames = fileio.read_frames(tmp_path)
    assert frames.dtype == np.uint8 and frames.shape == (4, 5, 7)
    assert np.array_equal(frames, pixels)


@pytest.mark.parametrize("odd_shape", [(7, 5), (1, 7)])  # (1, 7) would broadcast into a (5, 7) slot
def test_frame_of_another_shape_exits_3_with_its_path_before_out(tmp_path, capsys, odd_shape):
    frames = tmp_path / "frames"
    frames.mkdir()
    for t in range(3):
        fileio.write_pgm(frames / f"f{t}.pgm", np.zeros(odd_shape if t == 1 else (5, 7)))
    with pytest.raises(SchemaError, match="f1.pgm"):
        fileio.read_frames(frames)
    boxes = tmp_path / "boxes.jsonl"
    fileio.write_jsonl(boxes, [{"frame": t, "boxes": []} for t in range(3)])
    out = tmp_path / "o"
    assert cli.main(["flow-group", "--frames", str(frames), "--boxes", str(boxes), "--out", str(out)]) == 3
    assert "f1.pgm" in capsys.readouterr().err
    assert not out.exists()


def test_detections_round_trip(tmp_path):
    bundle = gen_driver_session(
        [("safe_driving", 5), ("drinking", 5)], side_flip_fraction=0.3, seed=3
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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_jsonl_non_finite_number_names_offset(tmp_path, literal):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"frame": 0}\n{"frame": 1, "x": ' + literal.encode() + b"}\n")
    with pytest.raises(InputFormatError, match="byte offset 13"):
        fileio.read_jsonl(path)


@pytest.mark.parametrize("field", ['"score": true', '"score": "0.9"', '"side_score": false',
                                   '"score": 1e999', '"side_score": -1e999', '"score": 1' + "0" * 400])
def test_detections_non_number_names_record(tmp_path, field):
    path = tmp_path / "d.jsonl"
    path.write_text('{"frame": 0, "hands": [{"box": [0.1, 0.1, 0.2, 0.2], "score": 0.9, ' + field + "}]}\n")
    with pytest.raises(SchemaError, match=r"d\.jsonl:1: expected a number"):
        fileio.read_detections(path)


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400])
def test_box_beyond_the_float_range_names_record(tmp_path, literal):
    path = tmp_path / "b.jsonl"
    path.write_text('{"frame": 0, "boxes": [[0.1, 0.1, 0.2, ' + literal + "]]}\n")
    with pytest.raises(SchemaError, match=r"b\.jsonl:1: boxes must be a list"):
        fileio.read_box_records(path, 1)


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


@pytest.mark.parametrize("read", [
    fileio.read_matrix, fileio.read_pgm, fileio.read_jsonl, fileio.read_json, fileio.read_detections,
    lambda path: fileio.read_box_records(path, 1),
])
def test_readers_name_a_path_they_cannot_read(tmp_path, read):
    with pytest.raises(InputFormatError, match=f"{tmp_path / 'missing'}: cannot read: No such file"):
        read(tmp_path / "missing")
    with pytest.raises(InputFormatError, match=f"{tmp_path}: cannot read: Is a directory"):
        read(tmp_path)


def test_deep_nesting_is_bad_json_at_the_line_offset(tmp_path, capsys):
    first = b"[1,\r2]\n"  # one line: a JSON-lines file splits on \n only
    path = tmp_path / "d.jsonl"
    path.write_bytes(first + b"[" * 100_000 + b"\n")
    with pytest.raises(InputFormatError, match=f"byte offset {len(first)}"):
        fileio.read_jsonl(path)
    path.write_bytes(b"[" * 100_000)
    with pytest.raises(InputFormatError, match="bad JSON.*recursion"):
        fileio.read_json(path)
    path.write_bytes(b'{"frame": 0}\n' + b"[" * 100_000 + b"\n")
    assert cli.main(["segment", "--detections", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "byte offset 13" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_read_json_names_the_byte_offset_of_the_failure(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes('{"é": [1, }'.encode())  # the offset counts bytes, not characters
    with pytest.raises(InputFormatError, match="byte offset 11"):
        fileio.read_json(path)
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(InputFormatError, match="byte offset 7"):
        fileio.read_json(path)


# Fuzzing: each reader gets a valid file of its kind, damaged by truncation,
# flipped bits or inserted (often oversized) bytes; only the two typed errors
# may escape, an InputFormatError at a byte offset, a SchemaError at path:line.
_OVERSIZED = [b"[" * 100_000, b'{"a":' * 3000, b"9" * 5000, b"1e999", b"-" * 4000, b" " * 70_000,
              b"\n" * 5000, b"\xff\xfe", b"\x00" * 64, b"99999999999999999999 "]


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """For each file a reader reads: its path, its valid bytes and the reader call."""
    root = tmp_path_factory.mktemp("readers")
    bundle = gen_driver_session([("safe_driving", 2), ("drinking", 2)], side_flip_fraction=0.5, seed=3)
    fileio.write_detections(root / "d.jsonl", bundle.payload["frames"])
    fileio.write_jsonl(root / "b.jsonl", [{"frame": t, "boxes": [[0.1, 0.2, 0.5, 0.6]] * t} for t in range(3)])
    fileio.write_json(root / "c.json", {"gfl": {"lambda": 2.5, "threshold": [0.5, 1]}, "episode_rules": None})
    fileio.write_matrix(root / "m.mat", rng(5).standard_normal((3, 4)))
    (root / "frames").mkdir()
    for t in range(2):
        fileio.write_pgm(root / "frames" / f"f{t}.pgm", rng(t).uniform(0, 1, (5, 7)))
    calls = {
        "m.mat": fileio.read_matrix,
        "frames/f0.pgm": lambda _path: fileio.read_frames(root / "frames"),
        "frames/f1.pgm": lambda _path: fileio.read_frames(root / "frames"),
        "d.jsonl": fileio.read_detections,
        "b.jsonl": lambda path: fileio.read_box_records(path, 3),
        "c.json": fileio.read_json,
    }
    return {name: (root / name, (root / name).read_bytes(), call) for name, call in calls.items()}


@st.composite
def _damaged(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(out)
    at = draw(st.integers(0, len(out)))
    return bytes(out[:at] + draw(st.sampled_from(_OVERSIZED) | st.binary(min_size=1, max_size=40)) + out[at:])


@settings(max_examples=500)
@given(data=st.data())
def test_damaged_input_raises_only_the_typed_errors(reader_inputs, data):
    name = data.draw(st.sampled_from(sorted(reader_inputs)))
    path, blob, read = reader_inputs[name]
    try:
        path.write_bytes(data.draw(_damaged(blob)))
        read(path)
    except InputFormatError as exc:
        assert "byte offset" in str(exc)
    except SchemaError as exc:
        assert f"{path}:" in str(exc)
    finally:
        path.write_bytes(blob)
