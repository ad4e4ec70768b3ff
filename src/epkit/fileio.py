"""File formats: EPKMAT1 matrices, binary PGM frames, JSON-lines streams.

Readers raise only two errors: InputFormatError for a missing, unreadable or
structurally malformed file (with the byte offset of the failure), SchemaError
naming the offending record; a number read passes the settings' number rule
(fusion.is_number) and a detection box the box rule (fusion.check_box).
Writers are deterministic byte for byte and take Python values, as the stages
pass them: in the JSON writers a numpy integer, bool or array raises TypeError.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
from typing import Iterable

import numpy as np

from .fusion import HandDetection, ObjectDetection, PoseFrame, is_number


class InputFormatError(Exception):
    """Structurally malformed input file (CLI exit code 2)."""

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class SchemaError(Exception):
    """Well-formed file with inconsistent or missing content (exit code 3)."""


class ConfigError(Exception):
    """Bad or missing configuration (exit code 4)."""


@contextlib.contextmanager
def _os_errors(path, action: str):
    """Turn an OSError raised inside the block into InputFormatError "<path>: cannot <action>: ..."."""
    try:
        yield
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot {action}: {exc.strerror or exc}") from None


def make_dir(path) -> None:
    """Create the directory *path* and its parents unless it exists; InputFormatError if it cannot."""
    with _os_errors(path, "create directory"):
        os.makedirs(path, exist_ok=True)


MAT_MAGIC = b"EPKMAT1\n"


def write_matrix(path, m) -> None:
    a = np.ascontiguousarray(np.asarray(m, dtype="<f8"))
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    with open(path, "wb") as fh:
        fh.write(MAT_MAGIC)
        fh.write(f"{a.shape[0]} {a.shape[1]}\n".encode("ascii"))
        fh.write(a.tobytes())


def read_matrix(path) -> np.ndarray:
    with _os_errors(path, "read"), open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAT_MAGIC):
        raise InputFormatError(f"{path}: bad magic, expected EPKMAT1", byte_offset=0)
    nl = blob.find(b"\n", len(MAT_MAGIC))
    if nl < 0:
        raise InputFormatError(f"{path}: unterminated dimension line", byte_offset=len(MAT_MAGIC))
    dims_raw = blob[len(MAT_MAGIC) : nl]
    parts = dims_raw.split()
    try:
        rows, cols = int(parts[0]), int(parts[1])
        if len(parts) != 2 or rows < 1 or cols < 1:
            raise ValueError
    except (ValueError, IndexError):
        raise InputFormatError(
            f"{path}: dimension line must hold two positive integers, got {dims_raw!r}",
            byte_offset=len(MAT_MAGIC),
        ) from None
    data_start = nl + 1
    expected = rows * cols * 8
    if len(blob) - data_start != expected:
        raise InputFormatError(
            f"{path}: expected {expected} data bytes for {rows}x{cols}, found {len(blob) - data_start}",
            byte_offset=data_start + min(len(blob) - data_start, expected),
        )
    return np.frombuffer(blob, dtype="<f8", offset=data_start).reshape(rows, cols).copy()


def write_pgm(path, frame) -> None:
    a = np.asarray(frame, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"frame must be 2-D, got shape {a.shape}")
    raw = np.round(np.clip(a, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = raw.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raw.tobytes())


def read_pgm(path) -> np.ndarray:
    """The frame as floats in [0, 1]."""
    return _pgm_pixels(path).astype(np.float64) / 255.0


# whitespace and "#" comments up to the end of their line, then one token
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n?)*(\S*)")


def _pgm_pixels(path) -> np.ndarray:
    """The frame's (h, w) uint8 pixels."""
    with _os_errors(path, "read"), open(path, "rb") as fh:
        blob = fh.read()

    pos = 0

    def next_token():
        nonlocal pos
        m = _PGM_TOKEN.match(blob, pos)
        pos = m.end()
        if m.start(1) == pos:
            raise InputFormatError(f"{path}: truncated PGM header", byte_offset=pos)
        return m.group(1), m.start(1)

    magic, off = next_token()
    if magic != b"P5":
        raise InputFormatError(f"{path}: not a binary PGM (magic {magic!r})", byte_offset=off)
    fields = []
    for _ in range(3):
        tok, off = next_token()
        try:
            fields.append(int(tok))
        except ValueError:
            raise InputFormatError(
                f"{path}: non-numeric PGM header token {tok!r}", byte_offset=off
            ) from None
    w, h, maxval = fields
    if maxval != 255 or w < 1 or h < 1:
        raise InputFormatError(f"{path}: unsupported PGM header {w}x{h} max {maxval}", byte_offset=off)
    pos += 1  # single whitespace after maxval
    if len(blob) - pos != w * h:
        raise InputFormatError(
            f"{path}: expected {w * h} pixel bytes, found {len(blob) - pos}", byte_offset=pos
        )
    return np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(h, w)


def canon_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, tight separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1, allow_nan=False))
        fh.write("\n")


def read_json(path):
    with _os_errors(path, "read"), open(path, "rb") as fh:
        blob = fh.read()
    try:
        return json.loads(text := blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError's pos counts characters, not bytes
        at = exc.start if isinstance(exc, UnicodeDecodeError) else len(text[: getattr(exc, "pos", 0)].encode())
        raise InputFormatError(f"{path}: bad JSON: {exc}", byte_offset=at) from None


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(canon_dumps(rec))
            fh.write("\n")


def _reject_constant(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def read_jsonl(path) -> list[dict]:
    out = []
    offset = 0
    with _os_errors(path, "read"), open(path, "rb") as fh:
        for raw in fh:
            line = raw.strip()
            if line:
                try:
                    out.append(json.loads(line.decode("utf-8"), parse_constant=_reject_constant))
                except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError, JSONDecodeError, deep nesting
                    raise InputFormatError(
                        f"{path}: bad JSON line: {exc}", byte_offset=offset
                    ) from None
            offset += len(raw)
    return out


def write_csv(path, header: list[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# detection streams

def detection_frame_to_dict(pose: PoseFrame, hands, objects) -> dict:
    return {
        "frame": pose.frame_index,
        "pose": {
            "joints": {
                name: [float(v[0]), float(v[1]), float(v[2])]
                for name, v in sorted(pose.joints.items())
            }
        },
        "hands": [
            {
                "box": [float(c) for c in h.box],
                "score": float(h.score),
                "side": h.side,
                "side_score": float(h.side_score),
            }
            for h in hands
        ],
        "objects": [
            {"label": o.label, "box": [float(c) for c in o.box], "score": float(o.score)}
            for o in objects
        ],
    }


def _number(v) -> float:
    if not is_number(v):
        raise TypeError(f"expected a number, got {v!r:.30}")
    return float(v)


def detection_frame_from_dict(
    rec: dict, frame: int, where: str = ""
) -> tuple[PoseFrame, list[HandDetection], list[ObjectDetection]]:
    """The record's pose, hands and objects; *frame* is its already checked "frame" number."""
    try:
        joints = {
            str(name): (_number(v[0]), _number(v[1]), _number(v[2]))
            for name, v in rec.get("pose", {}).get("joints", {}).items()
        }
        hands = [
            HandDetection(
                box=tuple(_number(c) for c in h["box"]),
                score=_number(h["score"]),
                side=h.get("side", "unknown"),
                side_score=_number(h.get("side_score", 0.0)),
            )
            for h in rec.get("hands", [])
        ]
        objects = [
            ObjectDetection(
                label=str(o["label"]),
                box=tuple(_number(c) for c in o["box"]),
                score=_number(o["score"]),
            )
            for o in rec.get("objects", [])
        ]
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        # AttributeError: a non-object where an object is expected ("pose": [])
        raise SchemaError(f"bad detection record {where}: {exc}") from None
    return PoseFrame(frame_index=frame, joints=joints), hands, objects


def write_detections(path, frames) -> None:
    write_jsonl(path, (detection_frame_to_dict(p, h, o) for p, h, o in frames))


def _frame_slot(rec, slots: list, where: str) -> int:
    """The record's "frame" number: an int in [0, len(slots)) whose slot is still None."""
    if not isinstance(rec, dict):
        raise SchemaError(f"{where}: not an object")
    t = rec.get("frame")
    if type(t) is not int or not 0 <= t < len(slots):
        raise SchemaError(f"{where}: frame must be an integer in [0, {len(slots)}), got {t!r}")
    if slots[t] is not None:
        raise SchemaError(f"{where}: second record for frame {t}")
    return t


def read_detections(path) -> list[tuple[PoseFrame, list[HandDetection], list[ObjectDetection]]]:
    """Detection frames in frame order; the n records number their frames 0..n-1."""
    records = read_jsonl(path)
    out: list = [None] * len(records)
    for i, rec in enumerate(records):
        where = f"{path}:{i + 1}"
        t = _frame_slot(rec, out, f"bad detection record {where}")
        out[t] = detection_frame_from_dict(rec, t, where)
    return out


def list_pgm_frames(directory) -> list[str]:
    with _os_errors(directory, "read"):
        names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".pgm"))
    if not names:
        raise InputFormatError(f"{directory}: no .pgm frames found")
    return [os.path.join(directory, n) for n in names]


def read_frames(directory) -> np.ndarray:
    """The .pgm frames of a directory in file-name order: one (n, h, w) uint8 stack of the first frame's shape."""
    paths = list_pgm_frames(directory)
    first = _pgm_pixels(paths[0])
    frames = np.empty((len(paths), *first.shape), dtype=np.uint8)
    for i, path in enumerate(paths):
        pixels = _pgm_pixels(path) if i else first
        if pixels.shape != first.shape:
            raise SchemaError(f"{path}: shape {pixels.shape} differs from the first frame's {first.shape}")
        frames[i] = pixels
    return frames


def read_box_records(path, n_frames: int) -> list[list]:
    """Normalized boxes per frame from JSON lines {"frame": t, "boxes": [[x0, y0, x1, y1], ...]}.

    Each of the n_frames frames has exactly one record, matched by its
    "frame" number.
    """
    boxes_per_frame: list = [None] * n_frames
    for i, rec in enumerate(read_jsonl(path)):
        where = f"bad box record {path}:{i + 1}"
        t = _frame_slot(rec, boxes_per_frame, where)
        boxes = rec.get("boxes", [])
        if not isinstance(boxes, list) or not all(
            isinstance(b, list) and len(b) == 4 and all(map(is_number, b))
            for b in boxes
        ):
            raise SchemaError(f"{where}: boxes must be a list of [x0, y0, x1, y1] numbers")
        boxes_per_frame[t] = boxes
    if None in boxes_per_frame:
        raise SchemaError(f"{path}: no box record for frame {boxes_per_frame.index(None)} of {n_frames}")
    return boxes_per_frame
