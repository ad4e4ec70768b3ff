"""File formats: EPKMAT1 matrices, binary PGM frames, JSON-lines streams.

Readers never let a malformed file crash the process with a bare
exception: structural problems raise InputFormatError carrying the byte
offset of the failure, and schema-level problems raise SchemaError naming
the offending record. Writers are deterministic byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable

import numpy as np

from .fusion import HandDetection, ObjectDetection, PoseFrame


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
    with open(path, "rb") as fh:
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
    with open(path, "rb") as fh:
        blob = fh.read()

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
    raw = np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(h, w)
    return raw.astype(np.float64) / 255.0


def canon_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, tight separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_to_jsonable(obj), sort_keys=True, indent=1, allow_nan=False))
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(canon_dumps(_to_jsonable(rec)))
            fh.write("\n")


def read_jsonl(path) -> list[dict]:
    out = []
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            line = raw.strip()
            if line:
                try:
                    out.append(json.loads(line.decode("utf-8")))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise InputFormatError(
                        f"{path}: bad JSON line: {exc}", byte_offset=offset
                    ) from None
            offset += len(raw)
    return out


def write_csv(path, header: list[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(c) for c in row])


def _csv_cell(c):
    if isinstance(c, (np.floating, np.integer)):
        c = c.item()
    if isinstance(c, float):
        return repr(c)
    return c


# --------------------------------------------------------------------------
# detection streams

_SIDES = ("left", "right", "unknown")


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


def detection_frame_from_dict(rec: dict, where: str = "") -> tuple[PoseFrame, list[HandDetection], list[ObjectDetection]]:
    try:
        idx = int(rec["frame"])
        joints = {
            str(name): (float(v[0]), float(v[1]), float(v[2]))
            for name, v in rec.get("pose", {}).get("joints", {}).items()
        }
        hands = []
        for h in rec.get("hands", []):
            side = h.get("side", "unknown")
            if side not in _SIDES:
                raise KeyError(f"bad hand side {side!r}")
            hands.append(
                HandDetection(
                    box=tuple(float(c) for c in h["box"]),
                    score=float(h["score"]),
                    side=side,
                    side_score=float(h.get("side_score", 0.0)),
                )
            )
        objects = [
            ObjectDetection(
                label=str(o["label"]),
                box=tuple(float(c) for c in o["box"]),
                score=float(o["score"]),
            )
            for o in rec.get("objects", [])
        ]
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        # AttributeError: a non-object where an object is expected ("pose": [])
        raise SchemaError(f"bad detection record {where}: {exc}") from None
    return PoseFrame(frame_index=idx, joints=joints), hands, objects


def write_detections(path, frames) -> None:
    write_jsonl(path, (detection_frame_to_dict(p, h, o) for p, h, o in frames))


def read_detections(path) -> list[tuple[PoseFrame, list[HandDetection], list[ObjectDetection]]]:
    out = []
    for i, rec in enumerate(read_jsonl(path)):
        out.append(detection_frame_from_dict(rec, where=f"{path}:{i + 1}"))
    out.sort(key=lambda f: f[0].frame_index)
    return out


def list_pgm_frames(directory) -> list[str]:
    if not os.path.isdir(directory):
        raise InputFormatError(f"{directory}: not a directory")
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".pgm"))
    if not names:
        raise InputFormatError(f"{directory}: no .pgm frames found")
    return [os.path.join(directory, n) for n in names]


def read_frames(directory) -> list[np.ndarray]:
    """The .pgm frames of a directory, in file-name order."""
    return [read_pgm(p) for p in list_pgm_frames(directory)]


def read_box_records(path, n_frames: int) -> list[list]:
    """Normalized boxes per frame from JSON lines {"frame": t, "boxes": [[x0, y0, x1, y1], ...]}.

    Each of the n_frames frames has exactly one record, matched by its
    "frame" number.
    """
    boxes_per_frame: list = [None] * n_frames
    for i, rec in enumerate(read_jsonl(path)):
        where = f"bad box record {path}:{i + 1}"
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}: not an object")
        t = rec.get("frame")
        if type(t) is not int or not 0 <= t < n_frames:
            raise SchemaError(f"{where}: frame must be an integer in [0, {n_frames}), got {t!r}")
        if boxes_per_frame[t] is not None:
            raise SchemaError(f"{where}: second record for frame {t}")
        boxes = rec.get("boxes", [])
        if not isinstance(boxes, list) or not all(
            isinstance(b, list) and len(b) == 4 and all(type(c) in (int, float) for c in b)
            for b in boxes
        ):
            raise SchemaError(f"{where}: boxes must be a list of [x0, y0, x1, y1] numbers")
        boxes_per_frame[t] = boxes
    if None in boxes_per_frame:
        raise SchemaError(f"{path}: no box record for frame {boxes_per_frame.index(None)} of {n_frames}")
    return boxes_per_frame
