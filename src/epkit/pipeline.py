"""End-to-end session processing.

Chains the stages over one session directory: low-rank/sparse warnings on
the raw frames, change-point segmentation of the pose stream, flow-based
box grouping, per-frame rule fusion with self-training records, and episode
labels per segment. Every stage writes its own files as it completes, so a
failing stage leaves the earlier outputs on disk; the final report links
everything by frame index. rpca runs in a forked worker beside segmentation
and flow, and then groups the flow chunks it takes (`_Claims`); the groups,
and every output byte, do not depend on which side took a chunk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import mmap
import os
import pickle

import numpy as np

from . import fileio, fusion, gflasso, numkit, optflow, rpca, svgplot
from .config import Config


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _stage(name: str, fn, *args):
    """fn(*args), with any exception it raises wrapped in a StageError naming the stage."""
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(name, exc) from exc


def in_worker(fn, *args):
    """Start fn(*args) in a forked child; return a function that waits for it.

    The waiting function reaps the child once and, at every call, returns
    fn's result or raises its exception. Without os.fork, fn runs inline at
    each call.
    """
    if not hasattr(os, "fork"):
        return lambda: fn(*args)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child always ends in os._exit, never in the caller's stack
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, fn(*args))
            except Exception as exc:
                payload = (False, exc)
            try:
                data = pickle.dumps(payload)
                pickle.loads(data)  # an exception must also rebuild in the parent
            except Exception:
                data = pickle.dumps((False, RuntimeError(repr(payload[1]))))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)

    @functools.cache
    def result() -> bytes:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()  # drained before waitpid, so a large result cannot block the child
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return data or pickle.dumps((False, RuntimeError(f"worker exited with status {status} and no result")))

    def wait():
        ok, value = pickle.loads(result())
        if not ok:
            raise value
        return value

    return wait


class _Claims:
    """Flow chunks shared with a forked worker: chunks[front:back], in shared memory, are untaken."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self._ends = memoryview(mmap.mmap(-1, 16)).cast("q")  # front, back: int64 in an anonymous shared map
        self._ends[1] = len(self.chunks)
        self._token = os.pipe()  # only the holder of its one byte changes the ends
        os.write(self._token[1], b".")

    def taken(self, end: int):
        """Chunks taken until none are left: at the front (end 0) one at a time, at the back half the rest."""
        while True:
            os.read(self._token[0], 1)
            front, back = self._ends
            n = (back - front + 1) // 2 if end else min(back - front, 1)
            self._ends[end] = back - n if end else front + n
            os.write(self._token[1], b".")
            if n == 0:
                return
            yield from self.chunks[back - n : back] if end else self.chunks[front : front + n]

    def stolen(self) -> bool:
        """Whether the worker took a chunk, so was past rpca (its failure is flow's); final once front meets back."""
        return self._ends[1] < len(self.chunks)

    def close(self) -> None:
        for fd in self._token:
            os.close(fd)


# bytes of float frames and sample indices that frames_to_matrix takes in one block
RESAMPLE_BLOCK_BYTES = 1 << 20


def frames_to_matrix(frames, limit: int) -> np.ndarray:
    """Frames of one shape as columns, one pixel per row, resized (bilinear) to a longest side of at most *limit*."""
    h, w = np.shape(frames[0])
    if any(np.shape(f) != (h, w) for f in frames):  # one output size for all, from the first frame
        raise ValueError(f"frames differ in shape from the first frame's {(h, w)}")
    out_h, out_w = h, w
    if max(h, w) > limit:
        scale = limit / max(h, w)
        out_h, out_w = max(1, round(h * scale)), max(1, round(w * scale))
    # a block of frames at a time into the matrix, resized in one gather; a block's float frames and sample
    # indices take about RESAMPLE_BLOCK_BYTES
    block = max(1, RESAMPLE_BLOCK_BYTES // (8 * (h * w + out_h * out_w)))
    stack = np.empty((min(block, len(frames)), h, w))
    mat = np.empty((out_h * out_w, len(frames)))
    for lo in range(0, len(frames), block):
        part = frames[lo : lo + block]
        for k, f in enumerate(part):
            optflow.as_frame(f, out=stack[k])
        crops = stack[: len(part)]
        if (out_h, out_w) != (h, w):
            crops = optflow._crops(stack, range(len(part)), [(0.0, 0.0, float(w), float(h))] * len(part), out_h, out_w)
        mat[:, lo : lo + len(part)] = crops.reshape(len(part), -1).T
    return mat


def warning_frames(energy: np.ndarray, warn_factor: float) -> list[int]:
    """Frames whose outlier energy exceeds warn_factor times the median."""
    med = float(np.median(energy))
    if med <= 0:
        med = float(np.mean(energy))
    if med <= 0:
        return []
    return [int(i) for i in np.nonzero(energy > warn_factor * med)[0]]


def run_rpca_stage(mat: np.ndarray, cfg: Config, out_dir: str) -> dict:
    """Check, then decompose a frame matrix (one frame per column) and write its outputs, on one BLAS thread."""
    if not (np.isfinite(mat).all() and mat.any()):
        raise fileio.SchemaError(f"rpca input {mat.shape[0]}x{mat.shape[1]} must be finite and not all zero")
    fileio.make_dir(out_dir)
    with numkit.blas_threads(1):  # the same bytes whatever the core count: in a worker, inline or from `epkit rpca`
        result = rpca.decompose(mat, cfg.rpca)
        energy = np.linalg.norm(result.sparse, axis=0)  # per-frame outlier energy
        warns = warning_frames(energy, cfg.rpca.warn_factor)
        fileio.write_matrix(os.path.join(out_dir, "low_rank.mat"), result.low_rank)
        fileio.write_matrix(os.path.join(out_dir, "sparse.mat"), result.sparse)
        summary = {
            "rows": int(mat.shape[0]),
            "cols": int(mat.shape[1]),
            "iterations": result.iterations,
            "converged": result.converged,
            "final_residual": result.final_residual,
            "singular_values": [float(v) for v in result.singular_values if v > 0],
            "rank": int(np.count_nonzero(result.singular_values > 1e-6)),
        }
        fileio.write_json(os.path.join(out_dir, "rpca_summary.json"), summary)
        fileio.write_csv(
            os.path.join(out_dir, "outlier_energy.csv"),
            ["frame", "energy"],
            [(i, float(e)) for i, e in enumerate(energy)],
        )
    return {"summary": summary, "warning_frames": warns}


def pose_signal(detections, cfg: Config) -> tuple[np.ndarray, np.ndarray]:
    """The segmentation input (x, w) of the poses; SchemaError where gflasso's solver would refuse it."""
    try:
        x, w = gflasso.normalize_and_weight([p for p, _h, _o in detections])
        return gflasso.validate_inputs(x, w, cfg.gfl)
    except ValueError as exc:
        raise fileio.SchemaError(f"segmentation input: {exc}") from None


def run_segmentation_stage(signal, cfg: Config, out_dir: str) -> dict:
    """Segment pose_signal's (x, w) and write the jump strengths, change points and groups."""
    x, w = signal
    n_frames = x.shape[1]
    try:
        result = gflasso.solve(x, w, cfg.gfl)
    except np.linalg.LinAlgError as exc:
        # pose_signal's rule makes the system nonsingular in exact arithmetic;
        # in floating point it can still fail to factor
        raise fileio.ConfigError(
            f"cannot factor the segmentation system at gfl.order {cfg.gfl.order} ({exc}): it is ill-conditioned "
            "at high orders and where a joint's scores are too small to register next to the smoothing penalty"
        ) from None
    strengths = result.jump_strengths
    top = float(strengths.max())  # validate_inputs holds order < T, so there is at least one strength
    thresholds = cfg.gfl.threshold or [cfg.gfl.threshold_fraction * top]
    min_gap = cfg.gfl.min_gap
    labelings = [gflasso.extract_change_points(strengths, t, min_gap, n_frames=n_frames) for t in thresholds]
    fileio.write_csv(
        os.path.join(out_dir, "strengths.csv"),
        ["boundary", "strength"],
        [(i, float(s)) for i, s in enumerate(strengths)],
    )
    fileio.write_json(
        os.path.join(out_dir, "change_points.json"),
        {
            "thresholds": thresholds,
            "min_gap": min_gap,
            "sets": [
                {"threshold": t, "change_points": lab.change_points}
                for t, lab in zip(thresholds, labelings)
            ],
        },
    )
    fileio.write_csv(
        os.path.join(out_dir, "groups.csv"),
        ["frame"] + [f"group_t{i}" for i in range(len(thresholds))],
        zip(range(n_frames), *(lab.group_ids for lab in labelings)),
    )
    with open(os.path.join(out_dir, "strengths.svg"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svgplot.line_plot(list(strengths), thresholds, title="jump strengths"))
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "objective": result.objective,
        "thresholds": thresholds,
        "labelings": labelings,
    }


def pixel_boxes(frames, boxes_per_frame) -> list[list[tuple]]:
    """Normalized boxes in the first frame's pixels; SchemaError for an empty box or one past the frame (_check_box)."""
    h, w = frames[0].shape
    scaled = [[(b[0] * w, b[1] * h, b[2] * w, b[3] * h) for b in boxes] for boxes in boxes_per_frame]
    for t, boxes in enumerate(scaled):
        for i, box in enumerate(boxes):
            try:
                optflow._check_box(box, (h, w), f"box {i} of frame {t}")
            except ValueError as exc:
                raise fileio.SchemaError(str(exc)) from None
    return scaled


def _flow_job(frames, boxes_per_frame, cfg: Config, out_dir: str, claims: _Claims) -> tuple:
    """The rpca stage, then the flow chunks taken at claims' back: (rpca info, their groups or None)."""
    # run_rpca_stage is looked up here, in the worker, so a wrapper set on the module applies
    info = run_rpca_stage(frames_to_matrix(frames, cfg.downscale_limit), cfg, out_dir)
    chunks = claims.taken(1)
    first = next(chunks, None)
    if first is None:
        return info, None
    return info, optflow.group_boxes(frames, boxes_per_frame, cfg.flow.group_threshold, cfg.flow,
                                     itertools.chain([first], chunks))


def run_flow_stage(frames, boxes_per_frame, cfg: Config, out_dir: str, claims=None, worker=None) -> dict:
    """Group and merge pixel_boxes' boxes (x0, y0, x1, y1) by flow; write flow_groups.csv and .json.

    With *claims*, merge_groups joins the groups of the chunks taken at the front with those *worker* (_flow_job) took.
    """
    groups = optflow.group_boxes(frames, boxes_per_frame, cfg.flow.group_threshold, cfg.flow,
                                 claims and claims.taken(0))
    if claims and claims.stolen():
        groups += worker()[1]
    merged = optflow.merge_groups(groups, cfg.flow.merge_threshold)
    fileio.write_csv(
        os.path.join(out_dir, "flow_groups.csv"),
        ["frame", "box", "group"],
        [(t, i, g.group_id) for g in merged for t, i in g.members],
    )
    fileio.write_json(
        os.path.join(out_dir, "flow_groups.json"),
        {
            "n_groups": len(merged),
            "groups": [
                {
                    "group": g.group_id,
                    "size": len(g.members),
                    "first_frame": g.members[0][0],
                    "last_frame": g.members[-1][0],
                }
                for g in merged
            ],
        },
    )
    return {"groups": merged}


def run_fusion_stage(detections, cfg: Config, out_dir: str, rpca_warnings=frozenset()) -> dict:
    """Evaluate, relabel and correct each frame in one pass; write verdicts.jsonl and training_records.jsonl.

    The verdicts are then stabilized; those whose frame index is in *rpca_warnings* are tagged rpca_outlier_energy.
    """
    verdicts = []
    records = []
    for pose, hands, _objects in detections:
        verdicts.append(fusion.evaluate_safe_driving(pose, hands, cfg.fusion))
        side_records = fusion.relabel_hands(pose, hands, verdicts[-1])[1]
        records += side_records + fusion.emit_pose_corrections(side_records)
    verdicts = fusion.temporal_verdict(verdicts, cfg.fusion)
    fileio.write_jsonl(
        os.path.join(out_dir, "verdicts.jsonl"),
        [
            {**fusion.verdict_to_dict(v), "warnings": ["rpca_outlier_energy"] if v.frame_index in rpca_warnings else []}
            for v in verdicts
        ],
    )
    fileio.write_jsonl(
        os.path.join(out_dir, "training_records.jsonl"),
        [fusion.record_to_dict(r) for r in records],
    )
    return {"verdicts": verdicts, "records": records}


def run_episode_stage(detections, verdicts, labeling, cfg: Config, out_dir: str) -> list[fusion.EpisodeLabel]:
    episodes = fusion.classify_episode(detections, verdicts, labeling, cfg.episode_rules)
    fileio.write_json(os.path.join(out_dir, "episodes.json"), [dataclasses.asdict(e) for e in episodes])
    return episodes


def solver_warnings(rpca=None, segmentation=None) -> list[str]:
    """"<stage> did not converge in N iterations" for each given result (rpca summary, segmentation) that did not."""
    return [
        f"{stage} did not converge in {info['iterations']} iterations"
        for stage, info in (("rpca", rpca), ("segmentation", segmentation))
        if info is not None and not info["converged"]
    ]


def run_pipeline(session_dir: str, cfg: Config, out_dir: str) -> dict:
    """Run all stages over a session directory and write report.json.

    The session holds detections.jsonl and, optionally, frames/*.pgm; the
    frame-based stages are skipped when no frames are present; "warnings"
    names each stage whose solver stopped at its iteration limit. Raises
    StageError naming the failing stage; outputs of completed stages stay.
    Before *out_dir* is created, the session is read, the wheel region required
    and the pose stream and hand boxes checked; the rpca stage checks its own
    input, since the frame matrix exists only in its worker.
    """
    detections = _stage("load", fileio.read_detections, os.path.join(session_dir, "detections.jsonl"))
    frames_dir = os.path.join(session_dir, "frames")
    frames = _stage("load", fileio.read_frames, frames_dir) if os.path.isdir(frames_dir) else []
    if len(frames) and len(frames) != len(detections):
        raise StageError("load", fileio.SchemaError(f"{len(frames)} frames but {len(detections)} detection records"))
    cfg.require_fusion()
    signal = _stage("load", pose_signal, detections, cfg)
    hand_boxes = [[hb.box for hb in hands] for _p, hands, _o in detections]
    boxes_per_frame = _stage("load", pixel_boxes, frames, hand_boxes) if len(frames) else []
    fileio.make_dir(out_dir)

    report: dict = {"stages": {}, "frames": []}

    # the worker holds a CPU: this process keeps one BLAS thread until it is reaped
    with contextlib.closing(_Claims(optflow._chunks(boxes_per_frame, cfg.flow))) as claims, numkit.blas_threads(1):
        worker = in_worker(_flow_job, frames, boxes_per_frame, cfg, out_dir, claims) if len(frames) else None
        try:
            seg = _stage("segmentation", run_segmentation_stage, signal, cfg, out_dir)
            labeling = seg["labelings"][0]
            report["stages"]["segmentation"] = {
                "converged": seg["converged"],
                "objective": seg["objective"],
                "thresholds": seg["thresholds"],
                "change_points": labeling.change_points,
            }

            if len(frames):
                flow_info = _stage("flow_groups", run_flow_stage, frames, boxes_per_frame, cfg, out_dir,
                                   claims, worker)
                report["stages"]["flow_groups"] = {"n_groups": len(flow_info["groups"])}
        finally:  # leaves the worker no chunk and reaps it; a failed rpca is reported over a later stage's failure
            for _chunk in claims.taken(0):
                pass
            rpca_info = _stage("flow_groups" if claims.stolen() else "rpca", worker)[0] if worker else None
    if rpca_info:
        report["stages"]["rpca"] = rpca_info

    warned = set(rpca_info["warning_frames"]) if rpca_info else frozenset()
    fus = _stage("fusion", run_fusion_stage, detections, cfg, out_dir, warned)
    report["stages"]["fusion"] = {
        "n_records": len(fus["records"]),
        "n_safe_frames": sum(1 for v in fus["verdicts"] if v.safe_driving),
    }

    episodes = _stage("episodes", run_episode_stage, detections, fus["verdicts"], labeling, cfg, out_dir)
    report["stages"]["episodes"] = [
        {"segment": e.segment, "start": e.start, "end": e.end, "label": e.label}
        for e in episodes
    ]

    report["frames"] = [
        {
            "frame": v.frame_index,
            "safe_driving": v.safe_driving,
            "stabilized_safe_driving": v.stabilized_safe_driving,
            "segment": gid,
            "episode_label": episodes[gid].label,
            "rpca_warning": v.frame_index in warned,
        }
        for v, gid in zip(fus["verdicts"], labeling.group_ids)
    ]

    report["warnings"] = solver_warnings(rpca_info and rpca_info["summary"], seg)
    fileio.write_json(os.path.join(out_dir, "report.json"), report)
    return report
