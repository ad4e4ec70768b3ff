"""End-to-end session processing.

Chains the stages over one session directory: low-rank/sparse warnings on
the raw frames, change-point segmentation of the pose stream, flow-based
box grouping, per-frame rule fusion with self-training records, and episode
labels per segment. Every stage writes its own files as it completes, so a
failing stage leaves the earlier outputs on disk; the final report links
everything by frame index.
"""

from __future__ import annotations

import os

import numpy as np

from . import config as cfgmod
from . import fileio, fusion, gflasso, optflow, rpca, svgplot


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


def downscale(frame: np.ndarray, limit: int) -> np.ndarray:
    """Resize so the longest side is at most *limit* (bilinear)."""
    h, w = frame.shape
    longest = max(h, w)
    if longest <= limit:
        return frame
    scale = limit / longest
    out_h, out_w = max(1, round(h * scale)), max(1, round(w * scale))
    return optflow.canonical_rect(frame, (0.0, 0.0, float(w), float(h)), out_h, out_w)


def frames_to_matrix(frames: list[np.ndarray], limit: int) -> np.ndarray:
    """Stack downscaled frames as columns: one pixel per row, one frame per column."""
    if not frames:
        raise fileio.InputFormatError("no frames to stack")
    cols = [downscale(f, limit).ravel() for f in frames]
    sizes = {c.size for c in cols}
    if len(sizes) != 1:
        raise fileio.SchemaError(f"frames disagree in downscaled size: {sorted(sizes)}")
    return np.stack(cols, axis=1)


def warning_frames(energy: np.ndarray, warn_factor: float) -> list[int]:
    """Frames whose outlier energy exceeds warn_factor times the median."""
    med = float(np.median(energy))
    if med <= 0:
        med = float(np.mean(energy))
    if med <= 0:
        return []
    return [int(i) for i in np.nonzero(energy > warn_factor * med)[0]]


def run_rpca_stage(mat: np.ndarray, cfg: dict, out_dir: str) -> dict:
    """Decompose a frame matrix (one frame per column) and write its outputs."""
    result = rpca.decompose(mat, cfgmod.rpca_config(cfg))
    energy = np.linalg.norm(result.sparse, axis=0)  # per-frame outlier energy
    warns = warning_frames(energy, cfg["rpca"]["warn_factor"])
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
    return {"summary": summary, "energy": [float(e) for e in energy], "warning_frames": warns}


def segmentation_thresholds(strengths: np.ndarray, cfg: dict) -> list[float]:
    section = cfg["gfl"]
    if section["threshold"] is not None:
        raw = section["threshold"]
        return [float(t) for t in (raw if isinstance(raw, (list, tuple)) else [raw])]
    top = float(strengths.max()) if strengths.size else 0.0
    return [section["threshold_fraction"] * top]


def run_segmentation_stage(detections, cfg: dict, out_dir: str) -> dict:
    poses = [p for p, _h, _o in detections]
    x, w = gflasso.normalize_and_weight(poses)
    result = gflasso.solve(x, w, cfgmod.gfl_config(cfg))
    strengths = result.jump_strengths
    thresholds = segmentation_thresholds(strengths, cfg)
    min_gap = cfg["gfl"]["min_gap"]
    labelings = [
        gflasso.extract_change_points(strengths, t, min_gap, n_frames=len(poses))
        for t in thresholds
    ]
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
        [
            tuple([f] + [lab.group_ids[f] for lab in labelings])
            for f in range(len(poses))
        ],
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


def run_flow_stage(frames: list[np.ndarray], detections, cfg: dict, out_dir: str) -> dict:
    boxes_per_frame = [[hb.box for hb in hands] for _pose, hands, _objects in detections]
    return group_flow_boxes(frames, boxes_per_frame, cfg, out_dir)


def group_flow_boxes(frames: list[np.ndarray], boxes_per_frame, cfg: dict, out_dir: str) -> dict:
    """Group and merge boxes by flow; write flow_groups.csv and .json.

    Boxes are (x0, y0, x1, y1) normalized to [0, 1] and scaled here to the
    pixels of the first frame.
    """
    if len(boxes_per_frame) != len(frames):
        raise fileio.SchemaError(f"{len(frames)} frames but {len(boxes_per_frame)} box records")
    h, w = frames[0].shape
    boxes_per_frame = [
        [(b[0] * w, b[1] * h, b[2] * w, b[3] * h) for b in boxes] for boxes in boxes_per_frame
    ]
    fcfg = cfgmod.flow_config(cfg)
    groups = optflow.group_boxes(frames, boxes_per_frame, cfg["flow"]["group_threshold"], fcfg)
    merged = optflow.merge_groups(
        groups, frames, boxes_per_frame, cfg["flow"]["merge_threshold"], fcfg
    )
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


def run_fusion_stage(detections, cfg: dict, out_dir: str, rpca_warnings=None) -> dict:
    fcfg = cfgmod.fusion_config(cfg)
    warn_set = set(rpca_warnings or [])
    verdicts = []
    records = []
    for pose, hands, _objects in detections:
        verdict = fusion.evaluate_safe_driving(pose, hands, fcfg)
        corrected, side_records = fusion.relabel_hands(pose, hands, fcfg, verdict=verdict)
        pose_records = fusion.emit_pose_corrections(pose, corrected, side_records, fcfg)
        records.extend(side_records)
        records.extend(pose_records)
        verdicts.append(verdict)
    verdicts = fusion.temporal_verdict(verdicts, fcfg)
    verdict_dicts = []
    for v in verdicts:
        d = fusion.verdict_to_dict(v)
        d["warnings"] = (
            ["rpca_outlier_energy"] if v.frame_index in warn_set else []
        )
        verdict_dicts.append(d)
    fileio.write_jsonl(os.path.join(out_dir, "verdicts.jsonl"), verdict_dicts)
    fileio.write_jsonl(
        os.path.join(out_dir, "training_records.jsonl"),
        [fusion.record_to_dict(r) for r in records],
    )
    return {"verdicts": verdicts, "verdict_dicts": verdict_dicts, "records": records}


def run_episode_stage(detections, labeling, cfg: dict, out_dir: str) -> list[fusion.EpisodeLabel]:
    fcfg = cfgmod.fusion_config(cfg)
    table = cfgmod.episode_rules(cfg)
    episodes = fusion.classify_episode(detections, labeling, table, fcfg)
    fileio.write_json(
        os.path.join(out_dir, "episodes.json"),
        [
            {
                "segment": e.segment,
                "start": e.start,
                "end": e.end,
                "label": e.label,
                "votes": e.votes,
                "notes": e.notes,
            }
            for e in episodes
        ],
    )
    return episodes


def run_pipeline(session_dir: str, cfg: dict, out_dir: str) -> dict:
    """Run all stages over a session directory and write report.json.

    The session holds detections.jsonl and, optionally, frames/*.pgm; the
    frame-based stages are skipped when no frames are present; "warnings"
    names each stage whose solver stopped at its iteration limit. Raises
    StageError naming the failing stage; outputs of completed stages stay.
    """
    os.makedirs(out_dir, exist_ok=True)
    detections = _stage("load", fileio.read_detections, os.path.join(session_dir, "detections.jsonl"))
    frames_dir = os.path.join(session_dir, "frames")
    frames = _stage("load", fileio.read_frames, frames_dir) if os.path.isdir(frames_dir) else []

    report: dict = {"stages": {}, "frames": []}

    rpca_info = None
    if frames:
        mat = _stage("rpca", frames_to_matrix, frames, cfg["downscale_limit"])
        rpca_info = _stage("rpca", run_rpca_stage, mat, cfg, out_dir)
        report["stages"]["rpca"] = {
            "summary": rpca_info["summary"],
            "warning_frames": rpca_info["warning_frames"],
        }

    seg = _stage("segmentation", run_segmentation_stage, detections, cfg, out_dir)
    labeling = seg["labelings"][0]
    report["stages"]["segmentation"] = {
        "converged": seg["converged"],
        "objective": seg["objective"],
        "thresholds": seg["thresholds"],
        "change_points": labeling.change_points,
    }

    if frames:
        flow_info = _stage("flow_groups", run_flow_stage, frames, detections, cfg, out_dir)
        report["stages"]["flow_groups"] = {
            "n_groups": len(flow_info["groups"]),
        }

    warning_frames = rpca_info["warning_frames"] if rpca_info else []
    fus = _stage("fusion", run_fusion_stage, detections, cfg, out_dir, warning_frames)
    report["stages"]["fusion"] = {
        "n_records": len(fus["records"]),
        "n_safe_frames": sum(1 for v in fus["verdicts"] if v.safe_driving),
    }

    episodes = _stage("episodes", run_episode_stage, detections, labeling, cfg, out_dir)
    report["stages"]["episodes"] = [
        {"segment": e.segment, "start": e.start, "end": e.end, "label": e.label}
        for e in episodes
    ]

    label_by_segment = {e.segment: e.label for e in episodes}
    warn_set = set(warning_frames)
    for i, v in enumerate(fus["verdicts"]):
        report["frames"].append(
            {
                "frame": v.frame_index,
                "safe_driving": v.safe_driving,
                "stabilized_safe_driving": v.stabilized_safe_driving,
                "segment": labeling.group_ids[i],
                "episode_label": label_by_segment.get(labeling.group_ids[i], "unknown"),
                "rpca_warning": v.frame_index in warn_set,
            }
        )

    solvers = [("rpca", rpca_info["summary"] if rpca_info else None), ("segmentation", seg)]
    report["warnings"] = [
        f"{stage} did not converge in {info['iterations']} iterations"
        for stage, info in solvers
        if info is not None and not info["converged"]
    ]
    fileio.write_json(os.path.join(out_dir, "report.json"), report)
    return report
