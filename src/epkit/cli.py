"""Command-line surface.

Subcommands: rpca, segment, flow-group, fuse, synth, pipeline. Exit codes:
0 success, 2 malformed input, 3 schema/consistency error, 4 config error
(see EXIT_CODES); an error of any other type is a bug and surfaces as a
traceback. Subcommands call the pipeline stages directly and main maps
their errors to exit codes in one place.
Flags mirror the config keys; --config points at a JSON file with
per-subcommand sections (see config.DEFAULTS).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import config as cfgmod
from . import fileio, fusion, gflasso, pipeline, synth
from .fileio import ConfigError, InputFormatError, SchemaError


def _load_cfg(args) -> dict:
    cfg = cfgmod.load_config(getattr(args, "config", None))
    if getattr(args, "downscale", None) is not None:
        cfg["downscale_limit"] = args.downscale
    if getattr(args, "lam", None) is not None:
        cfg["rpca"]["lambda"] = args.lam
        cfg["gfl"]["lambda"] = args.lam
    if getattr(args, "threshold", None):
        cfg["gfl"]["threshold"] = list(args.threshold)
    if getattr(args, "min_gap", None) is not None:
        cfg["gfl"]["min_gap"] = args.min_gap
    if getattr(args, "order", None) is not None:
        cfg["gfl"]["order"] = args.order
    if getattr(args, "group_threshold", None) is not None:
        cfg["flow"]["group_threshold"] = args.group_threshold
    if getattr(args, "merge_threshold", None) is not None:
        cfg["flow"]["merge_threshold"] = args.merge_threshold
    if getattr(args, "gap_max", None) is not None:
        cfg["flow"]["gap_max"] = args.gap_max
    if getattr(args, "wheel_region", None) is not None:
        cfg["fusion"]["wheel_region"] = [float(c) for c in args.wheel_region.split(",")]
    return cfg


def cmd_rpca(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    if os.path.isdir(args.input):
        mat = pipeline.frames_to_matrix(fileio.read_frames(args.input), cfg["downscale_limit"])
    else:
        mat = fileio.read_matrix(args.input)
    pipeline.run_rpca_stage(mat, cfg, args.out)
    return 0


def cmd_segment(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    pipeline.run_segmentation_stage(fileio.read_detections(args.detections), cfg, args.out)
    return 0


def cmd_flow_group(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    frames = fileio.read_frames(args.frames)
    boxes_per_frame = fileio.read_box_records(args.boxes, len(frames))
    pipeline.group_flow_boxes(frames, boxes_per_frame, cfg, args.out)
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    detections = fileio.read_detections(args.detections)
    pipeline.run_fusion_stage(detections, cfg, args.out)
    if args.segments:
        data = fileio.read_json(args.segments)
        try:
            labeling = gflasso.SegmentLabeling(
                change_points=[int(c) for c in data["change_points"]],
                group_ids=[int(g) for g in data["group_ids"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad segments file {args.segments}: {exc}") from None
    else:
        labeling = pipeline.run_segmentation_stage(detections, cfg, args.out)["labelings"][0]
    pipeline.run_episode_stage(detections, labeling, cfg, args.out)
    return 0


def cmd_synth(args) -> int:
    generators = {
        "lowrank_sparse": _synth_lowrank_sparse,
        "piecewise": _synth_piecewise,
        "shifted_pair": _synth_shifted_pair,
        "driver_session": _synth_driver_session,
    }
    if args.generator not in generators:
        raise InputFormatError(
            f"unknown generator {args.generator!r}; available: {', '.join(sorted(generators))}"
        )
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ConfigError("--params must hold a JSON object")
    os.makedirs(args.out, exist_ok=True)
    try:
        generators[args.generator](args.out, args.seed, params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {args.generator}: {exc}") from None
    return 0


def _synth_lowrank_sparse(out, seed, params):
    defaults = dict(d=200, t=200, rank=10, sparse_fraction=0.05, magnitude=5.0)
    defaults.update(params)
    bundle = synth.gen_lowrank_sparse(seed=seed, **defaults)
    fileio.write_matrix(os.path.join(out, "x.mat"), bundle.payload["x"])
    fileio.write_matrix(os.path.join(out, "truth_low_rank.mat"), bundle.ground_truth["low_rank"])
    fileio.write_matrix(os.path.join(out, "truth_sparse.mat"), bundle.ground_truth["sparse"])
    fileio.write_json(
        os.path.join(out, "meta.json"),
        {"seed": seed, "params": defaults, "support": [int(i) for i in bundle.ground_truth["support"]]},
    )


def _synth_piecewise(out, seed, params):
    defaults = dict(d=8, t=240, change_points=[40, 90, 150, 200], jump_scale=2.0, noise_sigma=0.3)
    defaults.update(params)
    bundle = synth.gen_piecewise(seed=seed, **defaults)
    fileio.write_matrix(os.path.join(out, "x.mat"), bundle.payload["x"])
    fileio.write_matrix(os.path.join(out, "w.mat"), bundle.payload["w"])
    fileio.write_json(
        os.path.join(out, "meta.json"),
        {
            "seed": seed,
            "params": defaults,
            "change_points": bundle.ground_truth["change_points"],
        },
    )


def _synth_shifted_pair(out, seed, params):
    defaults = dict(size=64, dx=1.0, dy=0.0, texture_scale=2.0)
    defaults.update(params)
    bundle = synth.gen_shifted_pair(seed=seed, **defaults)
    fileio.write_pgm(os.path.join(out, "frame1.pgm"), bundle.payload["frame1"])
    fileio.write_pgm(os.path.join(out, "frame2.pgm"), bundle.payload["frame2"])
    fileio.write_json(
        os.path.join(out, "meta.json"),
        {"seed": seed, "params": defaults, "truth": bundle.ground_truth},
    )


def _synth_driver_session(out, seed, params):
    defaults = dict(
        episode_schedule=[
            ["safe_driving", 120],
            ["texting_left", 120],
            ["drinking", 120],
            ["talking_on_phone_left", 120],
            ["operating_radio", 120],
        ],
        frame_rate=10.0,
        score_noise=0.03,
        side_flip_fraction=0.0,
        render=True,
    )
    defaults.update(params)
    schedule = [tuple(e) for e in defaults.pop("episode_schedule")]
    bundle = synth.gen_driver_session(schedule, seed=seed, **defaults)
    write_session(out, bundle)


def write_session(out: str, bundle) -> None:
    """Write a driver-session bundle: detections, frames, truth, config."""
    fileio.write_detections(os.path.join(out, "detections.jsonl"), bundle.payload["frames"])
    images = bundle.payload.get("images")
    if images:
        frames_dir = os.path.join(out, "frames")
        os.makedirs(frames_dir, exist_ok=True)
        for i, img in enumerate(images):
            fileio.write_pgm(os.path.join(frames_dir, f"frame_{i:05d}.pgm"), img)
    fileio.write_json(os.path.join(out, "ground_truth.json"), bundle.ground_truth)
    truth = bundle.ground_truth
    session_cfg = {
        # small frames and short tracks: trim the heavy stages accordingly
        "downscale_limit": 32,
        "flow": {"gap_max": 1, "max_features": 16, "max_refinements": 10},
        "fusion": {
            "wheel_region": truth["wheel_region"],
            "frame_rate": truth["frame_rate"],
        },
        "episode_rules": _session_rule_table(truth),
    }
    fileio.write_json(os.path.join(out, "session_config.json"), session_cfg)


def _session_rule_table(truth: dict) -> dict:
    table = fusion.DEFAULT_EPISODE_RULES.to_dict()
    for rule in table["rules"]:
        if rule["predicate"] == "offwheel_wrist_in_region":
            rule["params"]["region"] = truth["radio_region"]
        if rule["predicate"] == "phone_at_offwheel_wrist":
            rule["params"]["chest_line"] = truth["chest_line"]
    return table


def cmd_pipeline(args) -> int:
    cfg = _load_cfg(args)
    report = pipeline.run_pipeline(args.session, cfg, args.out)
    print(f"report written to {os.path.join(args.out, 'report.json')}")
    print(f"stages: {', '.join(sorted(report['stages']))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("rpca", help="low-rank plus sparse decomposition of frames or a matrix")
    p.add_argument("--input", required=True, help="EPKMAT1 matrix file or directory of PGM frames")
    p.add_argument("--lambda", dest="lam", type=float, help="sparsity weight")
    p.add_argument("--downscale", type=int, help="longest-side pixel limit for frame input")
    common(p)
    p.set_defaults(func=cmd_rpca)

    p = sub.add_parser("segment", help="change-point segmentation of a pose stream")
    p.add_argument("--detections", required=True, help="JSON-lines detection stream")
    p.add_argument("--lambda", dest="lam", type=float, help="regularization weight")
    p.add_argument("--order", type=int, help="difference order p")
    p.add_argument("--threshold", type=float, action="append", help="change-point threshold (repeatable)")
    p.add_argument("--min-gap", dest="min_gap", type=int, help="minimum frames between change points")
    common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("flow-group", help="group boxes across frames by flow similarity")
    p.add_argument("--frames", required=True, help="directory of PGM frames")
    p.add_argument("--boxes", required=True, help="JSON-lines file: {frame, boxes:[[x0,y0,x1,y1],...]}")
    p.add_argument("--group-threshold", dest="group_threshold", type=float)
    p.add_argument("--merge-threshold", dest="merge_threshold", type=float)
    p.add_argument("--gap-max", dest="gap_max", type=int)
    common(p)
    p.set_defaults(func=cmd_flow_group)

    p = sub.add_parser("fuse", help="rule verdicts, relabels, training records, episode labels")
    p.add_argument("--detections", required=True)
    p.add_argument("--segments", help="segments JSON (change_points + group_ids); default: run segmentation")
    p.add_argument("--wheel-region", dest="wheel_region", help="x0,y0,x1,y1 (overrides config)")
    common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("synth", help="write a seeded synthetic bundle")
    p.add_argument("--generator", required=True, help="lowrank_sparse | piecewise | shifted_pair | driver_session")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="JSON object of generator parameters")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run all stages over a session directory")
    p.add_argument("--session", required=True, help="directory with detections.jsonl and optional frames/")
    p.add_argument("--downscale", type=int, help="longest-side pixel limit for the rpca stage")
    common(p)
    p.set_defaults(func=cmd_pipeline)
    return parser


# Exit code of each error type, first match wins; a pipeline StageError is
# looked up by its cause. Any other error is a bug and propagates.
EXIT_CODES = (
    (ConfigError, 4),
    (InputFormatError, 2),
    (SchemaError, 3),
    (OSError, 2),
    (ValueError, 3),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        cause = exc.cause if isinstance(exc, pipeline.StageError) else exc
        for kind, code in EXIT_CODES:
            if isinstance(cause, kind):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
