"""Command-line surface.

Subcommands: rpca, segment, flow-group, fuse, synth, pipeline. Exit codes:
0 success, 2 a missing, unreadable or malformed file or an --out that cannot
be created, 3 schema/consistency error, 4 config error, by the error's type
alone (EXIT_CODES). Inputs are checked before --out is created (in `pipeline`,
all but the rpca worker's frame matrix); any other error, also a failing
write into a created --out, is a bug and surfaces as a traceback.
Subcommands call the pipeline stages directly.
--config points at a JSON file with per-subcommand sections (config.Config);
each setting flag's dest is the one config key it sets, e.g. "rpca.lambda" for
rpca --lambda. Flags are merged over the file and checked together with it,
so a bad setting exits 4 before any stage runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

from . import config as cfgmod
from . import fileio, fusion, gflasso, pipeline, synth
from .fileio import ConfigError, InputFormatError, SchemaError


def _load_cfg(args) -> cfgmod.Config:
    overrides: dict = {}
    for key, value in vars(args).items():
        section, _, name = key.rpartition(".")
        if value is None or not (section in cfgmod.SECTIONS or key == "downscale_limit"):
            continue  # not given, or not a setting flag
        if key == "fusion.wheel_region":
            try:
                value = [float(c) for c in value.split(",")]
            except ValueError:
                raise ConfigError(f"{key} must be x0,y0,x1,y1 numbers, got {value!r}") from None
        (overrides.setdefault(section, {}) if section else overrides)[name] = value
    return cfgmod.load_config(args.config, overrides)


def cmd_rpca(args) -> int:
    cfg = _load_cfg(args)
    if os.path.isdir(args.input):
        mat = pipeline.frames_to_matrix(fileio.read_frames(args.input), cfg.downscale_limit)
    else:
        mat = fileio.read_matrix(args.input)
    pipeline.run_rpca_stage(mat, cfg, args.out)  # checks the matrix, then creates --out
    return 0


def cmd_segment(args) -> int:
    cfg = _load_cfg(args)
    signal = pipeline.pose_signal(fileio.read_detections(args.detections), cfg)
    fileio.make_dir(args.out)
    pipeline.run_segmentation_stage(signal, cfg, args.out)
    return 0


def cmd_flow_group(args) -> int:
    cfg = _load_cfg(args)
    frames = fileio.read_frames(args.frames)
    boxes_per_frame = pipeline.pixel_boxes(frames, fileio.read_box_records(args.boxes, len(frames)))
    fileio.make_dir(args.out)
    pipeline.run_flow_stage(frames, boxes_per_frame, cfg, args.out)
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    detections = fileio.read_detections(args.detections)
    cfg.require_fusion()
    if args.segments:  # each input is read and checked before --out is created
        data = fileio.read_json(args.segments)
        try:
            for key in ("change_points", "group_ids"):
                for v in data[key]:
                    fusion.check_number(key, v, 0)  # integers only: no bool, string or 1.9
            labeling = gflasso.SegmentLabeling(data["change_points"], data["group_ids"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad segments file {args.segments}: {exc}") from None
        if len(labeling.group_ids) != len(detections):
            raise SchemaError(f"{args.segments}: {len(labeling.group_ids)} group ids for {len(detections)} frames")
    else:
        signal = pipeline.pose_signal(detections, cfg)
    fileio.make_dir(args.out)
    verdicts = pipeline.run_fusion_stage(detections, cfg, args.out)["verdicts"]
    if not args.segments:
        labeling = pipeline.run_segmentation_stage(signal, cfg, args.out)["labelings"][0]
    pipeline.run_episode_stage(detections, verdicts, labeling, cfg, args.out)
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
    generators[args.generator](args.out, args.seed, params)  # creates --out once its generator has run
    return 0


def _generate(gen, defaults: dict, params: dict, seed: int):
    """gen(seed=seed, **defaults updated in place by params), each param first held to its default's number rule."""
    declared = {p.name: p.default for p in inspect.signature(gen).parameters.values()}
    for name, value in params.items():
        fusion.check_number(name, value, defaults.get(name, declared.get(name)), ConfigError)
    defaults.update(params)
    try:
        return gen(seed=seed, **defaults)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad parameters for {gen.__name__.removeprefix('gen_')}: {exc}") from None


def _synth_lowrank_sparse(out, seed, params):
    defaults = dict(d=200, t=200, rank=10, sparse_fraction=0.05, magnitude=5.0)
    bundle = _generate(synth.gen_lowrank_sparse, defaults, params, seed)
    fileio.make_dir(out)
    fileio.write_matrix(os.path.join(out, "x.mat"), bundle.payload["x"])
    fileio.write_matrix(os.path.join(out, "truth_low_rank.mat"), bundle.ground_truth["low_rank"])
    fileio.write_matrix(os.path.join(out, "truth_sparse.mat"), bundle.ground_truth["sparse"])
    fileio.write_json(
        os.path.join(out, "meta.json"),
        {"seed": seed, "params": defaults, "support": [int(i) for i in bundle.ground_truth["support"]]},
    )


def _synth_piecewise(out, seed, params):
    defaults = dict(d=8, t=240, change_points=[40, 90, 150, 200], jump_scale=2.0, noise_sigma=0.3)
    bundle = _generate(synth.gen_piecewise, defaults, params, seed)
    fileio.make_dir(out)
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
    bundle = _generate(synth.gen_shifted_pair, defaults, params, seed)
    fileio.make_dir(out)
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
    )
    params = dict(params)
    render = params.pop("render", True)  # frames are rendered as they are written, not held
    write_session(out, _generate(synth.gen_driver_session, defaults, params, seed), render)


def write_session(out: str, bundle, render: bool) -> None:
    """Write a driver-session bundle: detections, rendered frames if render, truth, config."""
    fileio.make_dir(out)
    fileio.write_detections(os.path.join(out, "detections.jsonl"), bundle.payload["frames"])
    if render:
        frames_dir = os.path.join(out, "frames")
        os.makedirs(frames_dir, exist_ok=True)
        width, height = bundle.ground_truth["frame_size"]
        for i, img in enumerate(synth.render_frames(bundle.payload["frames"], width, height)):
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
    table = dataclasses.asdict(fusion.DEFAULT_EPISODE_RULES)  # a copy: the writes below stay local
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
    p.add_argument("--lambda", dest="rpca.lambda", type=float, help="sparsity weight")
    p.add_argument("--downscale", dest="downscale_limit", type=int, help="longest-side pixel limit for frame input")
    common(p)
    p.set_defaults(func=cmd_rpca)

    p = sub.add_parser("segment", help="change-point segmentation of a pose stream")
    p.add_argument("--detections", required=True, help="JSON-lines detection stream")
    p.add_argument("--lambda", dest="gfl.lambda", type=float, help="regularization weight")
    p.add_argument("--order", dest="gfl.order", type=int, help="difference order p")
    p.add_argument("--threshold", dest="gfl.threshold", type=float, action="append",
                   help="change-point threshold (repeatable)")
    p.add_argument("--min-gap", dest="gfl.min_gap", type=int, help="minimum frames between change points")
    common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("flow-group", help="group boxes across frames by flow similarity")
    p.add_argument("--frames", required=True, help="directory of PGM frames")
    p.add_argument("--boxes", required=True, help="JSON-lines file: {frame, boxes:[[x0,y0,x1,y1],...]}")
    p.add_argument("--group-threshold", dest="flow.group_threshold", type=float)
    p.add_argument("--merge-threshold", dest="flow.merge_threshold", type=float)
    p.add_argument("--gap-max", dest="flow.gap_max", type=int)
    common(p)
    p.set_defaults(func=cmd_flow_group)

    p = sub.add_parser("fuse", help="rule verdicts, relabels, training records, episode labels")
    p.add_argument("--detections", required=True)
    p.add_argument("--segments", help="segments JSON (change_points + group_ids); default: run segmentation")
    p.add_argument("--wheel-region", dest="fusion.wheel_region", help="x0,y0,x1,y1 (overrides config)")
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
    p.add_argument("--downscale", dest="downscale_limit", type=int, help="longest-side pixel limit for the rpca stage")
    common(p)
    p.set_defaults(func=cmd_pipeline)
    return parser


# Exit code of each error type; a pipeline StageError is looked up by its
# cause. Any other error is a bug and propagates.
EXIT_CODES = (
    (ConfigError, 4),
    (InputFormatError, 2),
    (SchemaError, 3),
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
