import bisect
import csv
import filecmp
import json
import os

import numpy as np
import pytest

from epkit import cli, fileio, gflasso, pipeline, rpca, synth


def run(argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_synth_lowrank_sparse_round_trips_bit_exact(tmp_path):
    out = tmp_path / "b"
    assert run(["synth", "--generator", "lowrank_sparse", "--seed", "7",
                "--params", '{"d": 30, "t": 25, "rank": 3}', "--out", out]) == 0
    bundle = synth.gen_lowrank_sparse(30, 25, 3, 0.05, 5.0, seed=7)
    assert np.array_equal(fileio.read_matrix(out / "x.mat"), bundle.payload["x"])
    assert np.array_equal(
        fileio.read_matrix(out / "truth_sparse.mat"), bundle.ground_truth["sparse"]
    )


def test_synth_piecewise_round_trips_bit_exact(tmp_path):
    out = tmp_path / "b"
    assert run(["synth", "--generator", "piecewise", "--seed", "3", "--out", out]) == 0
    bundle = synth.gen_piecewise(8, 240, [40, 90, 150, 200], 2.0, 0.3, seed=3)
    assert np.array_equal(fileio.read_matrix(out / "x.mat"), bundle.payload["x"])
    meta = fileio.read_json(out / "meta.json")
    assert meta["change_points"] == [40, 90, 150, 200]


def test_synth_shifted_pair_round_trips_bit_exact(tmp_path):
    out = tmp_path / "b"
    assert run(["synth", "--generator", "shifted_pair", "--seed", "5",
                "--params", '{"dx": 0.5, "dy": -0.5}', "--out", out]) == 0
    bundle = synth.gen_shifted_pair(64, 0.5, -0.5, 2.0, seed=5)
    assert np.array_equal(fileio.read_pgm(out / "frame1.pgm"), bundle.payload["frame1"])
    assert np.array_equal(fileio.read_pgm(out / "frame2.pgm"), bundle.payload["frame2"])


def test_synth_unknown_generator_lists_names(tmp_path, capsys):
    assert run(["synth", "--generator", "nope", "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "driver_session" in err and "lowrank_sparse" in err


def test_rpca_cmd_matches_in_process(tmp_path):
    bundle = synth.gen_lowrank_sparse(40, 30, 3, 0.05, 5.0, seed=11)
    xpath = tmp_path / "x.mat"
    fileio.write_matrix(xpath, bundle.payload["x"])
    out = tmp_path / "out"
    assert run(["rpca", "--input", xpath, "--out", out]) == 0
    ref = rpca.decompose(bundle.payload["x"])
    assert np.array_equal(fileio.read_matrix(out / "low_rank.mat"), ref.low_rank)
    assert np.array_equal(fileio.read_matrix(out / "sparse.mat"), ref.sparse)
    summary = fileio.read_json(out / "rpca_summary.json")
    assert summary["iterations"] == ref.iterations
    assert summary["final_residual"] == ref.final_residual
    header, rows = read_csv(out / "outlier_energy.csv")
    energies = np.array([float(r[1]) for r in rows])
    assert np.array_equal(energies, np.linalg.norm(ref.sparse, axis=0))


def test_rpca_cmd_empty_frame_dir_exits_2(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    assert run(["rpca", "--input", frames, "--out", tmp_path / "out"]) == 2


def test_rpca_cmd_constant_video_has_zero_outlier_energy(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(6):
        fileio.write_pgm(frames / f"f_{i:03d}.pgm", np.full((12, 16), 0.5))
    out = tmp_path / "out"
    assert run(["rpca", "--input", frames, "--out", out]) == 0
    _, rows = read_csv(out / "outlier_energy.csv")
    assert max(float(r[1]) for r in rows) <= 1e-6


def test_rpca_cmd_malformed_matrix_exits_2_with_offset(tmp_path, capsys):
    bad = tmp_path / "x.mat"
    bad.write_bytes(b"EPKMAT1\n4 4\nshort")
    assert run(["rpca", "--input", bad, "--out", tmp_path / "out"]) == 2
    assert "byte offset" in capsys.readouterr().err


def _piecewise_detections(tmp_path, seed=3):
    bundle = synth.gen_piecewise(8, 240, [40, 90, 150, 200], 2.0, 0.3, seed=seed)
    x = bundle.payload["x"]
    frames = []
    for t in range(x.shape[1]):
        joints = {}
        for row, (joint, axis) in enumerate(gflasso.ARM_SERIES):
            lo, hi = x[row].min(), x[row].max()
            span = hi - lo if hi > lo else 1.0
            coord = 0.1 + 0.8 * (x[row, t] - lo) / span  # per-row affine into [0.1, 0.9]
            cur = joints.get(joint, (0.0, 0.0, 1.0))
            joints[joint] = (coord, cur[1], 1.0) if axis == 0 else (cur[0], coord, 1.0)
        frames.append((synth.PoseFrame(frame_index=t, joints=joints), [], []))
    path = tmp_path / "detections.jsonl"
    fileio.write_detections(path, frames)
    return path, bundle.ground_truth["change_points"]


def test_segment_cmd_recovers_piecewise_boundaries(tmp_path):
    det, truth = _piecewise_detections(tmp_path)
    out = tmp_path / "out"
    assert run(["segment", "--detections", det, "--out", out]) == 0
    data = fileio.read_json(out / "change_points.json")
    found = data["sets"][0]["change_points"]
    assert len(found) == len(truth)
    for c in truth:
        assert any(abs(f - c) <= 2 for f in found)
    header, rows = read_csv(out / "groups.csv")
    assert header == ["frame", "group_t0"]
    assert len(rows) == 240
    assert (out / "strengths.svg").read_text().startswith("<svg")


def test_segment_cmd_two_thresholds_nest(tmp_path):
    det, _ = _piecewise_detections(tmp_path)
    out = tmp_path / "out"
    assert run([
        "segment", "--detections", det, "--threshold", "2.0", "--threshold", "0.5",
        "--out", out,
    ]) == 0
    data = fileio.read_json(out / "change_points.json")
    hi = set(data["sets"][0]["change_points"])
    lo = set(data["sets"][1]["change_points"])
    assert hi <= lo
    svg = (out / "strengths.svg").read_text()
    assert svg.count("stroke-dasharray") == 2


def test_segment_cmd_constant_stream_single_segment(tmp_path):
    frames = []
    for t in range(30):
        joints = {j: (0.4, 0.6, 1.0) for j in ("l_wrist", "r_wrist", "l_elbow", "r_elbow")}
        frames.append((synth.PoseFrame(frame_index=t, joints=joints), [], []))
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, frames)
    out = tmp_path / "out"
    assert run(["segment", "--detections", det, "--out", out]) == 0
    _, rows = read_csv(out / "groups.csv")
    assert {r[1] for r in rows} == {"0"}


def test_segment_cmd_missing_joint_exits_3(tmp_path, capsys):
    frames = [
        (synth.PoseFrame(frame_index=t, joints={"l_wrist": (0.1, 0.2, 1.0)}), [], [])
        for t in range(5)
    ]
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, frames)
    assert run(["segment", "--detections", det, "--out", tmp_path / "o"]) == 3
    assert "r_wrist" in capsys.readouterr().err


def test_segment_cmd_outputs_are_byte_identical(tmp_path):
    det, _ = _piecewise_detections(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["segment", "--detections", det, "--out", out_a]) == 0
    assert run(["segment", "--detections", det, "--out", out_b]) == 0
    for name in os.listdir(out_a):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_fuse_cmd_requires_wheel_region(tmp_path, capsys):
    bundle = synth.gen_driver_session([("safe_driving", 5)], seed=1, render=False)
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, bundle.payload["frames"])
    assert run(["fuse", "--detections", det, "--out", tmp_path / "o"]) == 4
    assert "wheel_region" in capsys.readouterr().err


@pytest.mark.parametrize("region", ["0.2,0.5", "0.2,0.5,0.7"])
def test_fuse_cmd_malformed_wheel_region_exits_4(tmp_path, capsys, region):
    bundle = synth.gen_driver_session([("safe_driving", 5)], seed=1, render=False)
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, bundle.payload["frames"])
    assert run(["fuse", "--detections", det, "--wheel-region", region, "--out", tmp_path / "o"]) == 4
    assert "wheel_region" in capsys.readouterr().err


def test_fuse_cmd_no_hands_is_data_not_error(tmp_path):
    frames = []
    for t in range(12):
        joints = {j: (0.4, 0.6, 0.9) for j in ("l_wrist", "r_wrist", "l_elbow", "r_elbow")}
        frames.append((synth.PoseFrame(frame_index=t, joints=joints), [], []))
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, frames)
    out = tmp_path / "o"
    assert run([
        "fuse", "--detections", det, "--wheel-region", "0.2,0.5,0.7,0.9", "--out", out,
    ]) == 0
    verdicts = fileio.read_jsonl(out / "verdicts.jsonl")
    assert len(verdicts) == 12
    assert all(not v["safe_driving"] for v in verdicts)
    assert fileio.read_jsonl(out / "training_records.jsonl") == []


def test_fuse_cmd_corrects_injected_flips(tmp_path):
    bundle = synth.gen_driver_session(
        [("drinking", 40), ("texting_left", 40)], side_flip_fraction=0.2, seed=31, render=False
    )
    session = tmp_path / "sess"
    session.mkdir()
    det = session / "detections.jsonl"
    fileio.write_detections(det, bundle.payload["frames"])
    cfg_path = session / "cfg.json"
    cfg_path.write_text(json.dumps({
        "fusion": {
            "wheel_region": bundle.ground_truth["wheel_region"],
            "frame_rate": bundle.ground_truth["frame_rate"],
        }
    }))
    out = tmp_path / "o"
    assert run(["fuse", "--detections", det, "--config", cfg_path, "--out", out]) == 0
    records = fileio.read_jsonl(out / "training_records.jsonl")
    side_fixes = {
        (r["frame"], r["payload"]["hand_index"]): r["payload"]["new_side"]
        for r in records
        if r["kind"] == "hand_side_label"
    }
    flips = bundle.ground_truth["flips"]
    assert flips
    corrected = sum(
        1 for f in flips if side_fixes.get((f["frame"], f["hand_index"])) == f["true_side"]
    )
    assert corrected / len(flips) >= 0.95
    assert (out / "episodes.json").exists()


def test_flow_group_cmd_and_mismatch_exit(tmp_path, capsys):
    bundle = synth.gen_shifted_pair(48, 0.0, 0.0, 1.5, seed=2)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i in range(3):
        fileio.write_pgm(frames_dir / f"f_{i}.pgm", bundle.payload["frame1"])
    boxes = tmp_path / "boxes.jsonl"
    fileio.write_jsonl(boxes, [{"frame": i, "boxes": [[0.2, 0.2, 0.7, 0.7]]} for i in range(3)])
    out = tmp_path / "o"
    assert run(["flow-group", "--frames", frames_dir, "--boxes", boxes, "--out", out]) == 0
    header, rows = read_csv(out / "flow_groups.csv")
    assert len(rows) == 3
    assert {r[2] for r in rows} == {"0"}
    # a box beyond the frame's right edge
    fileio.write_jsonl(boxes, [{"frame": i, "boxes": [[0.2, 0.2, 1.3, 0.7]]} for i in range(3)])
    assert run(["flow-group", "--frames", frames_dir, "--boxes", boxes, "--out", out]) == 3
    assert "exceeds frame bounds" in capsys.readouterr().err
    # frame/box count mismatch
    fileio.write_jsonl(boxes, [{"frame": 0, "boxes": []}])
    assert run(["flow-group", "--frames", frames_dir, "--boxes", boxes, "--out", out]) == 3


@pytest.mark.parametrize("records, message", [
    ([{"frame": 1, "boxes": []}, {"frame": 1, "boxes": []}], "second record for frame 1"),
    ([{"frame": 0, "boxes": []}, [1, "boxes"]], ":2: not an object"),
    ([{"frame": 0, "boxes": []}, {"frame": "1", "boxes": []}], "frame must be an integer"),
    ([{"frame": 0, "boxes": []}, {"frame": 2, "boxes": []}], "in [0, 2), got 2"),
    ([{"frame": 0, "boxes": [[0.1, 0.1, 0.5]]}, {"frame": 1}], "boxes must be a list"),
    ([{"frame": 0, "boxes": [[0.1, 0.1, 0.5, "x"]]}, {"frame": 1}], "boxes must be a list"),
])
def test_flow_group_cmd_bad_box_records_exit_3(tmp_path, capsys, records, message):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i in range(2):
        fileio.write_pgm(frames_dir / f"f_{i}.pgm", np.full((16, 16), 0.5))
    boxes = tmp_path / "boxes.jsonl"
    fileio.write_jsonl(boxes, records)
    assert run(["flow-group", "--frames", frames_dir, "--boxes", boxes, "--out", tmp_path / "o"]) == 3
    assert message in capsys.readouterr().err


def test_flow_group_cmd_matches_records_by_frame_number(tmp_path):
    bundle = synth.gen_shifted_pair(48, 0.0, 0.0, 1.5, seed=2)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i in range(3):
        fileio.write_pgm(frames_dir / f"f_{i}.pgm", bundle.payload["frame1"])
    boxes = tmp_path / "boxes.jsonl"
    box = [0.2, 0.2, 0.7, 0.7]
    fileio.write_jsonl(boxes, [
        {"frame": 2, "boxes": [box]}, {"frame": 0, "boxes": [box]}, {"frame": 1, "boxes": []},
    ])
    out = tmp_path / "o"
    assert run(["flow-group", "--frames", frames_dir, "--boxes", boxes, "--out", out]) == 0
    _header, rows = read_csv(out / "flow_groups.csv")
    assert sorted(int(r[0]) for r in rows) == [0, 2]


def _tiny_session(tmp_path, frames=6):
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "4",
                "--params", json.dumps({"episode_schedule": [["safe_driving", frames]]}),
                "--out", sess]) == 0
    return sess


@pytest.mark.parametrize("command", ["segment", "fuse", "pipeline"])
def test_non_object_pose_exits_3(tmp_path, capsys, command):
    sess = tmp_path / "sess"
    sess.mkdir()
    det = sess / "detections.jsonl"
    fileio.write_jsonl(det, [{"frame": 0, "pose": []}])
    argv = {
        "segment": ["segment", "--detections", det],
        "fuse": ["fuse", "--detections", det, "--wheel-region", "0.2,0.5,0.7,0.9"],
        "pipeline": ["pipeline", "--session", sess],
    }[command]
    assert run(argv + ["--out", tmp_path / "o"]) == 3
    assert "bad detection record" in capsys.readouterr().err


def test_pipeline_bug_in_a_stage_propagates(tmp_path, monkeypatch):
    sess = _tiny_session(tmp_path)

    def broken(*args, **kwargs):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(pipeline, "run_fusion_stage", broken)
    with pytest.raises(pipeline.StageError) as info:
        run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
             "--out", tmp_path / "o"])
    assert info.value.stage == "fusion"
    assert isinstance(info.value.cause, TypeError)


def test_pipeline_frame_count_mismatch_exits_3(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    os.remove(sorted((sess / "frames").iterdir())[-1])
    assert run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
                "--out", tmp_path / "o"]) == 3
    assert "flow_groups" in capsys.readouterr().err


def test_pipeline_cmd_missing_session_exits_2(tmp_path, capsys):
    assert run(["pipeline", "--session", tmp_path / "nope", "--out", tmp_path / "o"]) == 2
    assert "load" in capsys.readouterr().err


def test_pipeline_cmd_small_session(tmp_path):
    sched = json.dumps({
        "episode_schedule": [["safe_driving", 30], ["drinking", 30]],
        "side_flip_fraction": 0.1,
        "frame_width": 64,
        "frame_height": 48,
    })
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "13",
                "--params", sched, "--out", sess]) == 0
    out = tmp_path / "out"
    assert run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
                "--out", out]) == 0
    report = fileio.read_json(out / "report.json")
    assert set(report["stages"]) == {"rpca", "segmentation", "flow_groups", "fusion", "episodes"}
    assert len(report["frames"]) == 60
    labels = {e["label"] for e in report["stages"]["episodes"]}
    assert "safe_driving" in labels and "drinking" in labels


def test_pipeline_warning_peak_overlaps_planted_anomaly(tmp_path):
    params = json.dumps({
        "episode_schedule": [["safe_driving", 80], ["drinking", 25], ["safe_driving", 80]],
        "side_flip_fraction": 0.0,
    })
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "3",
                "--params", params, "--out", sess]) == 0
    out = tmp_path / "out"
    assert run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
                "--out", out]) == 0
    report = fileio.read_json(out / "report.json")
    warn = report["stages"]["rpca"]["warning_frames"]
    assert warn
    inside = [f for f in warn if 80 <= f < 105]
    assert len(inside) / len(warn) >= 0.8
    flagged = {fr["frame"] for fr in report["frames"] if fr["rpca_warning"]}
    assert flagged == set(warn)


def test_pipeline_safe_only_session_has_no_training_records(tmp_path):
    params = json.dumps({
        "episode_schedule": [["safe_driving", 60]],
        "side_flip_fraction": 0.1,
        "frame_width": 64,
        "frame_height": 48,
    })
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "8",
                "--params", params, "--out", sess]) == 0
    out = tmp_path / "out"
    assert run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
                "--out", out]) == 0
    report = fileio.read_json(out / "report.json")
    assert report["stages"]["fusion"]["n_records"] == 0
    assert fileio.read_jsonl(out / "training_records.jsonl") == []
    # stabilized verdicts all true after the warm-up window
    verdicts = fileio.read_jsonl(out / "verdicts.jsonl")
    warmup = 5  # ceil(frame_rate 10 / 2)
    assert all(v["stabilized_safe_driving"] for v in verdicts[warmup:])


def test_config_unknown_key_exits_4(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"rcpa": {}}')
    bundle = synth.gen_driver_session([("safe_driving", 3)], seed=1, render=False)
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, bundle.payload["frames"])
    assert run(["segment", "--detections", det, "--config", cfg, "--out", tmp_path / "o"]) == 4
    assert "rcpa" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    {"max_features": 0},
    {"canonical_size": 2},
    {"max_refinements": -1},
    {"max_refinements": 0},
    {"step_tol": 0},
    {"fb_max_error": -0.1},
    {"eigen_floor": -1e-3},
])
def test_pipeline_bad_flow_setting_exits_4_before_any_stage(tmp_path, capsys, setting):
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "4",
                "--params", json.dumps({"episode_schedule": [["safe_driving", 6]]}),
                "--out", sess]) == 0
    cfg = fileio.read_json(sess / "session_config.json")
    cfg["flow"].update(setting)
    fileio.write_json(tmp_path / "c.json", cfg)
    out = tmp_path / "o"
    assert run(["pipeline", "--session", sess, "--config", tmp_path / "c.json", "--out", out]) == 4
    assert next(iter(setting)) in capsys.readouterr().err
    assert not out.exists()  # failed at config load, before the rpca stage


# Discrete outputs of the seed-21 session below, recorded before flow grouping
# was batched; float bytes may differ across BLAS builds, these may not.
PINNED_CHANGE_POINTS = [19, 31, 39, 53, 59, 79]
PINNED_WARNING_FRAMES = [18, 80, 87, 94, 96, 97]
PINNED_EPISODES = [
    (0, "safe_driving"),
    (20, "texting_left"),
    (32, "texting_left"),
    (40, "drinking"),
    (54, "drinking"),
    (60, "talking_on_phone_left"),
    (80, "operating_radio"),
]
# group of each frame's boxes, frames separated by spaces
PINNED_FLOW_GROUPS = (
    "00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 "
    "00 00 00 00 00 01 01 00 00 00 00 00 00 00 00 00 00 00 00 00 "
    "00 00 00 00 02 00 00 00 00 00 02 00 00 00 00 00 00 00 00 00 "
    "00 00 00 00 00 00 00 00 00 00 03 03 00 00 00 03 00 00 00 00 "
    "00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00"
)


def test_pipeline_discrete_outputs_are_pinned(tmp_path):
    labels = ["safe_driving", "texting_left", "drinking", "talking_on_phone_left", "operating_radio"]
    params = {"episode_schedule": [[lbl, 20] for lbl in labels], "side_flip_fraction": 0.1}
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "21",
                "--params", json.dumps(params), "--out", sess]) == 0
    cfg = fileio.read_json(sess / "session_config.json")
    cfg["rpca"] = {"warn_factor": 1.3}  # low enough that this short session has warnings
    fileio.write_json(tmp_path / "c.json", cfg)
    out = tmp_path / "out"
    assert run(["pipeline", "--session", sess, "--config", tmp_path / "c.json", "--out", out]) == 0
    report = fileio.read_json(out / "report.json")
    assert report["stages"]["segmentation"]["change_points"] == PINNED_CHANGE_POINTS
    assert report["stages"]["rpca"]["warning_frames"] == PINNED_WARNING_FRAMES
    episodes = report["stages"]["episodes"]
    assert [(e["start"], e["label"]) for e in episodes] == PINNED_EPISODES
    starts = [start for start, _label in PINNED_EPISODES]
    assert [fr["episode_label"] for fr in report["frames"]] == [
        PINNED_EPISODES[bisect.bisect_right(starts, f) - 1][1] for f in range(100)
    ]
    _header, rows = read_csv(out / "flow_groups.csv")
    groups: dict[int, str] = {}
    for frame, _box, group in sorted((int(f), int(b), g) for f, b, g in rows):
        groups[frame] = groups.get(frame, "") + group
    assert " ".join(groups.get(f, "-") for f in range(100)) == PINNED_FLOW_GROUPS


@pytest.mark.parametrize(
    "override, warnings",
    [
        ({}, []),
        ({"rpca": {"max_iterations": 2}}, ["rpca did not converge in 2 iterations"]),
        ({"gfl": {"max_iterations": 2}}, ["segmentation did not converge in 2 iterations"]),
    ],
)
def test_pipeline_reports_solver_non_convergence(tmp_path, override, warnings):
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "4",
                "--params", json.dumps({"episode_schedule": [["safe_driving", 12]]}),
                "--out", sess]) == 0
    cfg = fileio.read_json(sess / "session_config.json")
    cfg.update(override)
    fileio.write_json(tmp_path / "c.json", cfg)
    out = tmp_path / "out"
    assert run(["pipeline", "--session", sess, "--config", tmp_path / "c.json", "--out", out]) == 0
    assert fileio.read_json(out / "report.json")["warnings"] == warnings


def test_rpca_cmd_summary_matches_pipeline_stage(tmp_path):
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "6",
                "--params", json.dumps({"episode_schedule": [["safe_driving", 10], ["drinking", 10]]}),
                "--out", sess]) == 0
    config = sess / "session_config.json"
    assert run(["pipeline", "--session", sess, "--config", config, "--out", tmp_path / "p"]) == 0
    assert run(["rpca", "--input", sess / "frames", "--config", config, "--out", tmp_path / "r"]) == 0
    from_pipeline = fileio.read_json(tmp_path / "p" / "rpca_summary.json")
    from_cli = fileio.read_json(tmp_path / "r" / "rpca_summary.json")
    assert "rank" in from_cli
    assert from_cli == from_pipeline
