import bisect
import builtins
import copy
import csv
import ctypes
import dataclasses
import filecmp
import inspect
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epkit import cli, config, fileio, fusion, gflasso, optflow, pipeline, rpca, synth


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


@pytest.mark.parametrize("frame, message", [
    (0, ":2: second record for frame 0"),
    (1.7, ":2: frame must be an integer in [0, 6), got 1.7"),
    (True, ":2: frame must be an integer in [0, 6), got True"),
    (6, ":2: frame must be an integer in [0, 6), got 6"),
])
def test_segment_cmd_bad_frame_number_exits_3(tmp_path, capsys, frame, message):
    joints = {j: (0.4, 0.6, 1.0) for j in ("l_wrist", "r_wrist", "l_elbow", "r_elbow")}
    records = [
        fileio.detection_frame_to_dict(synth.PoseFrame(frame_index=t, joints=joints), [], [])
        for t in range(6)
    ]
    records[1]["frame"] = frame
    det = tmp_path / "d.jsonl"
    fileio.write_jsonl(det, records)
    assert run(["segment", "--detections", det, "--out", tmp_path / "o"]) == 3
    assert message in capsys.readouterr().err


def test_segment_cmd_outputs_are_byte_identical(tmp_path):
    det, _ = _piecewise_detections(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["segment", "--detections", det, "--out", out_a]) == 0
    assert run(["segment", "--detections", det, "--out", out_b]) == 0
    for name in os.listdir(out_a):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_fuse_cmd_requires_wheel_region(tmp_path, capsys):
    bundle = synth.gen_driver_session([("safe_driving", 5)], seed=1)
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, bundle.payload["frames"])
    assert run(["fuse", "--detections", det, "--out", tmp_path / "o"]) == 4
    assert "wheel_region" in capsys.readouterr().err


@pytest.mark.parametrize("region", ["0.2,0.5", "0.2,0.5,0.7", "0.2,abc", "0.2,nan,0.7,0.9", "0.2,0.3,inf,0.9",
                                    "0.7,0.5,0.2,0.9"])
def test_fuse_cmd_malformed_wheel_region_exits_4(tmp_path, capsys, region):
    bundle = synth.gen_driver_session([("safe_driving", 5)], seed=1)
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, bundle.payload["frames"])
    assert run(["fuse", "--detections", det, "--wheel-region", region, "--out", tmp_path / "o"]) == 4
    assert "wheel_region" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg, name", [
    ({"fusion": {"wheel_region": [[0.2, 0.5], [0.7, float("nan")], [0.4, 0.9]]}}, "wheel_region"),
    ({"fusion": {"wheel_region": [0.2, 0.5, 0.7, 0.9]},
      "episode_rules": {"rules": [{"label": "x", "predicate": "offwheel_wrist_in_region",
                                   "params": {"region": [0.66, float("nan"), 0.86, 0.68]}}]}}, "'region'"),
    ({"fusion": {"wheel_region": [0.2, 0.9, 0.7, 0.5]}}, "wheel_region"),  # y0 > y1: contains nothing
    ({"fusion": {"wheel_region": [0.2, 0.5, 0.7, 0.9]},
      "episode_rules": {"rules": [{"label": "x", "predicate": "offwheel_wrist_in_region",
                                   "params": {"region": [0.86, 0.5, 0.66, 0.68]}}]}}, "'region'"),
])
def test_fuse_cmd_non_finite_region_in_config_exits_4_before_out(tmp_path, capsys, cfg, name):
    bundle = synth.gen_driver_session([("safe_driving", 5)], seed=1)
    det = tmp_path / "d.jsonl"
    fileio.write_detections(det, bundle.payload["frames"])
    (tmp_path / "c.json").write_text(json.dumps(cfg))  # json.dumps writes a NaN float as the literal NaN
    out = tmp_path / "o"
    assert run(["fuse", "--detections", det, "--config", tmp_path / "c.json", "--out", out]) == 4
    assert f"{name} must be [x0, y0, x1, y1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("segments, message", [
    ({"change_points": [True], "group_ids": [0] * 6}, "change_points must be an integer, got True"),
    ({"change_points": [], "group_ids": ["1"] + [0] * 5}, "group_ids must be an integer, got '1'"),
    ({"change_points": [], "group_ids": [1.9] + [0] * 5}, "group_ids must be an integer, got 1.9"),
    ({"change_points": [2], "group_ids": [0, 0, 0, 1, 1, 0]}, "group_ids differ from those its change_points give"),
    ({"change_points": [5], "group_ids": [0] * 6}, "change_points must lie in [0, 5), got [5]"),
    ({"change_points": [-3, 1000], "group_ids": [0] * 6}, "change_points must lie in [0, 5), got [-3, 1000]"),
])
def test_fuse_cmd_non_integer_segments_exit_3_before_out(tmp_path, capsys, segments, message):
    sess = _tiny_session(tmp_path)
    path = tmp_path / "segments.json"
    fileio.write_json(path, segments)
    out = tmp_path / "o"
    assert run(["fuse", "--detections", sess / "detections.jsonl", "--segments", path,
                "--config", sess / "session_config.json", "--out", out]) == 3
    assert f"bad segments file {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


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
        [("drinking", 40), ("texting_left", 40)], side_flip_fraction=0.2, seed=31
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
    ([{"frame": 0, "boxes": [[0.5, 0.1, 0.2, 0.6]]}, {"frame": 1}], "box 0 of frame 0 needs x0 < x1 and y0 < y1"),
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


def _raising(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


def _pipeline(sess, out):
    return run(["pipeline", "--session", sess, "--config", sess / "session_config.json", "--out", out])


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):  # a running or unreaped child would be returned
        os.waitpid(-1, os.WNOHANG)


def test_pipeline_rpca_worker_schema_error_exits_3_naming_rpca(tmp_path, monkeypatch, capsys):
    sess = _tiny_session(tmp_path)
    monkeypatch.setattr(rpca, "decompose", _raising(fileio.SchemaError("no low-rank part")))  # the fork inherits it
    assert _pipeline(sess, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "'rpca'" in err and "no low-rank part" in err
    _assert_no_child_process()


def test_pipeline_rpca_worker_bug_propagates_as_rpca_stage_error(tmp_path, monkeypatch):
    sess = _tiny_session(tmp_path)
    for kind in (TypeError, ValueError):  # a ValueError from a stage is a bug too, not a schema error
        monkeypatch.setattr(rpca, "decompose", _raising(kind("a bug in the worker")))
        with pytest.raises(pipeline.StageError) as info:
            _pipeline(sess, tmp_path / kind.__name__)
        assert info.value.stage == "rpca"
        assert isinstance(info.value.cause, kind)
        _assert_no_child_process()


def test_pipeline_reports_rpca_when_rpca_and_flow_both_fail(tmp_path, monkeypatch, capsys):
    sess = _tiny_session(tmp_path)
    monkeypatch.setattr(rpca, "decompose", _raising(fileio.SchemaError("rpca broke")))
    monkeypatch.setattr(optflow, "group_boxes", _raising(fileio.InputFormatError("flow broke")))
    assert _pipeline(sess, tmp_path / "o") == 3  # flow's error alone would exit 2
    err = capsys.readouterr().err
    assert "'rpca'" in err and "rpca broke" in err and "flow broke" not in err
    _assert_no_child_process()


def test_pipeline_leaves_no_child_process(tmp_path):
    sess = _tiny_session(tmp_path)
    assert _pipeline(sess, tmp_path / "o") == 0
    assert fileio.read_json(tmp_path / "o" / "report.json")["stages"]["rpca"]["summary"]["cols"] == 6
    _assert_no_child_process()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="inline, os._exit would end the test process")
def test_in_worker_sends_unpicklable_errors_large_results_and_lost_children():
    class Local(Exception):  # a local class cannot be pickled
        pass

    with pytest.raises(RuntimeError, match="Local"):
        pipeline.in_worker(_raising(Local("gone")))()
    big = pipeline.in_worker(np.arange, 1_000_000)()  # 8 MB: far more than a pipe buffer holds
    assert np.array_equal(big, np.arange(1_000_000))
    with pytest.raises(RuntimeError, match="status 7 and no result"):
        pipeline.in_worker(os._exit, 7)()
    _assert_no_child_process()


def test_claims_give_each_chunk_to_exactly_one_taker_under_contention():
    # more takers than cores, switching often: this thread at the front, four threads at the back
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(300):
            claims = pipeline._Claims(range(64))
            start = threading.Barrier(5, timeout=60)  # every taker begins at once

            def take_back(back, claims=claims, start=start):
                start.wait()
                back.extend(claims.taken(1))

            backs = [[] for _ in range(4)]
            threads = [threading.Thread(target=take_back, args=(back,)) for back in backs]
            for t in threads:
                t.start()
            start.wait()
            front = list(claims.taken(0))
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            claims.close()
            assert sorted(front + [c for back in backs for c in back]) == list(range(64))  # none lost or twice
            assert front == list(range(len(front))) and claims.stolen() == any(backs)
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def session_400(tmp_path_factory):
    """The seed-1 400-frame session: on two or more cores, a default-threaded BLAS gives rpca other bytes."""
    labels = ["safe_driving", "texting_left", "drinking", "talking_on_phone_left", "operating_radio"]
    params = {"episode_schedule": [[lbl, 80] for lbl in labels], "side_flip_fraction": 0.1}
    sess = tmp_path_factory.mktemp("session_400") / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "1",
                "--params", json.dumps(params), "--out", sess]) == 0
    return sess


@pytest.fixture(scope="module")
def inline_400(tmp_path_factory, session_400):
    """session_400's outputs without os.fork: rpca runs inline at the join, and this process groups every chunk."""
    out = tmp_path_factory.mktemp("inline_400") / "inline"
    with pytest.MonkeyPatch.context() as m:
        m.delattr(os, "fork")
        assert _pipeline(session_400, out) == 0  # pinned to one BLAS thread, as the worker is
    return out


def _assert_same_files(out, reference):
    names = sorted(os.listdir(out))
    assert len(names) == 14 and names == sorted(os.listdir(reference))
    _match, mismatch, errors = filecmp.cmpfiles(out, reference, names, shallow=False)
    assert mismatch == [] and errors == []


def test_pipeline_without_fork_runs_rpca_inline_with_the_same_outputs(tmp_path, session_400, inline_400):
    assert _pipeline(session_400, tmp_path / "forked") == 0
    _assert_same_files(tmp_path / "forked", inline_400)


def _claims_made(monkeypatch):
    """The _Claims each pipeline run makes, in order; a forked worker sees those made before it."""
    made = []

    class Recorded(pipeline._Claims):
        def __init__(self, chunks):
            super().__init__(chunks)
            made.append(self)

    monkeypatch.setattr(pipeline, "_Claims", Recorded)
    return made


def _until(done):
    deadline = time.monotonic() + 120
    while not done():
        assert time.monotonic() < deadline
        time.sleep(0.005)


def _after(done, fn):
    """fn, called once done() holds."""
    def wrapped(*args):
        _until(done)
        return fn(*args)

    return wrapped


def _all_taken(claims) -> bool:
    front, back = claims._ends
    return front == back


@pytest.mark.parametrize("steal", [True, False])
def test_pipeline_outputs_do_not_depend_on_which_side_groups_a_chunk(tmp_path, monkeypatch, session_400,
                                                                     inline_400, steal):
    made = _claims_made(monkeypatch)
    if steal:  # this process segments only once the worker, past rpca, has taken a block
        monkeypatch.setattr(pipeline, "run_segmentation_stage",
                            _after(lambda: made[-1].stolen(), pipeline.run_segmentation_stage))
    else:  # the worker's rpca ends only once this process has taken every chunk
        monkeypatch.setattr(rpca, "decompose", _after(lambda: _all_taken(made[-1]), rpca.decompose))
    stolen = []
    flow_stage = pipeline.run_flow_stage

    def recorded(*args):
        result = flow_stage(*args)
        stolen.append(args[-2].stolen())
        return result

    monkeypatch.setattr(pipeline, "run_flow_stage", recorded)
    assert _pipeline(session_400, tmp_path / "o") == 0
    assert stolen == [steal] and len(made[-1].chunks) == 50
    _assert_same_files(tmp_path / "o", inline_400)
    _assert_no_child_process()


@pytest.mark.parametrize("fault, kind, message", [
    (_raising(TypeError("a bug in a chunk the worker took")), TypeError, "a bug in a chunk the worker took"),
    (lambda: os._exit(9), RuntimeError, "worker exited with status 9 and no result"),  # killed mid-flow
])
def test_pipeline_flow_failure_in_a_chunk_the_worker_took_names_flow(tmp_path, monkeypatch, fault, kind, message):
    sess = _tiny_session(tmp_path, frames=40)
    made = _claims_made(monkeypatch)
    monkeypatch.setattr(pipeline, "run_segmentation_stage",
                        _after(lambda: made[-1].stolen(), pipeline.run_segmentation_stage))
    parent, crops = os.getpid(), optflow._frame_crops

    def broken_in_worker(*args):
        if os.getpid() != parent:
            fault()
        return crops(*args)

    monkeypatch.setattr(optflow, "_frame_crops", broken_in_worker)
    with pytest.raises(pipeline.StageError) as info:
        _pipeline(sess, tmp_path / "o")
    assert info.value.stage == "flow_groups" and len(made[-1].chunks) >= 3
    assert isinstance(info.value.cause, kind) and message in str(info.value.cause)
    _assert_no_child_process()


def test_pipeline_flow_failure_here_while_the_worker_holds_a_block_names_flow(tmp_path, monkeypatch):
    sess = _tiny_session(tmp_path, frames=40)
    made = _claims_made(monkeypatch)
    monkeypatch.setattr(pipeline, "run_segmentation_stage",
                        _after(lambda: made[-1].stolen(), pipeline.run_segmentation_stage))
    parent, crops = os.getpid(), optflow._frame_crops

    def broken_here(*args):
        if os.getpid() == parent:
            raise TypeError("a bug in a chunk this process took")
        _until(lambda: _all_taken(made[-1]))  # the worker holds its block until this process has given up
        return crops(*args)

    monkeypatch.setattr(optflow, "_frame_crops", broken_here)
    with pytest.raises(pipeline.StageError) as info:
        _pipeline(sess, tmp_path / "o")
    assert info.value.stage == "flow_groups" and "this process took" in str(info.value.cause)
    assert (tmp_path / "o" / "rpca_summary.json").exists()  # the worker was reaped after its rpca
    _assert_no_child_process()


def test_pipeline_rpca_bytes_do_not_depend_on_blas_threads(tmp_path, session_400):
    src = str(Path(pipeline.__file__).resolve().parents[1])
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        subprocess.run([sys.executable, "-m", "epkit.cli", "pipeline", "--session", str(session_400),
                        "--config", str(session_400 / "session_config.json"), "--out", str(tmp_path / f"t{threads}")],
                       env=env, check=True, capture_output=True, timeout=300)
    for name in ("low_rank.mat", "sparse.mat", "rpca_summary.json", "strengths.csv", "change_points.json"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "tNone" / name).read_bytes(), name


def _openblas_thread_calls():
    """numpy's OpenBLAS (set, get) thread-count calls, or None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        return lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None


@pytest.mark.skipif(not hasattr(os, "fork") or _openblas_thread_calls() is None,
                    reason="needs os.fork and numpy's OpenBLAS thread-count calls")
def test_pipeline_pins_one_blas_thread_and_gives_the_count_back(tmp_path, monkeypatch):
    set_threads, get_threads = _openblas_thread_calls()
    before = get_threads()
    set_threads(2)  # a count other than the pin's
    seen = []

    def counted(fn):
        def wrapped(*args):
            seen.append(get_threads())
            return fn(*args)
        return wrapped

    try:
        sess = _tiny_session(tmp_path)
        monkeypatch.setattr(pipeline, "run_segmentation_stage", counted(pipeline.run_segmentation_stage))
        assert _pipeline(sess, tmp_path / "ok") == 0
        assert get_threads() == 2
        monkeypatch.setattr(optflow, "group_boxes", counted(_raising(fileio.SchemaError("flow broke"))))
        assert _pipeline(sess, tmp_path / "failed") == 3
        assert get_threads() == 2
        assert seen == [1, 1, 1]  # segmentation, segmentation, flow
    finally:
        set_threads(before)


@pytest.mark.skipif(_openblas_thread_calls() is None, reason="needs numpy's OpenBLAS thread-count calls")
def test_rpca_stage_pins_one_blas_thread_and_gives_the_count_back(tmp_path, monkeypatch):
    set_threads, get_threads = _openblas_thread_calls()
    before = get_threads()
    set_threads(2)  # a count other than the pin's
    seen = []

    def counted(fn):
        def wrapped(*args):
            seen.append(get_threads())
            return fn(*args)
        return wrapped

    try:
        cfg = config.load_config()
        x = synth.gen_lowrank_sparse(40, 30, 3, 0.05, 5.0, seed=11).payload["x"]
        monkeypatch.setattr(rpca, "decompose", counted(rpca.decompose))
        pipeline.run_rpca_stage(x, cfg, str(tmp_path))  # called directly: no worker, no command
        assert get_threads() == 2
        monkeypatch.setattr(rpca, "decompose", counted(_raising(ValueError("rpca broke"))))
        with pytest.raises(ValueError, match="rpca broke"):
            pipeline.run_rpca_stage(x, cfg, str(tmp_path))
        assert get_threads() == 2
        assert seen == [1, 1]
    finally:
        set_threads(before)


def test_pipeline_evaluates_each_frames_rules_once(tmp_path, monkeypatch):
    sess = _tiny_session(tmp_path)
    calls = []
    evaluate = fusion.evaluate_safe_driving

    def counted(pose, hands, cfg):
        calls.append(pose.frame_index)
        return evaluate(pose, hands, cfg)

    monkeypatch.setattr(fusion, "evaluate_safe_driving", counted)
    assert run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
                "--out", tmp_path / "o"]) == 0
    assert calls == list(range(6))


def test_pipeline_frame_count_mismatch_exits_3(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    os.remove(sorted((sess / "frames").iterdir())[-1])
    out = tmp_path / "o"
    assert run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
                "--out", out]) == 3
    err = capsys.readouterr().err
    assert "'load'" in err and "5 frames but 6 detection records" in err
    assert not out.exists()


@pytest.mark.parametrize("pattern, replacement, code", [
    (r'"l_wrist":\[[^,]+', '"l_wrist":[NaN', 2),  # not JSON: exits 2 at the line's byte offset
    (r'"score":[^,}]+', '"score":true', 3),  # JSON, but a bool is not a number: exits 3 at path:line
])
def test_pipeline_non_number_in_detections_exits_before_out(tmp_path, capsys, pattern, replacement, code):
    sess = _tiny_session(tmp_path)
    det = sess / "detections.jsonl"
    lines = det.read_bytes().decode("utf-8").splitlines(keepends=True)
    lines[2] = re.sub(pattern, replacement, lines[2], count=1)
    det.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "o"
    assert run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
                "--out", out]) == code
    err = capsys.readouterr().err
    where = f"byte offset {len(lines[0]) + len(lines[1])}" if code == 2 else "detections.jsonl:3"
    assert "'load'" in err and where in err
    assert not out.exists()


def test_fuse_cmd_segments_of_another_length_exit_3_before_out(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    segments = tmp_path / "segments.json"
    fileio.write_json(segments, {"change_points": [], "group_ids": [0, 0]})
    out = tmp_path / "o"
    assert run(["fuse", "--detections", sess / "detections.jsonl", "--segments", segments,
                "--config", sess / "session_config.json", "--out", out]) == 3
    assert f"{segments}: 2 group ids for 6 frames" in capsys.readouterr().err
    assert not out.exists()


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
    bundle = synth.gen_driver_session([("safe_driving", 3)], seed=1)
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
    {"group_threshold": 1.0},
    {"merge_threshold": -1.5},
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


@pytest.mark.parametrize("section, setting, message", [
    ("rpca", {"tolerance": 0}, "tolerance"),
    ("gfl", {"order": 0}, "order"),
    ("fusion", {"hand_score_strict": 0.1}, "hand_score_strict"),
    ("episode_rules", {"rules": [{"label": "x", "predicate": "nope"}]}, "unknown predicate 'nope'"),
    ("episode_rules", {"rules": [{"label": "x", "predicate": "phone_at_head", "params": 5}]},
     "params an object"),
    ("episode_rules", {"rules": [{"label": ["x"], "predicate": "phone_at_head"}]}, "label must be a string"),
    ("gfl", 3, "'gfl' must hold an object"),
    ("gfl", {"min_gap": 0}, "min_gap"),
    ("gfl", {"threshold": -1}, "threshold"),
    ("gfl", {"threshold_fraction": -0.1}, "threshold_fraction"),
    ("rpca", {"warn_factor": "x"}, "warn_factor"),
    ("flow", {"group_threshold": "a"}, "group_threshold"),
    ("downscale_limit", 0, "downscale_limit"),
    ("fusion", {"consistency_frames": 0}, "consistency_frames"),
    ("episode_rules", {"rules": [{"label": "x", "predicate": "phone_at_head", "with_side": "no"}]},
     "with_side"),
    ("rpca", {"max_iterations": 2.5}, "rpca.max_iterations must be an integer"),
    ("rpca", {"max_iterations": True}, "rpca.max_iterations must be an integer"),
    ("gfl", {"order": 1.5}, "gfl.order must be an integer"),
    ("flow", {"gap_max": 1.5}, "flow.gap_max must be an integer"),
    ("flow", {"window": 9.0}, "flow.window must be an integer"),
    ("episode_rules", {"rules": [{"label": "x", "predicate": "phone_at_head",
                                  "params": {"head_raduis": 0.5}}]}, "head_raduis"),
    ("episode_rules", {"rules": [{"label": "x", "predicate": "phone_at_head",
                                  "params": {"head_radius": "x"}}]}, "'head_radius' must be a number"),
    ("episode_rules", {"rules": [{"label": "x", "predicate": "offwheel_wrist_in_region",
                                  "params": {"region": [0.1, 0.2]}}]}, "'region' must be [x0, y0, x1, y1]"),
    ("rpca", {"lambda": "x"}, "rpca.lambda must be a number"),
    ("rpca", {"lambda": True}, "rpca.lambda must be a number"),
    ("rpca", {"penalty_cap": "x"}, "rpca.penalty_cap must be a number"),
    ("flow", {"eigen_floor": False}, "flow.eigen_floor must be a number"),
    ("fusion", {"consistency_frames": 2.5}, "fusion.consistency_frames must be an integer"),
    ("episode_rules", {"bogus": 1}, "'bogus'"),  # beside the session's own "rules"
    ("episode_rules", {"default": []}, "'default'"),
    ("fusion", {"pose_score_min": 2.0}, "fusion.pose_score_min must be at most 1.0, got 2.0"),
    ("fusion", {"hand_score_min": -0.1}, "fusion.hand_score_min must be at least 0.0, got -0.1"),
    ("fusion", {"hand_score_strict": 1.5}, "fusion.hand_score_strict must be at most 1.0, got 1.5"),
    ("fusion", {"wrist_edge_dist_max": -0.01}, "fusion.wrist_edge_dist_max must be at least 0.0, got -0.01"),
    ("fusion", {"wrist_edge_dist_strict": -0.01}, "fusion.wrist_edge_dist_strict must be at least 0.0, got -0.01"),
    ("fusion", {"elbow_angle_max_deg": -5}, "fusion.elbow_angle_max_deg must be at least 0.0, got -5"),
    ("rpca", {"warn_factor": -1}, "rpca.warn_factor must be at least 0.0, got -1"),
])
def test_pipeline_bad_setting_exits_4_before_any_stage(tmp_path, capsys, section, setting, message):
    sess = _tiny_session(tmp_path)
    cfg = fileio.read_json(sess / "session_config.json")
    cfg[section] = {**cfg.get(section, {}), **setting} if isinstance(setting, dict) else setting
    fileio.write_json(tmp_path / "c.json", cfg)
    out = tmp_path / "o"
    assert run(["pipeline", "--session", sess, "--config", tmp_path / "c.json", "--out", out]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()  # failed at config load, before the rpca stage


def test_pipeline_frames_of_two_shapes_exit_3_before_any_output(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    odd = sess / "frames" / "frame_00003.pgm"
    fileio.write_pgm(odd, fileio.read_pgm(odd).T)
    out = tmp_path / "o"
    assert run(["pipeline", "--session", sess, "--config", sess / "session_config.json",
                "--out", out]) == 3
    assert "frame_00003.pgm" in capsys.readouterr().err
    assert not out.exists()


def test_synth_driver_session_leaves_default_rules_alone(tmp_path, monkeypatch):
    # a session whose radio region and chest line differ from the built-in rules
    monkeypatch.setattr(synth, "RADIO_REGION", (0.1, 0.1, 0.3, 0.3))
    monkeypatch.setattr(synth, "CHEST_LINE", 0.6)
    before = copy.deepcopy(fusion.DEFAULT_EPISODE_RULES)
    sess = _tiny_session(tmp_path)
    assert fusion.DEFAULT_EPISODE_RULES == before
    rules = config.load_config(str(sess / "session_config.json")).episode_rules.rules
    assert [r.params for r in rules if r.params] == [{"chest_line": 0.6}, {"region": [0.1, 0.1, 0.3, 0.3]}]


@pytest.mark.parametrize("generator, params, message", [
    ("lowrank_sparse", {"rank": 500}, "rank 500"),
    ("driver_session", {"episode_schedule": [["bogus", 3]]}, "'bogus'"),
    ("driver_session", {"episode_schedule": [["safe_driving", 3]], "render": "no"}, "render must be true or false"),
    ("driver_session", {"episode_schedule": [["safe_driving", 3]], "render": 1}, "render must be true or false"),
    ("lowrank_sparse", {"d": 0, "rank": 0}, "d and t must be at least 1, got d=0, t=200"),
    ("lowrank_sparse", {"t": 0, "rank": 0}, "d and t must be at least 1, got d=200, t=0"),
    ("piecewise", {"d": 0}, "d and t must be at least 1, got d=0, t=240"),
    ("piecewise", {"t": 0, "change_points": []}, "d and t must be at least 1, got d=8, t=0"),
    ("driver_session", {"episode_schedule": [["safe_driving", 3]], "frame_width": 0}, "got 0x72, 10.0"),
    ("driver_session", {"episode_schedule": [["safe_driving", 3]], "frame_height": 0}, "got 96x0, 10.0"),
    ("driver_session", {"episode_schedule": [["safe_driving", 3]], "frame_width": -5}, "got -5x72, 10.0"),
    ("driver_session", {"episode_schedule": [["safe_driving", 3]], "frame_rate": 0.0}, "got 96x72, 0.0"),
    ("driver_session", {"episode_schedule": [["safe_driving", 3]], "frame_rate": -2.5}, "got 96x72, -2.5"),
])
def test_synth_bad_params_exit_4(tmp_path, capsys, generator, params, message):
    assert run(["synth", "--generator", generator, "--params", json.dumps(params),
                "--out", tmp_path / "o"]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # created only once the generator accepts its parameters


@pytest.mark.parametrize("params, message", [("{", "--params is not valid JSON"),
                                             ("[1]", "--params must hold a JSON object")])
def test_synth_params_not_a_json_object_exit_4(tmp_path, capsys, params, message):
    assert run(["synth", "--generator", "driver_session", "--params", params, "--out", tmp_path / "o"]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content, message", [
    (None, "bad config file"),
    ("{not json", "bad config file"),
    ('{"flow": {"windw": 9}}', "unknown config key flow.'windw'"),
])
def test_bad_config_file_exits_4(tmp_path, capsys, content, message):
    sess = _tiny_session(tmp_path)
    path = tmp_path / "c.json"
    if content is not None:  # None: the file does not exist
        path.write_text(content)
    assert run(["segment", "--detections", sess / "detections.jsonl", "--config", path, "--out", tmp_path / "o"]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("generator, params, message", [
    ("lowrank_sparse", {"magnitude": 1e999, "d": 6, "t": 5, "rank": 1}, "magnitude must be finite"),
    ("lowrank_sparse", {"d": 6.0}, "d must be an integer"),
    ("piecewise", {"change_points": [1e999]}, "change_points must be an integer"),
    ("driver_session", {"side_flip_fraction": float("nan")}, "side_flip_fraction must be finite"),
    ("driver_session", {"episode_schedule": [["safe_driving", 1e999]]}, "episode duration must be an integer"),
    ("piecewise", {"change_points": [40.7, "90"]}, "change_points must be an integer, got 40.7"),
    ("driver_session", {"episode_schedule": [["safe_driving", 2.5]]}, "episode duration must be an integer"),
    ("driver_session", {"episode_schedule": [["drinking", "3"]]}, "episode duration must be an integer, got '3'"),
    ("driver_session", {"episode_schedule": [["texting_left", True]]}, "episode duration must be an integer, got True"),
])
def test_synth_params_are_checked_before_any_generator_runs(tmp_path, capsys, generator, params, message):
    assert run(["synth", "--generator", generator, "--params", json.dumps(params),
                "--out", tmp_path / "o"]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("render", [True, False])
def test_synth_driver_session_render_flag(tmp_path, render):
    params = {"episode_schedule": [["safe_driving", 3]], "render": render}
    assert run(["synth", "--generator", "driver_session", "--params", json.dumps(params),
                "--out", tmp_path / "o"]) == 0
    assert (tmp_path / "o" / "detections.jsonl").exists()
    assert (tmp_path / "o" / "frames").is_dir() == render


def test_synth_writer_failure_is_a_traceback(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "write_json", _raising(ValueError("a bug in a writer")))
    with pytest.raises(ValueError, match="a bug in a writer"):
        run(["synth", "--generator", "lowrank_sparse", "--params", '{"d": 6, "t": 5, "rank": 1}',
             "--out", tmp_path / "o"])


_NAMES = sorted({"rpca", "gfl", "flow", "fusion", "episode_rules", "downscale_limit", "rules", "label",
                 "predicate", "params", "with_side", "lambda", "wheel_region", "threshold", "region",
                 "object_labels", "head_radius", "chest_line", *fusion.PREDICATES,
                 *(f.name for cls in config.SECTIONS.values() for f in dataclasses.fields(cls))})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.sampled_from(_NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@given(data=_JSON, where=st.sampled_from(["config file", "inline rule table", "rule table file"]))
def test_config_and_rule_tables_raise_only_config_error(tmp_path_factory, data, where):
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    if where == "inline rule table":
        data = {"episode_rules": data}
    elif where == "rule table file":
        path.with_name("rules.json").write_text(json.dumps(data))
        data = {"episode_rules": str(path.with_name("rules.json"))}
    path.write_text(json.dumps(data))
    try:
        config.load_config(str(path))
    except fileio.ConfigError:
        pass


@pytest.mark.parametrize("argv", [
    ["segment", "--min-gap", "-3"],
    ["segment", "--threshold", "-1"],
    ["pipeline", "--downscale", "0"],
    ["segment", "--threshold", "inf"],
])
def test_bad_flag_exits_4_before_any_output(tmp_path, capsys, argv):
    sess = _tiny_session(tmp_path)
    inputs = {"segment": ["--detections", sess / "detections.jsonl"], "pipeline": ["--session", sess]}
    out = tmp_path / "o"
    assert run(argv + inputs[argv[0]] + ["--config", sess / "session_config.json", "--out", out]) == 4
    assert argv[1].lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, literal", [
    ("gfl", "lambda", "NaN"),
    ("fusion", "frame_rate", "NaN"),
    ("rpca", "lambda", "Infinity"),
    ("flow", "merge_threshold", "-Infinity"),
    ("rpca", "tolerance", "1e999"),
    pytest.param("fusion", "frame_rate", "1" + "0" * 400, id="fusion-frame_rate-10**400"),  # beyond the float range
])
def test_pipeline_non_finite_setting_exits_4_before_any_stage(tmp_path, capsys, section, key, literal):
    sess = _tiny_session(tmp_path)
    cfg = fileio.read_json(sess / "session_config.json")
    cfg.setdefault(section, {})[key] = "@"  # a placeholder for a literal json reads as a float
    (tmp_path / "c.json").write_text(json.dumps(cfg).replace('"@"', literal))
    out = tmp_path / "o"
    assert run(["pipeline", "--session", sess, "--config", tmp_path / "c.json", "--out", out]) == 4
    assert f"{section}.{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rpca_non_finite_lambda_flag_exits_4_before_out(tmp_path, capsys, value):
    xpath = tmp_path / "x.mat"
    fileio.write_matrix(xpath, synth.gen_lowrank_sparse(40, 30, 3, 0.05, 5.0, seed=11).payload["x"])
    out = tmp_path / "out"
    assert run(["rpca", "--input", xpath, f"--lambda={value}", "--out", out]) == 4
    assert "rpca.lambda must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["1e999", "[0.5, 1e999]"])
def test_infinite_threshold_in_config_exits_4_before_out(tmp_path, capsys, threshold):
    sess = _tiny_session(tmp_path)
    (tmp_path / "c.json").write_text('{"gfl": {"threshold": %s}}' % threshold)
    out = tmp_path / "o"
    assert run(["segment", "--detections", sess / "detections.jsonl", "--config", tmp_path / "c.json",
                "--out", out]) == 4
    assert "threshold must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_fusion_section_is_checked_without_a_wheel_region(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    fileio.write_json(tmp_path / "c.json", {"fusion": {"frame_rate": -1}})
    out = tmp_path / "o"
    assert run(["segment", "--detections", sess / "detections.jsonl", "--config", tmp_path / "c.json",
                "--out", out]) == 4
    assert "fusion.frame_rate must be above 0.0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_lambda_flag_sets_only_its_own_subcommands_key(tmp_path):
    def loaded(argv):
        return cli._load_cfg(cli.build_parser().parse_args(argv + ["--out", str(tmp_path / "unused")]))

    rpca_cfg = loaded(["rpca", "--input", "x.mat", "--lambda", "0.5"])
    assert rpca_cfg.rpca.lam == 0.5 and rpca_cfg.gfl.lam == gflasso.GflConfig().lam
    segment_cfg = loaded(["segment", "--detections", "d.jsonl", "--lambda", "0"])
    assert segment_cfg.gfl.lam == 0 and segment_cfg.rpca.lam is None
    sess = _tiny_session(tmp_path)
    assert run(["segment", "--detections", sess / "detections.jsonl", "--lambda", "0",
                "--out", tmp_path / "o"]) == 0  # gfl.lambda = 0 is valid; rpca.lambda = 0 is not


@pytest.mark.parametrize("command", ["fuse", "pipeline"])
def test_missing_wheel_region_exits_4_before_any_output(tmp_path, capsys, command):
    sess = _tiny_session(tmp_path)
    cfg = fileio.read_json(sess / "session_config.json")
    del cfg["fusion"]["wheel_region"]
    fileio.write_json(tmp_path / "c.json", cfg)
    inputs = {"fuse": ["--detections", sess / "detections.jsonl"], "pipeline": ["--session", sess]}
    out = tmp_path / "o"
    assert run([command] + inputs[command] + ["--config", tmp_path / "c.json", "--out", out]) == 4
    assert "wheel_region" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_builds_each_config_section_once(tmp_path, monkeypatch):
    sess = _tiny_session(tmp_path)
    cfg = fileio.read_json(sess / "session_config.json")
    rules = tmp_path / "rules.json"
    fileio.write_json(rules, cfg["episode_rules"])
    cfg["episode_rules"] = str(rules)
    fileio.write_json(tmp_path / "c.json", cfg)
    built = []
    for cls in (rpca.RpcaConfig, gflasso.GflConfig, optflow.FlowConfig, fusion.FusionConfig):
        def counted(self, check=cls.__post_init__):
            built.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    opened = []
    real_open = builtins.open

    def counted_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted_open)
    assert run(["pipeline", "--session", sess, "--config", tmp_path / "c.json",
                "--out", tmp_path / "o"]) == 0
    assert sorted(built) == ["FlowConfig", "FusionConfig", "GflConfig", "RpcaConfig"]
    assert opened.count(str(rules)) == 1


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "c.json"
    path.write_text(example, encoding="utf-8")
    cfg = config.load_config(str(path))
    assert cfg.fusion is not None and cfg.gfl.min_gap == json.loads(example)["gfl"]["min_gap"]


def test_readme_predicate_parameters_match_the_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Predicate | Parameter | Default | Meaning |\n|---|---|---|---|\n", 1)[1]
    documented = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        predicate, name, default = (c.strip().strip("`") for c in row.strip("|").split("|")[:3])
        documented[predicate, name] = json.loads(default)
    declared = {
        (predicate, p.name): list(p.default) if isinstance(p.default, tuple) else p.default
        for predicate, fn in fusion.PREDICATES.items()
        for p in list(inspect.signature(fn).parameters.values())[1:]
    }
    assert documented == declared


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
def test_pipeline_reports_solver_non_convergence(tmp_path, capsys, override, warnings):
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
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warnings)


@pytest.mark.parametrize("command, stage", [("rpca", "rpca"), ("segment", "segmentation"), ("fuse", "segmentation")])
def test_subcommands_report_solver_non_convergence_on_stderr(tmp_path, capsys, command, stage):
    sess = _tiny_session(tmp_path, frames=12)
    cfg = fileio.read_json(sess / "session_config.json")
    fileio.write_json(tmp_path / "c.json", {**cfg, "rpca": {"max_iterations": 1}, "gfl": {"max_iterations": 1}})
    inputs = ["--input", sess / "frames"] if command == "rpca" else ["--detections", sess / "detections.jsonl"]
    assert run([command, *inputs, "--config", sess / "session_config.json", "--out", tmp_path / "converged"]) == 0
    assert capsys.readouterr().err == ""
    assert run([command, *inputs, "--config", tmp_path / "c.json", "--out", tmp_path / "stopped"]) == 0
    assert capsys.readouterr().err == f"warning: {stage} did not converge in 1 iterations\n"
    assert sorted(os.listdir(tmp_path / "stopped")) == sorted(os.listdir(tmp_path / "converged"))


def test_rpca_cmd_summary_matches_pipeline_stage(tmp_path, monkeypatch, session_400):
    config = session_400 / "session_config.json"
    assert _pipeline(session_400, tmp_path / "p") == 0
    monkeypatch.setattr(os, "fork", _raising(AssertionError("epkit rpca forked")))  # it runs in-process
    assert run(["rpca", "--input", session_400 / "frames", "--config", config, "--out", tmp_path / "r"]) == 0
    names = sorted(os.listdir(tmp_path / "r"))
    assert names == ["low_rank.mat", "outlier_energy.csv", "rpca_summary.json", "sparse.mat"]
    _match, mismatch, errors = filecmp.cmpfiles(tmp_path / "p", tmp_path / "r", names, shallow=False)
    assert mismatch == [] and errors == []
    assert "rank" in fileio.read_json(tmp_path / "r" / "rpca_summary.json")
    _assert_no_child_process()


def test_exit_codes_map_only_the_typed_errors():
    assert cli.EXIT_CODES == ((fileio.ConfigError, 4), (fileio.InputFormatError, 2), (fileio.SchemaError, 3))


@pytest.mark.parametrize("stage, module, name", [
    ("rpca", rpca, "decompose"),
    ("segmentation", gflasso, "solve"),
    ("flow_groups", optflow, "group_boxes"),
    ("fusion", fusion, "evaluate_safe_driving"),
    ("episodes", fusion, "classify_episode"),
])
def test_value_error_in_any_stage_propagates_as_its_stage_error(tmp_path, monkeypatch, stage, module, name):
    sess = _tiny_session(tmp_path)
    monkeypatch.setattr(module, name, _raising(ValueError("a bug, not bad input")))
    with pytest.raises(pipeline.StageError) as info:
        _pipeline(sess, tmp_path / "o")
    assert info.value.stage == stage
    assert isinstance(info.value.cause, ValueError)
    _assert_no_child_process()


@pytest.mark.parametrize("which", ["segment --detections", "rpca --input", "fuse --segments", "pipeline --session"])
def test_missing_input_file_exits_2_before_out(tmp_path, capsys, which):
    sess = _tiny_session(tmp_path)
    det, cfg, missing = sess / "detections.jsonl", sess / "session_config.json", tmp_path / "missing"
    if which == "pipeline --session":
        os.remove(det)
    argv = {
        "segment --detections": ["segment", "--detections", missing],
        "rpca --input": ["rpca", "--input", missing],
        "fuse --segments": ["fuse", "--detections", det, "--segments", missing, "--config", cfg],
        "pipeline --session": ["pipeline", "--session", sess, "--config", cfg],
    }[which]
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 2
    assert ": cannot read: No such file or directory" in capsys.readouterr().err
    assert not out.exists()


def test_missing_rule_table_file_exits_4_naming_it(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    cfg = fileio.read_json(sess / "session_config.json")
    cfg["episode_rules"] = str(tmp_path / "rules.json")
    fileio.write_json(tmp_path / "c.json", cfg)
    out = tmp_path / "o"
    assert run(["pipeline", "--session", sess, "--config", tmp_path / "c.json", "--out", out]) == 4
    assert f"{tmp_path / 'rules.json'}: cannot read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rpca", "segment", "flow-group", "fuse", "pipeline",
                                     "lowrank_sparse", "piecewise", "shifted_pair", "driver_session"])
def test_out_that_cannot_be_created_exits_2(tmp_path, capsys, command):
    sess = _tiny_session(tmp_path)
    det, cfg = sess / "detections.jsonl", sess / "session_config.json"
    boxes = tmp_path / "boxes.jsonl"
    fileio.write_jsonl(boxes, [{"frame": t, "boxes": []} for t in range(6)])
    out = tmp_path / "a_file"
    out.write_text("")
    argv = {
        "rpca": ["rpca", "--input", sess / "frames"],
        "segment": ["segment", "--detections", det],
        "flow-group": ["flow-group", "--frames", sess / "frames", "--boxes", boxes],
        "fuse": ["fuse", "--detections", det, "--config", cfg],
        "pipeline": ["pipeline", "--session", sess, "--config", cfg],
        "driver_session": ["synth", "--generator", command, "--params", '{"episode_schedule": [["safe_driving", 3]]}'],
    }.get(command, ["synth", "--generator", command])
    assert run(argv + ["--out", out]) == 2
    assert f"{out}: cannot create directory: File exists" in capsys.readouterr().err


def test_fuse_cmd_segments_not_json_exits_2_with_offset(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    segments = tmp_path / "segments.json"
    segments.write_text('{"change_points": [1,')
    out = tmp_path / "o"
    assert run(["fuse", "--detections", sess / "detections.jsonl", "--segments", segments,
                "--config", sess / "session_config.json", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{segments}: bad JSON" in err and "byte offset 21" in err
    assert not out.exists()


def _edit_records(sess, edit):
    det = sess / "detections.jsonl"
    records = fileio.read_jsonl(det)
    edit(records)
    fileio.write_jsonl(det, records)


def _drop_r_wrist(records):
    for rec in records:
        del rec["pose"]["joints"]["r_wrist"]


def _negative_score(records):
    records[2]["pose"]["joints"]["l_wrist"][2] = -0.5


def _l_elbow_scored_once(records):
    for rec in records:
        if rec["frame"] != 3:
            rec["pose"]["joints"]["l_elbow"][2] = 0.0


def _l_elbow_score_squares_to_zero(records):
    for rec in records:
        rec["pose"]["joints"]["l_elbow"][2] = 1e-200


@pytest.mark.parametrize("command, edit, gfl, message", [
    ("segment", list.clear, {}, "pose stream is empty"),
    ("segment", _drop_r_wrist, {}, "joint 'r_wrist' is missing from every frame"),
    ("fuse", _drop_r_wrist, {}, "joint 'r_wrist' is missing from every frame"),
    ("pipeline", _drop_r_wrist, {}, "joint 'r_wrist' is missing from every frame"),
    ("segment", _negative_score, {}, "weights must be non-negative"),
    ("pipeline", None, {"order": 6}, "order 6 must be smaller than T=6"),
    ("fuse", None, {"order": 7}, "order 7 must be smaller than T=6"),
    ("segment", _l_elbow_scored_once, {"order": 2}, "weight row 4 has fewer entries with a positive square (1) than order 2"),
    ("fuse", _l_elbow_scored_once, {"order": 2}, "weight row 4 has fewer entries with a positive square (1) than order 2"),
    ("pipeline", _l_elbow_scored_once, {"order": 2}, "weight row 4 has fewer entries with a positive square (1) than order 2"),
    ("fuse --segments", list.clear, {}, "pose stream is empty"),
    ("segment", _l_elbow_score_squares_to_zero, {}, "weight row 4 has fewer entries with a positive square (0) than order 1"),
])
def test_pose_stream_the_solver_refuses_exits_3_before_out(tmp_path, capsys, command, edit, gfl, message):
    sess = _tiny_session(tmp_path)
    if edit:
        _edit_records(sess, edit)
    cfg = fileio.read_json(sess / "session_config.json")
    cfg["gfl"] = gfl
    fileio.write_json(tmp_path / "c.json", cfg)
    det = sess / "detections.jsonl"
    fileio.write_json(tmp_path / "segments.json", {"change_points": [], "group_ids": []})
    argv = {
        "segment": ["segment", "--detections", det],
        "fuse": ["fuse", "--detections", det],
        "fuse --segments": ["fuse", "--detections", det, "--segments", tmp_path / "segments.json"],
        "pipeline": ["pipeline", "--session", sess],
    }[command]
    out = tmp_path / "o"
    assert run(argv + ["--config", tmp_path / "c.json", "--out", out]) == 3
    assert f"segmentation input: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["segment", "pipeline"])
def test_order_too_high_to_factor_exits_4_naming_gfl_order(tmp_path, capsys, command):
    # every row is scored in all 40 frames, but order 30's Q Q^T is too ill-conditioned to factor
    sess = _tiny_session(tmp_path, frames=40)
    cfg = fileio.read_json(sess / "session_config.json")
    cfg["gfl"] = {"order": 30}
    fileio.write_json(tmp_path / "c.json", cfg)
    argv = {
        "segment": ["segment", "--detections", sess / "detections.jsonl"],
        "pipeline": ["pipeline", "--session", sess],
    }[command]
    assert run(argv + ["--config", tmp_path / "c.json", "--out", tmp_path / "o"]) == 4
    assert "cannot factor the segmentation system at gfl.order 30" in capsys.readouterr().err


def test_hand_box_beyond_the_frame_exits_3_before_out(tmp_path, capsys):
    sess = _tiny_session(tmp_path)

    def widen(records):
        next(r for r in records if r["hands"])["hands"][0]["box"][2] = 1.2

    _edit_records(sess, widen)
    out = tmp_path / "o"
    assert _pipeline(sess, out) == 3
    err = capsys.readouterr().err
    assert "'load'" in err and "exceeds frame bounds" in err
    assert not out.exists()


def test_flow_group_box_beyond_the_frame_exits_3_before_out(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    boxes = tmp_path / "boxes.jsonl"
    # x1 = 1 lies on the frame's edge and is taken; 1.3 lies beyond it
    fileio.write_jsonl(boxes, [{"frame": t, "boxes": [[0.2, 0.2, 1.0 if t else 1.3, 0.7]]} for t in range(6)])
    out = tmp_path / "o"
    assert run(["flow-group", "--frames", sess / "frames", "--boxes", boxes, "--out", out]) == 3
    assert "box 0 of frame 0 " in capsys.readouterr().err
    assert not out.exists()
    fileio.write_jsonl(boxes, [{"frame": t, "boxes": [[0.2, 0.2, 1.0, 1.0]]} for t in range(6)])
    assert run(["flow-group", "--frames", sess / "frames", "--boxes", boxes, "--out", out]) == 0


@pytest.mark.parametrize("entry", [0.0, float("nan"), float("inf")])
def test_rpca_input_zero_or_non_finite_exits_3_before_out(tmp_path, capsys, entry):
    m = np.zeros((4, 5)) if entry == 0.0 else np.ones((4, 5))
    m[1, 2] = entry
    fileio.write_matrix(tmp_path / "x.mat", m)
    out = tmp_path / "o"
    assert run(["rpca", "--input", tmp_path / "x.mat", "--out", out]) == 3
    assert "rpca input 4x5 must be finite and not all zero" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_all_black_frames_exit_3_naming_rpca(tmp_path, capsys):
    sess = _tiny_session(tmp_path)
    for path in (sess / "frames").iterdir():
        fileio.write_pgm(path, np.zeros((72, 96)))
    assert _pipeline(sess, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "'rpca'" in err and "must be finite and not all zero" in err
    _assert_no_child_process()


def test_rule_region_null_loads_and_never_fires(tmp_path):
    sess = tmp_path / "sess"
    assert run(["synth", "--generator", "driver_session", "--seed", "5", "--params",
                json.dumps({"episode_schedule": [["safe_driving", 10], ["operating_radio", 30]]}),
                "--out", sess]) == 0
    cfg = fileio.read_json(sess / "session_config.json")
    radio_votes = []
    for region in ([0.0, 0.0, 1.0, 1.0], None):
        for rule in cfg["episode_rules"]["rules"]:
            if rule["label"] == "operating_radio":
                rule["params"]["region"] = region
        fileio.write_json(tmp_path / "c.json", cfg)
        out = tmp_path / f"o_{region is None}"
        assert run(["fuse", "--detections", sess / "detections.jsonl", "--config", tmp_path / "c.json",
                    "--out", out]) == 0
        radio_votes.append(sum(e["votes"].get("operating_radio", 0) for e in fileio.read_json(out / "episodes.json")))
    assert radio_votes[0] > 0 and radio_votes[1] == 0
