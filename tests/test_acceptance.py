"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here; nothing is deferred.
"""

import filecmp
import json
import os
import time

import numpy as np
import pytest

from epkit import cli, fileio, fusion, gflasso, optflow, rpca, synth
from gfl_reference import oracle_solve


def _report(n, detail):
    print(f"[acceptance] criterion {n}: PASS - {detail}")


# -- criteria 1 and 2: exact recovery and feasibility ------------------------


@pytest.fixture(scope="module")
def recovery_runs():
    runs = []
    for seed in range(20):
        bundle = synth.gen_lowrank_sparse(200, 200, 10, 0.05, 5.0, seed=seed)
        t0 = time.perf_counter()
        result = rpca.decompose(bundle.payload["x"])
        runs.append((bundle, result, time.perf_counter() - t0))
    return runs


def test_criterion_1_rpca_exact_recovery(recovery_runs):
    worst_low = worst_sparse = worst_time = 0.0
    for bundle, result, elapsed in recovery_runs:
        low, sparse = bundle.ground_truth["low_rank"], bundle.ground_truth["sparse"]
        err_low = np.linalg.norm(result.low_rank - low) / np.linalg.norm(low)
        err_sparse = np.linalg.norm(result.sparse - sparse) / np.linalg.norm(sparse)
        assert err_low <= 1e-4, (bundle.seed, err_low)
        assert err_sparse <= 1e-4, (bundle.seed, err_sparse)
        assert elapsed < 10.0, (bundle.seed, elapsed)
        worst_low = max(worst_low, err_low)
        worst_sparse = max(worst_sparse, err_sparse)
        worst_time = max(worst_time, elapsed)
    _report(
        1,
        f"20 seeded 200x200 instances, worst errors low-rank {worst_low:.2e} / "
        f"sparse {worst_sparse:.2e}, slowest solve {worst_time:.2f}s",
    )


def test_criterion_2_rpca_feasibility(recovery_runs):
    worst = 0.0
    for bundle, result, _elapsed in recovery_runs:
        assert result.converged
        x = bundle.payload["x"]
        residual = np.linalg.norm(x - result.low_rank - result.sparse) / np.linalg.norm(x)
        assert residual <= 1e-7, (bundle.seed, residual)
        worst = max(worst, residual)
    _report(2, f"all converged runs feasible, worst relative residual {worst:.2e}")


# -- criterion 3: solver/oracle agreement ------------------------------------


def test_criterion_3_gfl_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        g = synth.rng(1000 + i)
        d, t = int(g.integers(1, 4)), int(g.integers(2, 11))
        x = 2.0 * g.standard_normal((d, t))
        w = g.uniform(0.2, 1.0, size=(d, t))
        p = 1 if t < 4 else int(g.integers(1, 3))
        cfg = gflasso.GflConfig(lam=float(g.uniform(0.05, 2.0)), order=p)
        ra = gflasso.solve(x, w, cfg)
        ro = oracle_solve(x, w, cfg)
        gap = abs(ra.objective - ro.objective) / (1.0 + abs(ro.objective))
        assert gap <= 1e-6, (i, gap)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"50 instances, worst relative objective gap {worst:.2e} in {elapsed:.1f}s")


# -- criterion 4: segmentation of planted change points ----------------------


def test_criterion_4_gfl_segmentation():
    truth = [40, 90, 150, 200]
    for seed in range(10):
        bundle = synth.gen_piecewise(8, 240, truth, 2.0, 0.3, seed=seed)
        res = gflasso.solve(bundle.payload["x"], bundle.payload["w"], gflasso.GflConfig(lam=3.0))
        s = res.jump_strengths
        lab = gflasso.extract_change_points(s, 0.1 * float(s.max()), 5, n_frames=240)
        for c in truth:
            assert any(abs(f - c) <= 2 for f in lab.change_points), (seed, c, lab.change_points)
        spurious = [f for f in lab.change_points if all(abs(f - c) > 2 for c in truth)]
        assert spurious == [], (seed, spurious)
        assert len(lab.change_points) == 4
    _report(4, "10 seeds: all 4 change points within +-2 frames, zero spurious")


# -- criterion 5: threshold nesting ------------------------------------------


def test_criterion_5_threshold_nesting():
    g = synth.rng(555)
    for _ in range(1000):
        s = g.uniform(0.0, 5.0, size=int(g.integers(1, 50)))
        t1 = float(g.uniform(0.0, 5.0))
        t2 = float(g.uniform(0.0, t1)) if t1 > 0 else 0.0
        hi = set(gflasso.extract_change_points(s, t1, 1, s.size + 1).change_points)
        lo = set(gflasso.extract_change_points(s, t2, 1, s.size + 1).change_points)
        assert hi <= lo
    _report(5, "1000 random sequences: higher-threshold sets always nested")


# -- criterion 6: optical flow accuracy --------------------------------------


def test_criterion_6_flow_accuracy():
    fractions = []
    for dx, dy in ((1.0, 0.0), (0.0, 1.0), (0.5, -0.5)):
        bundle = synth.gen_shifted_pair(64, dx, dy, 2.0, seed=42)
        f1, f2 = bundle.payload["frame1"], bundle.payload["frame2"]
        pts = optflow.good_features(f1, 60, 0.05)
        flows = [v for v in optflow.lk_flow(f1, f2, pts) if v.valid]
        assert flows
        errs = [np.hypot(v.displacement[0] - dx, v.displacement[1] - dy) for v in flows]
        frac = float(np.mean([e <= 0.2 for e in errs]))
        assert frac >= 0.9, ((dx, dy), frac)
        fractions.append(frac)
        same = optflow.lk_flow(f1, f1, pts)
        for v in same:
            if v.valid:
                assert v.displacement == (0.0, 0.0)
    _report(6, f"shift recovery fractions {fractions}, identical-frame flow exactly zero")


# -- criterion 7: grouping correctness ---------------------------------------


def _noise_patch(seed, n=20):
    from scipy.ndimage import gaussian_filter

    p = gaussian_filter(synth.rng(seed).standard_normal((n, n)), 1.2)
    span = p.max() - p.min()
    return np.clip(0.15 + 0.7 * (p - p.min()) / (span + 1e-12), 0.0, 1.0)


def test_criterion_7_grouping_correctness():
    # two interleaved objects -> exactly two pure groups
    a, b = _noise_patch(31), _noise_patch(77)
    f = np.full((80, 100), 0.3)
    f[10:30, 10:30] = a
    f[50:70, 70:90] = b
    frames = [f.copy() for _ in range(6)]
    box_a, box_b = (10, 10, 30, 30), (70, 50, 90, 70)
    boxes = [[box_a] if t % 2 == 0 else [box_b] for t in range(6)]
    groups = optflow.group_boxes(frames, boxes, 0.5)
    assert len(groups) == 2
    for grp in groups:
        assert len({t % 2 for t, _i in grp.members}) == 1  # purity 1.0

    # split-then-merge restores a single group
    frames_s = [np.full((60, 80), 0.3) for _ in range(6)]
    for fr in frames_s:
        fr[15:35, 20:40] = a
    boxes_s = [[(20, 15, 40, 35)] for _ in range(6)]
    split = [
        optflow.BoxTrackGroup(0, [(t, 0) for t in range(3)]),
        optflow.BoxTrackGroup(1, [(t, 0) for t in range(3, 6)]),
    ]
    # threshold 2.0 gives singletons, which carry the crop sums the split groups are joined with
    merged = optflow.merge_groups(optflow.group_boxes(frames_s, boxes_s, 2.0) + split, 0.9)
    assert len(merged) == 1

    # partition invariant over 200 randomized scenes
    for seed in range(200):
        g = synth.rng(9000 + seed)
        n_frames = int(g.integers(2, 5))
        patches = [_noise_patch(seed * 3 + k) for k in range(2)]
        scene, scene_boxes = [], []
        for _t in range(n_frames):
            fr = np.full((48, 64), 0.3)
            fb = []
            for patch in patches:
                if g.random() < 0.7:
                    px, py = int(g.integers(2, 40)), int(g.integers(2, 24))
                    fr[py : py + 20, px : px + 20] = patch
                    fb.append((px, py, px + 20, py + 20))
            scene.append(fr)
            scene_boxes.append(fb)
        keys = [(t, i) for t in range(n_frames) for i in range(len(scene_boxes[t]))]
        grouped = optflow.group_boxes(scene, scene_boxes, 0.5)
        members = sorted(m for grp in grouped for m in grp.members)
        assert members == sorted(keys), seed
        merged2 = optflow.merge_groups(grouped, 0.9)
        members2 = sorted(m for grp in merged2 for m in grp.members)
        assert members2 == sorted(keys), seed
    _report(7, "two-object purity 1.0, split restored by merge, 200 partitions clean")


# -- criterion 8: relabeling of injected side flips ---------------------------


def test_criterion_8_side_flip_correction():
    bundle = synth.gen_driver_session(
        [
            ("safe_driving", 100),
            ("texting_left", 100),
            ("drinking", 100),
            ("talking_on_phone_left", 100),
            ("operating_radio", 100),
        ],
        side_flip_fraction=0.10,
        seed=17,
    )
    cfg = fusion.FusionConfig(
        wheel_region=bundle.ground_truth["wheel_region"],
        frame_rate=bundle.ground_truth["frame_rate"],
    )
    flips = bundle.ground_truth["flips"]
    assert flips
    eligible = corrected = 0
    for pose, hands, _objects in bundle.payload["frames"]:
        on_wheel = [
            i
            for i, h in enumerate(hands)
            if h.score >= cfg.hand_score_min
            and fusion.region_contains(cfg.wheel_region, h.center)
        ]
        fixed, _records = fusion.relabel_hands(
            pose, hands, fusion.evaluate_safe_driving(pose, hands, cfg)
        )
        again, more = fusion.relabel_hands(
            pose, fixed, fusion.evaluate_safe_driving(pose, fixed, cfg)
        )
        assert more == [], pose.frame_index  # idempotent on every frame
        if len(on_wheel) != 1:
            continue
        for flip in flips:
            if flip["frame"] == pose.frame_index:
                eligible += 1
                if fixed[flip["hand_index"]].side == flip["true_side"]:
                    corrected += 1
    rate = corrected / eligible
    assert rate >= 0.95, (corrected, eligible)
    _report(8, f"{corrected}/{eligible} eligible flips corrected ({rate:.1%}), relabel idempotent")


# -- criterion 9: rule soundness ----------------------------------------------


def test_criterion_9_rule_soundness():
    g = synth.rng(99)
    wheel = (0.28, 0.58, 0.64, 0.92)
    cfg = fusion.FusionConfig(wheel_region=wheel)
    base = {
        "head": (0.5, 0.2),
        "neck": (0.5, 0.32),
        "l_shoulder": (0.64, 0.38),
        "r_shoulder": (0.36, 0.38),
        "l_elbow": (0.6, 0.56),
        "r_elbow": (0.4, 0.56),
        "l_wrist": (0.54, 0.74),
        "r_wrist": (0.42, 0.74),
    }
    n_records = 0
    for i in range(1000):
        jitter = float(g.uniform(0.0, 0.12))
        joints = {}
        for name, (x, y) in base.items():
            if g.random() < 0.1:
                continue
            joints[name] = (
                float(x + g.normal(0, jitter)),
                float(y + g.normal(0, jitter)),
                float(g.uniform(0.2, 1.0)),
            )
        hands = []
        for _ in range(int(g.integers(0, 4))):
            if g.random() < 0.5 and "l_wrist" in joints:
                cx = joints["l_wrist"][0] + float(g.normal(0, 0.03))
                cy = joints["l_wrist"][1] + float(g.normal(0, 0.03))
            else:
                cx, cy = float(g.uniform(0.1, 0.9)), float(g.uniform(0.1, 0.9))
            hands.append(
                fusion.HandDetection(
                    box=(cx - 0.05, cy - 0.05, cx + 0.05, cy + 0.05),
                    score=float(g.uniform(0.2, 1.0)),
                    side=("left", "right", "unknown")[int(g.integers(0, 3))],
                )
            )
        pose = fusion.PoseFrame(i, joints)
        v = fusion.evaluate_safe_driving(pose, hands, cfg)
        rules = {r.rule: r.passed for r in v.rule_results}
        assert v.safe_driving == all(rules[k] for k in (1, 2, 3, 4, 5)), i
        assert not (v.strict_safe_driving and not v.safe_driving), i
        assert v.on_wheel == [
            j
            for j, h in enumerate(hands)
            if h.score >= cfg.hand_score_min and fusion.region_contains(cfg.wheel_region, h.center)
        ], i
        fixed, records = fusion.relabel_hands(pose, hands, v)
        records += fusion.emit_pose_corrections(records)
        passed = set(v.passed_rules())
        for rec in records:
            n_records += 1
            assert rec.provenance["rules"]
            assert set(rec.provenance["rules"]) <= passed, (i, rec)
    _report(9, f"1000 frames: safe <=> rules 1-5, strict => safe, {n_records} records all traced")


# -- criterion 10: end-to-end pipeline ----------------------------------------


def test_criterion_10_pipeline_end_to_end(tmp_path):
    schedule = [
        ["safe_driving", 300],
        ["texting_left", 300],
        ["drinking", 300],
        ["talking_on_phone_left", 300],
        ["operating_radio", 300],
    ]
    session = tmp_path / "session"
    rc = cli.main(
        [
            "synth",
            "--generator",
            "driver_session",
            "--seed",
            "21",
            "--params",
            json.dumps({"episode_schedule": schedule, "side_flip_fraction": 0.1}),
            "--out",
            str(session),
        ]
    )
    assert rc == 0
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    t0 = time.perf_counter()
    rc = cli.main(
        [
            "pipeline",
            "--session",
            str(session),
            "--config",
            str(session / "session_config.json"),
            "--out",
            str(out_a),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 120.0, elapsed

    report = fileio.read_json(out_a / "report.json")
    truth = fileio.read_json(session / "ground_truth.json")
    true_label = {}
    for ep in truth["schedule"]:
        for f in range(ep["start"], ep["end"]):
            true_label[f] = ep["label"]
    hits = [fr["episode_label"] == true_label[fr["frame"]] for fr in report["frames"]]
    accuracy = float(np.mean(hits))
    assert accuracy >= 0.90, accuracy

    rc = cli.main(
        [
            "pipeline",
            "--session",
            str(session),
            "--config",
            str(session / "session_config.json"),
            "--out",
            str(out_b),
        ]
    )
    assert rc == 0
    mismatches = [
        name
        for name in sorted(os.listdir(out_a))
        if not filecmp.cmp(out_a / name, out_b / name, shallow=False)
    ]
    assert mismatches == []
    _report(
        10,
        f"1500-frame session: accuracy {accuracy:.3f}, run {elapsed:.1f}s, "
        f"{len(os.listdir(out_a))} output files byte-identical across runs",
    )
