import dataclasses
import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epkit import fusion
from epkit.config import Config
from epkit.fileio import ConfigError, canon_dumps
from epkit.fusion import (
    _associate,
    FusionConfig,
    HandDetection,
    ObjectDetection,
    PoseFrame,
    classify_episode,
    edge_distance,
    evaluate_safe_driving,
    emit_pose_corrections,
    region_contains,
    relabel_hands,
    temporal_verdict,
)
from epkit.gflasso import GflConfig, SegmentLabeling
from epkit.optflow import FlowConfig
from epkit.rpca import RpcaConfig
from epkit.synth import SESSION_LABELS, gen_driver_session, rng

WHEEL = (0.28, 0.58, 0.64, 0.92)


def _cfg(**kw):
    return FusionConfig(wheel_region=WHEEL, **kw)


def _joint(x, y, s=0.9):
    return (x, y, s)


def _hand_at(cx, cy, half=0.05, score=0.9, side="unknown"):
    return HandDetection(
        box=(cx - half, cy - half, cx + half, cy + half), score=score, side=side
    )


def _safe_frame(idx=0, l_side="left", r_side="right", scores=0.9):
    """Both hands on the wheel, tight geometry, everything confident."""
    joints = {
        "head": _joint(0.50, 0.20, scores),
        "neck": _joint(0.50, 0.32, scores),
        "l_shoulder": _joint(0.64, 0.38, scores),
        "r_shoulder": _joint(0.36, 0.38, scores),
        "l_elbow": _joint(0.60, 0.56, scores),
        "r_elbow": _joint(0.40, 0.56, scores),
        "l_wrist": _joint(0.54, 0.74, scores),
        "r_wrist": _joint(0.42, 0.74, scores),
    }
    hands = []
    for wrist, elbow, side in (
        ((0.54, 0.74), (0.60, 0.56), l_side),
        ((0.42, 0.74), (0.40, 0.56), r_side),
    ):
        ux, uy = wrist[0] - elbow[0], wrist[1] - elbow[1]
        n = math.hypot(ux, uy)
        cx, cy = wrist[0] + 0.03 * ux / n, wrist[1] + 0.03 * uy / n
        hands.append(_hand_at(cx, cy, score=scores, side=side))
    return PoseFrame(frame_index=idx, joints=joints), hands


def test_region_contains_box_and_polygon():
    assert region_contains(WHEEL, (0.5, 0.7))
    assert not region_contains(WHEEL, (0.5, 0.3))
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert region_contains(tri, (0.2, 0.2))
    assert not region_contains(tri, (0.8, 0.8))
    with pytest.raises(ValueError):
        region_contains([(0.0, 0.0), (1.0, 1.0)], (0.5, 0.5))


def test_edge_distance_inside_and_outside():
    box = (0.2, 0.2, 0.6, 0.6)
    assert edge_distance((0.2, 0.4), box) == 0.0
    assert edge_distance((0.3, 0.4), box) == pytest.approx(0.1 / math.sqrt(2))
    assert edge_distance((0.7, 0.4), box) == pytest.approx(0.1 / math.sqrt(2))
    assert edge_distance((0.7, 0.7), box) == pytest.approx(math.hypot(0.1, 0.1) / math.sqrt(2))


def test_associate_wrist_on_edge_pointing_at_center():
    pose = PoseFrame(
        0,
        {
            "l_wrist": _joint(0.45, 0.50),
            "l_elbow": _joint(0.45, 0.30),
        },
    )
    hands = [_hand_at(0.45, 0.55)]  # wrist exactly on the top edge, arm points down
    out = _associate(pose, hands, _cfg())[1]
    assert len(out) == 1
    assert out[0].wrist == "l_wrist" and out[0].hand_index == 0
    assert out[0].angle_deg == pytest.approx(0.0)


def test_associate_far_wrist_is_unassociated():
    pose = PoseFrame(0, {"l_wrist": _joint(0.1, 0.1), "l_elbow": _joint(0.1, 0.3)})
    hands = [_hand_at(0.5, 0.5)]  # ~0.3 diagonal units away
    assert _associate(pose, hands, _cfg())[1] == []


def test_associate_missing_elbow_waives_angle():
    pose = PoseFrame(0, {"l_wrist": _joint(0.45, 0.50)})
    hands = [_hand_at(0.45, 0.55)]
    out = _associate(pose, hands, _cfg())[1]
    assert len(out) == 1 and out[0].angle_deg is None


def test_associate_crossing_hands_matches_brute_force():
    # wrists near mid-frame, each box reachable only along its own arm direction
    pose = PoseFrame(
        0,
        {
            "l_wrist": _joint(0.52, 0.50),
            "l_elbow": _joint(0.70, 0.50),
            "r_wrist": _joint(0.48, 0.50),
            "r_elbow": _joint(0.30, 0.50),
        },
    )
    hands = [_hand_at(0.44, 0.50), _hand_at(0.56, 0.50)]
    cfg = _cfg()

    def pair_ok(wrist, elbow, hand):
        d = edge_distance(wrist, hand.box)
        if d > cfg.wrist_edge_dist_max:
            return False
        cx, cy = hand.center
        u = (wrist[0] - elbow[0], wrist[1] - elbow[1])
        v = (cx - wrist[0], cy - wrist[1])
        dot = u[0] * v[0] + u[1] * v[1]
        ang = math.degrees(
            math.acos(
                max(-1, min(1, dot / (math.hypot(*u) * math.hypot(*v))))
            )
        )
        return ang <= cfg.elbow_angle_max_deg

    wrists = {
        "l_wrist": ((0.52, 0.50), (0.70, 0.50)),
        "r_wrist": ((0.48, 0.50), (0.30, 0.50)),
    }
    valid = [
        assign
        for assign in itertools.permutations(range(2))
        if all(
            pair_ok(*wrists[w], hands[b])
            for w, b in zip(("l_wrist", "r_wrist"), assign)
        )
    ]
    assert len(valid) == 1  # exactly one geometrically consistent assignment
    expected = dict(zip(("l_wrist", "r_wrist"), valid[0]))
    got = {a.wrist: a.hand_index for a in _associate(pose, hands, cfg)[1]}
    assert got == expected


def test_evaluate_safe_driving_all_rules_pass():
    pose, hands = _safe_frame()
    v = evaluate_safe_driving(pose, hands, _cfg())
    assert v.safe_driving and v.strict_safe_driving
    assert [r.rule for r in v.rule_results] == [1, 2, 3, 4, 5, 6, 7]
    assert all(r.passed for r in v.rule_results)
    assert set(v.associations) == {"l_wrist", "r_wrist"}


def test_evaluate_no_hands():
    pose, _ = _safe_frame()
    v = evaluate_safe_driving(pose, [], _cfg())
    assert not v.safe_driving
    for r in v.rule_results[1:]:
        assert not r.passed
    assert any("rule 2" in n for n in v.notes)


def test_evaluate_one_hand_off_wheel_fails_rule_5():
    pose, hands = _safe_frame()
    joints = dict(pose.joints)
    joints["l_wrist"] = _joint(0.60, 0.22)
    joints["l_elbow"] = _joint(0.66, 0.34)
    pose = PoseFrame(0, joints)
    hands = [_hand_at(0.585, 0.215), hands[1]]  # left hand near the head
    v = evaluate_safe_driving(pose, hands, _cfg())
    rules = {r.rule: r.passed for r in v.rule_results}
    assert rules[3] and rules[4]
    assert not rules[5]
    assert not v.safe_driving


def test_relabel_corrects_onwheel_hand_side():
    pose, hands = _safe_frame(l_side="right", r_side="right")
    # keep only the left-wrist hand so exactly one scored hand is on the wheel
    hands = [hands[0], replace(hands[1], score=0.1)]
    corrected, records = relabel_hands(pose, hands, evaluate_safe_driving(pose, hands, _cfg()))
    assert corrected[0].side == "left"
    assert len(records) == 1
    assert records[0].kind == "hand_side_label"
    assert records[0].payload["old_side"] == "right"


def test_relabel_flips_offwheel_duplicate_side():
    # one hand on the wheel at the right wrist, the other raised, both say right
    joints = {
        "head": _joint(0.50, 0.20),
        "neck": _joint(0.50, 0.32),
        "l_shoulder": _joint(0.64, 0.38),
        "r_shoulder": _joint(0.36, 0.38),
        "r_elbow": _joint(0.40, 0.56),
        "r_wrist": _joint(0.42, 0.74),
        "l_elbow": _joint(0.64, 0.50),
        "l_wrist": _joint(0.66, 0.34),
    }
    pose = PoseFrame(0, joints)
    on_wheel = _hand_at(0.4211, 0.7599, side="right")
    raised = _hand_at(0.6637, 0.3102, side="right")
    hands = [on_wheel, raised]
    corrected, records = relabel_hands(pose, hands, evaluate_safe_driving(pose, hands, _cfg()))
    assert corrected[0].side == "right"  # matches its wrist already
    assert corrected[1].side == "left"  # flipped away from the on-wheel side
    assert len(records) == 1
    assert records[0].payload == {
        "hand_index": 1,
        "box": list(raised.box),
        "old_side": "right",
        "new_side": "left",
        "reason": "only one hand can match the on-wheel side",
    }


def test_relabel_consistent_labels_is_noop_and_idempotent():
    pose, hands = _safe_frame()
    hands = [hands[0], replace(hands[1], score=0.1)]
    corrected, records = relabel_hands(pose, hands, evaluate_safe_driving(pose, hands, _cfg()))
    assert records == []
    assert [h.side for h in corrected] == [h.side for h in hands]
    twice, records2 = relabel_hands(pose, corrected, evaluate_safe_driving(pose, corrected, _cfg()))
    assert records2 == []


def test_relabel_skips_when_both_hands_on_wheel():
    pose, hands = _safe_frame(l_side="right", r_side="right")
    v = evaluate_safe_driving(pose, hands, _cfg())
    corrected, records = relabel_hands(pose, hands, v)
    assert records == []
    assert any("relabel skipped" in n for n in v.notes)


def test_pose_corrections_one_per_relabel():
    pose, hands = _safe_frame(l_side="right", r_side="right")
    hands = [hands[0], replace(hands[1], score=0.1)]
    corrected, records = relabel_hands(pose, hands, evaluate_safe_driving(pose, hands, _cfg()))
    out = emit_pose_corrections(records)
    assert len(out) == 1
    rec = out[0]
    assert rec.kind == "pose_correction"
    assert rec.payload["joint"] == "l_wrist"
    assert rec.payload["x"] == pytest.approx(corrected[0].center[0])
    assert rec.provenance == records[0].provenance
    assert emit_pose_corrections([]) == []


def _verdict(idx, safe):
    return fusion.RuleVerdict(
        frame_index=idx,
        rule_results=[],
        safe_driving=safe,
        strict_safe_driving=False,
        associations={},
    )


def test_temporal_all_true_after_warmup():
    cfg = _cfg(consistency_frames=3)
    out = temporal_verdict([_verdict(i, True) for i in range(6)], cfg)
    assert [v.stabilized_safe_driving for v in out] == [False, False, True, True, True, True]


def test_temporal_single_spike_suppressed():
    cfg = _cfg(consistency_frames=2)
    raw = [False, True, False, False]
    out = temporal_verdict([_verdict(i, s) for i, s in enumerate(raw)], cfg)
    assert all(v.stabilized_safe_driving is False for v in out)


def test_temporal_alternating_suppressed():
    cfg = _cfg(consistency_frames=2)
    raw = [True, False] * 4
    out = temporal_verdict([_verdict(i, s) for i, s in enumerate(raw)], cfg)
    assert all(v.stabilized_safe_driving is False for v in out)


def test_temporal_never_true_on_raw_false():
    g = rng(123)
    cfg = _cfg(consistency_frames=4)
    raw = [bool(g.random() < 0.7) for _ in range(200)]
    out = temporal_verdict([_verdict(i, s) for i, s in enumerate(raw)], cfg)
    for v, s in zip(out, raw):
        assert not (v.stabilized_safe_driving and not s)


def _segment_frames(kind, n=6):
    frames = []
    for i in range(n):
        if kind == "safe":
            pose, hands = _safe_frame(idx=i)
            objects = []
        else:
            joints = {
                "head": _joint(0.50, 0.20),
                "neck": _joint(0.50, 0.32),
                "l_shoulder": _joint(0.64, 0.38),
                "r_shoulder": _joint(0.36, 0.38),
                "r_elbow": _joint(0.40, 0.56),
                "r_wrist": _joint(0.42, 0.74),
                "l_elbow": _joint(0.64, 0.50),
                "l_wrist": _joint(0.66, 0.34),
            }
            pose = PoseFrame(i, joints)
            hands = [_hand_at(0.4211, 0.7599, side="right"), _hand_at(0.6637, 0.3102, side="left")]
            objects = [ObjectDetection(label="cup", box=(0.63, 0.27, 0.70, 0.37), score=0.9)]
        frames.append((pose, hands, objects))
    return frames


def _verdicts(frames):
    return [evaluate_safe_driving(pose, hands, _cfg()) for pose, hands, _objects in frames]


def test_classify_episode_drinking_and_safe():
    frames = _segment_frames("drinking", 5) + _segment_frames("safe", 5)
    seg = SegmentLabeling(change_points=[4], n_frames=10)
    table = fusion.DEFAULT_EPISODE_RULES
    out = classify_episode(frames, _verdicts(frames), seg, table)
    assert [e.label for e in out] == ["drinking", "safe_driving"]
    assert out[0].votes["drinking"] == 5


def test_classify_episode_tie_is_unknown_with_note():
    # alternate frames where only the texting predicate fires with ones where
    # only the phone-at-head predicate fires: equal votes, ambiguous segment
    frames = []
    for i in range(6):
        joints = {
            "head": _joint(0.50, 0.20),
            "neck": _joint(0.50, 0.32),
            "l_shoulder": _joint(0.64, 0.38),
            "r_shoulder": _joint(0.36, 0.38),
            "r_elbow": _joint(0.40, 0.56),
            "r_wrist": _joint(0.42, 0.74),
            "l_elbow": _joint(0.70, 0.56) if i % 2 == 0 else _joint(0.66, 0.34),
            "l_wrist": _joint(0.78, 0.74) if i % 2 == 0 else _joint(0.60, 0.22),
        }
        pose = PoseFrame(i, joints)
        if i % 2 == 0:
            hand = _hand_at(0.792, 0.767, side="left")
            phone = ObjectDetection("cell phone", (0.76, 0.72, 0.82, 0.80), 0.9)
        else:
            hand = _hand_at(0.5866, 0.1932, side="left")
            phone = ObjectDetection("cell phone", (0.56, 0.15, 0.62, 0.23), 0.9)
        frames.append((pose, [_hand_at(0.4211, 0.7599, side="right"), hand], [phone]))
    seg = SegmentLabeling(change_points=[], n_frames=6)
    out = classify_episode(frames, _verdicts(frames), seg, fusion.DEFAULT_EPISODE_RULES)
    assert out[0].label == "unknown"
    assert out[0].notes and "ambiguous" in out[0].notes[0]
    assert out[0].votes["texting_left"] == out[0].votes["talking_on_phone_left"] == 3


def test_classify_episode_empty_segment_unknown():
    frames = [( PoseFrame(0, {}), [], [] )]
    seg = SegmentLabeling(change_points=[], n_frames=1)
    out = classify_episode(frames, _verdicts(frames), seg, fusion.DEFAULT_EPISODE_RULES)
    assert out[0].label == "unknown"


def test_classify_episode_validates_coverage():
    frames = _segment_frames("safe", 3)
    seg = SegmentLabeling(change_points=[], n_frames=2)
    with pytest.raises(ValueError):
        classify_episode(frames, _verdicts(frames), seg, fusion.DEFAULT_EPISODE_RULES)


def test_classify_episode_validates_verdict_count():
    frames = _segment_frames("safe", 3)
    seg = SegmentLabeling(change_points=[], n_frames=3)
    with pytest.raises(ValueError, match="2 verdicts"):
        classify_episode(frames, _verdicts(frames)[:2], seg, fusion.DEFAULT_EPISODE_RULES)


def test_offwheel_wrist_in_region_fires_for_a_wrist_without_a_hand_box():
    pose, hands = _safe_frame()
    hands = hands[1:]  # the right hand, on the wheel; no box near the left wrist
    region = [0.66, 0.5, 0.86, 0.68]
    for score, fired in ((0.9, "left"), (0.0, None)):
        joints = {**pose.joints, "l_elbow": _joint(0.70, 0.52), "l_wrist": _joint(0.76, 0.59, score)}
        at_radio = PoseFrame(0, joints)
        verdict = evaluate_safe_driving(at_radio, hands, _cfg())
        assert "l_wrist" not in verdict.associations
        ctx = fusion._FrameContext(at_radio, hands, [], verdict)
        assert fusion.PREDICATES["offwheel_wrist_in_region"](ctx, region=region) == fired


def test_phone_at_offwheel_wrist_skips_other_objects():
    pose, hands = _safe_frame()
    texting = PoseFrame(0, {**pose.joints, "l_elbow": _joint(0.70, 0.56), "l_wrist": _joint(0.78, 0.74)})
    hands = [_hand_at(0.792, 0.767, side="left"), hands[1]]
    verdict = evaluate_safe_driving(texting, hands, _cfg())
    box = (0.76, 0.72, 0.82, 0.80)
    cup, phone = ObjectDetection("cup", box, 0.9), ObjectDetection("cell phone", box, 0.9)
    predicate = fusion.PREDICATES["phone_at_offwheel_wrist"]
    assert predicate(fusion._FrameContext(texting, hands, [cup], verdict)) is None
    assert predicate(fusion._FrameContext(texting, hands, [cup, phone], verdict)) == "left"


def test_rule_table_rejects_unknown_predicate():
    table = dataclasses.asdict(fusion.DEFAULT_EPISODE_RULES)
    table["rules"][1]["predicate"] = "phone_near_head"
    with pytest.raises(ValueError, match="phone_near_head"):
        fusion.EpisodeRuleTable.from_dict(table)


def _random_frame(g, idx):
    def maybe_joint(x, y):
        if g.random() < 0.15:
            return None
        return (x + g.normal(0, 0.05), y + g.normal(0, 0.05), float(g.uniform(0, 1)))

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
    joints = {}
    for name, (x, y) in base.items():
        j = maybe_joint(x, y)
        if j is not None:
            joints[name] = j
    hands = []
    for _ in range(int(g.integers(0, 4))):
        cx, cy = float(g.uniform(0.1, 0.9)), float(g.uniform(0.1, 0.9))
        hands.append(
            _hand_at(cx, cy, score=float(g.uniform(0, 1)), side=("left", "right", "unknown")[int(g.integers(0, 3))])
        )
    return PoseFrame(idx, joints), hands


def _associate_two_pass(pose, hands, cfg, enforce_angle):
    """The former wrist-to-box assignment: one candidate pass per angle setting, kept as the reference."""
    candidates = []
    for wrist_name, elbow_name, _side in fusion._WRIST_SPECS:
        wj = pose.joints.get(wrist_name)
        if wj is None or wj[2] < cfg.pose_score_min:
            continue
        ej = pose.joints.get(elbow_name)
        elbow_ok = ej is not None and ej[2] >= cfg.pose_score_min
        for idx, hand in enumerate(hands):
            dist = edge_distance((wj[0], wj[1]), hand.box)
            if dist > cfg.wrist_edge_dist_max:
                continue
            angle = None
            if elbow_ok:
                cx, cy = hand.center
                angle = fusion._angle_deg((wj[0] - ej[0], wj[1] - ej[1]), (cx - wj[0], cy - wj[1]))
                if enforce_angle and angle > cfg.elbow_angle_max_deg:
                    continue
            candidates.append((dist, wrist_name, idx, angle))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    taken_wrists, taken_hands, out = set(), set(), []
    for dist, wrist_name, idx, angle in candidates:
        if wrist_name in taken_wrists or idx in taken_hands:
            continue
        taken_wrists.add(wrist_name)
        taken_hands.add(idx)
        out.append((wrist_name, idx, dist, angle))
    return sorted(out)


def test_single_candidate_pass_matches_two_passes():
    g = rng(654)
    cfg = _cfg()
    aimed_differs = 0
    for i in range(1000):
        pose, hands = _random_frame(g, i)
        edge, aimed = _associate(pose, hands, cfg)
        got = [[(a.wrist, a.hand_index, a.distance, a.angle_deg) for a in assoc] for assoc in (edge, aimed)]
        want = [_associate_two_pass(pose, hands, cfg, enforce_angle) for enforce_angle in (False, True)]
        assert got == want, i
        aimed_differs += want[0] != want[1]
    assert aimed_differs >= 10  # the draws reach the angle check, not only empty assignments


def _pose_corrections_from_hands(pose, corrected_hands, side_records):
    """The former pose corrections, derived from the corrected hands, kept as the reference."""
    out = []
    for rec in side_records:
        idx = rec.payload["hand_index"]
        hand = corrected_hands[idx]
        cx, cy = hand.center
        wrist = "l_wrist" if hand.side == "left" else "r_wrist"
        out.append(
            fusion.TrainingRecord(
                frame_index=pose.frame_index,
                kind="pose_correction",
                payload={"joint": wrist, "x": cx, "y": cy, "side": hand.side, "hand_index": idx},
                provenance=rec.provenance,
            )
        )
    return out


def test_pose_corrections_from_side_records_match_corrected_hands():
    g = rng(987)
    cfg = _cfg()
    relabeled = 0
    for i in range(1000):
        pose, hands = _random_frame(g, i)
        corrected, records = relabel_hands(pose, hands, evaluate_safe_driving(pose, hands, cfg))
        assert emit_pose_corrections(records) == _pose_corrections_from_hands(pose, corrected, records), i
        relabeled += bool(records)
    assert relabeled >= 5  # the draws reach the relabel rule, not only empty record lists


def test_rule_soundness_randomized():
    g = rng(321)
    cfg = _cfg()
    for i in range(400):
        if g.random() < 0.3:
            pose, hands = _safe_frame(idx=i, scores=float(g.uniform(0.3, 1.0)))
        else:
            pose, hands = _random_frame(g, i)
        v = evaluate_safe_driving(pose, hands, cfg)
        rules = {r.rule: r.passed for r in v.rule_results}
        assert v.safe_driving == all(rules[k] for k in (1, 2, 3, 4, 5))
        assert v.strict_safe_driving == (v.safe_driving and rules[6] and rules[7])
        if v.strict_safe_driving:
            assert v.safe_driving
        corrected, records = relabel_hands(pose, hands, v)
        passed = set(v.passed_rules())
        for rec in records + emit_pose_corrections(records):
            assert rec.provenance["rules"], rec
            assert set(rec.provenance["rules"]) <= passed


def test_coordinate_scale_invariance():
    pose, hands = _safe_frame()
    cfg = _cfg()
    v_base = evaluate_safe_driving(pose, hands, cfg)
    for c in (0.5, 2.0):
        scaled_pose = PoseFrame(
            pose.frame_index,
            {k: (x * c, y * c, s) for k, (x, y, s) in pose.joints.items()},
        )
        scaled_hands = [
            replace(h, box=tuple(b * c for b in h.box)) for h in hands
        ]
        scaled_cfg = _cfg(
            wrist_edge_dist_max=cfg.wrist_edge_dist_max * c,
            wrist_edge_dist_strict=cfg.wrist_edge_dist_strict * c,
        )
        scaled_cfg.wheel_region = [b * c for b in WHEEL]
        v = evaluate_safe_driving(scaled_pose, scaled_hands, scaled_cfg)
        assert [r.passed for r in v.rule_results] == [
            r.passed for r in v_base.rule_results
        ]
        assert v.safe_driving == v_base.safe_driving


def test_determinism_bitwise_serialization():
    bundle = gen_driver_session(
        [("safe_driving", 10), ("drinking", 10)], side_flip_fraction=0.3, seed=77
    )
    cfg = _cfg(frame_rate=bundle.ground_truth["frame_rate"])

    def run():
        blobs = []
        for pose, hands, _objects in bundle.payload["frames"]:
            v = evaluate_safe_driving(pose, hands, cfg)
            corrected, recs = relabel_hands(pose, hands, v)
            recs += emit_pose_corrections(recs)
            blobs.append(canon_dumps(fusion.verdict_to_dict(v)))
            blobs.extend(canon_dumps(fusion.record_to_dict(r)) for r in recs)
        return "\n".join(blobs)

    assert run() == run()


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(hand_score_strict=0.3)
    with pytest.raises(ValueError):
        _cfg(wrist_edge_dist_strict=0.2)
    assert _cfg(frame_rate=30).resolved_consistency_frames() == 15
    assert _cfg(consistency_frames=7).resolved_consistency_frames() == 7


@pytest.mark.parametrize("box", [(0.5, 0.2, 0.4, 0.6), (0.2, 0.6, 0.4, 0.2), (0.2, 0.2, 0.2, 0.6)])
def test_one_box_rule_for_detections_and_box_regions(box):
    with pytest.raises(ValueError, match="hand box needs x0 < x1 and y0 < y1"):
        HandDetection(box=box, score=0.9)
    with pytest.raises(ValueError, match="object box needs x0 < x1 and y0 < y1"):
        ObjectDetection(label="cup", box=box, score=0.9)
    with pytest.raises(ValueError, match=r"wheel_region must be \[x0, y0, x1, y1\] with x0 < x1"):
        FusionConfig(wheel_region=list(box))
    with pytest.raises(ValueError, match="'region' must be"):
        fusion.EpisodeRule("x", "offwheel_wrist_in_region", {"region": list(box)})
    x0, y0, x1, y1 = box  # four vertices are a polygon, whose corners have no order to check
    FusionConfig(wheel_region=[[x1, y1], [x0, y1], [x0, y0], [x1, y0]])


def test_number_rule_is_one_predicate_for_settings_and_readers():
    limit = sys.float_info.max
    for value in (0, -3, 1.5, limit, -limit, int(limit)):
        assert fusion.is_number(value)
        fusion.check_number("x", value, 0.0)
    for value in (True, "1", None, [1.0], math.nan, math.inf, -math.inf, 10**400, -(10**400)):
        assert not fusion.is_number(value)
        with pytest.raises(ValueError, match="x must be (a number|finite)"):
            fusion.check_number("x", value, 0.0)
    with pytest.raises(ValueError, match="x must be finite, got 1000"):
        fusion.check_number("x", 10**400, 0.0)
    assert FusionConfig().wheel_region is None  # built, and range-checked, without a region


_BOUNDED = {  # the fields whose range their metadata declares, by section
    RpcaConfig: ["lam", "tolerance", "max_iterations", "penalty_growth", "penalty_cap", "warn_factor"],
    GflConfig: ["lam", "order", "admm_penalty", "tolerance", "max_iterations", "threshold_fraction", "min_gap"],
    FlowConfig: ["eigen_floor", "max_refinements", "step_tol", "fb_max_error", "canonical_size", "max_features",
                 "feature_quality", "gap_max", "group_threshold", "merge_threshold"],
    FusionConfig: ["pose_score_min", "hand_score_min", "hand_score_strict", "wrist_edge_dist_max",
                   "wrist_edge_dist_strict", "elbow_angle_max_deg", "frame_rate", "consistency_frames"],
    Config: ["downscale_limit"],
}
# each pair's order rule holds when both take the same value
_PAIRED = {"hand_score_min": "hand_score_strict", "hand_score_strict": "hand_score_min",
           "wrist_edge_dist_max": "wrist_edge_dist_strict", "wrist_edge_dist_strict": "wrist_edge_dist_max"}


@pytest.mark.parametrize("cls", list(_BOUNDED), ids=lambda cls: cls.__name__)
def test_every_declared_bound_refuses_nan_and_holds_at_its_own_value(cls):
    for name in _BOUNDED[cls]:  # the number rule, checked before the bounds, refuses NaN first
        with pytest.raises((ValueError, ConfigError), match=f"^{name} must be (finite|an integer), got nan$"):
            cls(**{name: math.nan})
    bounded = {f.name: f.metadata for f in dataclasses.fields(cls) if set(f.metadata) - {"number_rule"}}
    assert list(bounded) == _BOUNDED[cls]
    for name, bounds in bounded.items():
        for key, value in bounds.items():
            settings = {name: value, **({_PAIRED[name]: value} if name in _PAIRED else {})}
            if key in ("min", "max"):
                assert getattr(cls(**settings), name) == value
            elif key in ("above", "below"):
                with pytest.raises(ValueError, match=f"^{name} must be {key} {value}, got {value}$"):
                    cls(**settings)


# per section: an int field, a float field (Config has none) and a field whose default is not None
_TYPED = {RpcaConfig: ("max_iterations", "tolerance", "warn_factor"), GflConfig: ("order", "lam", "min_gap"),
          FlowConfig: ("window", "step_tol", "max_features"),
          FusionConfig: ("consistency_frames", "frame_rate", "pose_score_min"),
          Config: ("downscale_limit", None, "downscale_limit")}


@pytest.mark.parametrize("cls", list(_TYPED), ids=lambda cls: cls.__name__)
def test_settings_built_in_code_follow_the_number_rule(cls):
    int_field, float_field, not_none = _TYPED[cls]
    refused = [(int_field, v, "an integer") for v in (2.5, True, np.float64(2.0), np.bool_(True), "3")]
    if float_field:
        refused += [(float_field, v, "a number") for v in (True, np.bool_(True), "x", None)]
    refused.append((not_none, None, "(a number|an integer)"))
    for name, value, words in refused:
        with pytest.raises((ValueError, ConfigError), match=f"^{name} must be {words}, got "):
            cls(**{name: value})
    # numpy real scalars pass, stored as the Python numbers they equal, so the writers take them
    kept = [(int_field, np.int64(3), 3)]
    if float_field:
        kept += [(float_field, np.float64(0.5), 0.5), (float_field, np.float32(0.5), 0.5)]
    for name, value, plain in kept:
        stored = getattr(cls(**{name: value}), name)
        assert stored == plain and type(stored) is type(plain)


@pytest.mark.parametrize("name", ["rpca", "gfl", "flow", "fusion", "episode_rules"])
def test_config_sections_hold_an_instance_of_their_class(name):
    # a section's default comes from default_factory, episode_rules' is an EpisodeRuleTable
    for value in (None, "x", {}, GflConfig() if name == "rpca" else RpcaConfig()):
        with pytest.raises(ConfigError, match=f"^{name} must be an instance of [A-Za-z]+, got "):
            Config(**{name: value})
    with pytest.raises(ConfigError, match="^rpca must be an instance of RpcaConfig, got None$"):
        Config(rpca=None, gfl="x")
    default = getattr(Config(), name)
    assert getattr(Config(**{name: default}), name) is default


def _classify_episode_by_group_ids(frames, verdicts, segments, rule_table):
    """The former classify_episode, which rebuilt each segment's range from the group ids, kept as the reference."""
    group_ids = list(segments.group_ids)
    if not len(group_ids) == len(verdicts) == len(frames):
        raise ValueError(
            f"{len(frames)} frames but segments cover {len(group_ids)} and {len(verdicts)} verdicts were given"
        )
    votes_per_segment = {}
    bounds = {}
    for i, (gid, (pose, hands, objects), verdict) in enumerate(zip(group_ids, frames, verdicts)):
        lo, hi = bounds.get(gid, (i, i))
        bounds[gid] = (min(lo, i), max(hi, i))
        ctx = fusion._FrameContext(pose, hands, objects, verdict)
        tally = votes_per_segment.setdefault(gid, {})
        for rule in rule_table.rules:
            side = fusion.PREDICATES[rule.predicate](ctx, **rule.params)
            if side is None:
                continue
            label = f"{rule.label}_{side}" if rule.with_side and side else rule.label
            tally[label] = tally.get(label, 0) + 1
    out = []
    for gid in sorted(bounds):
        lo, hi = bounds[gid]
        tally = votes_per_segment.get(gid, {})
        notes = []
        if not tally:
            label = "unknown"
        else:
            ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
            if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
                tied = [k for k, v in ranked if v == ranked[0][1]]
                label = "unknown"
                notes.append(f"ambiguous: {' vs '.join(sorted(tied))}")
            else:
                label = ranked[0][0]
        out.append(fusion.EpisodeLabel(segment=gid, start=lo, end=hi + 1, label=label,
                                       votes=dict(sorted(tally.items())), notes=notes))
    return out


@st.composite
def _segmented_sessions(draw):
    """A short driver session, its verdicts, and a labeling whose frame count may miss the session's by one."""
    labels = st.sampled_from(SESSION_LABELS + ("operating_radio_right",))
    schedule = draw(st.lists(st.tuples(labels, st.integers(0, 8)), max_size=4))
    bundle = gen_driver_session(schedule, side_flip_fraction=draw(st.sampled_from([0.0, 0.3])),
                                score_noise=draw(st.sampled_from([0.03, 0.5])), seed=draw(st.integers(0, 2**32 - 1)))
    frames = bundle.payload["frames"]
    cfg = _cfg(frame_rate=bundle.ground_truth["frame_rate"])
    verdicts = [evaluate_safe_driving(pose, hands, cfg) for pose, hands, _objects in frames]
    n = max(0, len(frames) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    change_points = sorted(draw(st.sets(st.integers(0, n - 2))) if n > 1 else [])
    return frames, verdicts, SegmentLabeling(change_points, n)


@given(_segmented_sessions())
def test_classify_episode_matches_group_id_reference_on_drawn_sessions(session):
    frames, verdicts, segments = session
    table = fusion.DEFAULT_EPISODE_RULES
    try:
        want = _classify_episode_by_group_ids(frames, verdicts, segments, table)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            classify_episode(frames, verdicts, segments, table)
        assert str(info.value) == str(exc)
        return
    assert classify_episode(frames, verdicts, segments, table) == want
