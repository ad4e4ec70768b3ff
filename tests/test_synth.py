import numpy as np
import pytest

from epkit import fusion, synth


def test_lowrank_sparse_determinism_and_consistency():
    a = synth.gen_lowrank_sparse(40, 30, 4, 0.1, 5.0, seed=9)
    b = synth.gen_lowrank_sparse(40, 30, 4, 0.1, 5.0, seed=9)
    assert np.array_equal(a.payload["x"], b.payload["x"])
    assert np.array_equal(a.ground_truth["sparse"], b.ground_truth["sparse"])
    # planted structure regenerates the payload bit for bit
    rebuilt = (
        a.ground_truth["left_factor"] @ a.ground_truth["right_factor"].T / np.sqrt(30)
        + a.ground_truth["sparse"]
    )
    assert np.array_equal(rebuilt, a.payload["x"])
    assert len(a.ground_truth["support"]) == int(0.1 * 40 * 30)


def test_lowrank_sparse_degenerate_cases():
    none = synth.gen_lowrank_sparse(10, 8, 2, 0.0, 5.0, seed=1)
    assert not np.any(none.ground_truth["sparse"])
    pure = synth.gen_lowrank_sparse(10, 8, 0, 0.1, 5.0, seed=1)
    assert np.array_equal(pure.payload["x"], pure.ground_truth["sparse"])
    with pytest.raises(ValueError):
        synth.gen_lowrank_sparse(10, 8, 2, 0.5, 5.0, seed=1)
    with pytest.raises(ValueError):
        synth.gen_lowrank_sparse(10, 8, 20, 0.1, 5.0, seed=1)
    for d, t in ((0, 8), (10, 0), (0, 0)):
        with pytest.raises(ValueError, match="d and t must be at least 1"):
            synth.gen_lowrank_sparse(d, t, 0, 0.1, 5.0, seed=1)


def test_piecewise_structure():
    b = synth.gen_piecewise(3, 20, [7], 2.0, 0.0, seed=4)
    x = b.payload["x"]
    for row in x:
        assert len(np.unique(row)) == 2
        assert np.all(row[:8] == row[0]) and np.all(row[8:] == row[8])
    flat = synth.gen_piecewise(2, 10, [], 2.0, 0.0, seed=4)
    assert all(len(np.unique(r)) == 1 for r in flat.payload["x"])
    with pytest.raises(ValueError):
        synth.gen_piecewise(2, 10, [5, 5], 1.0, 0.1, seed=0)
    with pytest.raises(ValueError):
        synth.gen_piecewise(2, 10, [9], 1.0, 0.1, seed=0)
    for d, t in ((0, 10), (2, 0)):
        with pytest.raises(ValueError, match="d and t must be at least 1"):
            synth.gen_piecewise(d, t, [], 1.0, 0.1, seed=0)


def test_piecewise_determinism():
    a = synth.gen_piecewise(8, 240, [40, 90, 150, 200], 2.0, 0.3, seed=3)
    b = synth.gen_piecewise(8, 240, [40, 90, 150, 200], 2.0, 0.3, seed=3)
    assert np.array_equal(a.payload["x"], b.payload["x"])
    assert a.ground_truth["change_points"] == [40, 90, 150, 200]


def test_shifted_pair_zero_shift_identical():
    b = synth.gen_shifted_pair(32, 0.0, 0.0, 2.0, seed=6)
    assert np.array_equal(b.payload["frame1"], b.payload["frame2"])


def test_shifted_pair_quantized_to_pgm_grid():
    b = synth.gen_shifted_pair(32, 0.5, -0.5, 1.5, seed=6)
    for key in ("frame1", "frame2"):
        f = b.payload[key]
        assert np.array_equal(f, np.round(f * 255) / 255)
        assert f.min() >= 0 and f.max() <= 1
    assert b.ground_truth == {"dx": 0.5, "dy": -0.5}
    with pytest.raises(ValueError):
        synth.gen_shifted_pair(32, 4.0, 0.0, 1.5, seed=6)


def test_driver_session_safe_schedule_all_rules_pass():
    bundle = synth.gen_driver_session(
        [("safe_driving", 20)], score_noise=0.0, pos_jitter=0.0, seed=0
    )
    cfg = fusion.FusionConfig(
        wheel_region=bundle.ground_truth["wheel_region"],
        frame_rate=bundle.ground_truth["frame_rate"],
    )
    for pose, hands, objects in bundle.payload["frames"]:
        v = fusion.evaluate_safe_driving(pose, hands, cfg)
        assert v.safe_driving and v.strict_safe_driving
        assert objects == []


def test_driver_session_empty_schedule():
    bundle = synth.gen_driver_session([], seed=0)
    assert bundle.payload["frames"] == []
    assert bundle.ground_truth["schedule"] == []


def test_driver_session_unknown_label_raises():
    with pytest.raises(ValueError, match="unknown episode label"):
        synth.gen_driver_session([("juggling", 5)], seed=0)


def test_driver_session_right_side_labels():
    bundle = synth.gen_driver_session(
        [("texting_right", 2), ("operating_radio_right", 2)], score_noise=0.0, pos_jitter=0.0, seed=0
    )
    assert synth._parse_label("texting_right") == ("texting", "right")
    frames = bundle.payload["frames"]
    wrist, elbow = synth._ACTION_POSES["texting"]
    for pose, hands, objects in frames[:2]:  # the left-hand pose, mirrored onto hand 1, which holds the phone
        assert pose.joints["r_wrist"][:2] == (1.0 - wrist[0], wrist[1])
        assert pose.joints["r_elbow"][:2] == (1.0 - elbow[0], elbow[1])
        assert pose.joints["l_wrist"][:2] == synth.REST_WRIST["left"]
        assert [h.side for h in hands] == ["left", "right"]
        (phone,) = objects
        assert phone.label == "cell phone" and phone.center == pytest.approx(hands[1].center)
    wrist, elbow = synth._ACTION_POSES["operating_radio"]
    for pose, _hands, objects in frames[2:]:  # the radio stays where it is: no mirror
        assert pose.joints["r_wrist"][:2] == wrist and pose.joints["r_elbow"][:2] == elbow
        assert objects == []


def test_driver_session_determinism_and_flips():
    kw = dict(side_flip_fraction=0.2, seed=123)
    a = synth.gen_driver_session([("safe_driving", 30), ("drinking", 30)], **kw)
    b = synth.gen_driver_session([("safe_driving", 30), ("drinking", 30)], **kw)
    assert a.ground_truth["flips"] == b.ground_truth["flips"]
    assert len(a.ground_truth["flips"]) > 0
    for (pa, ha, oa), (pb, hb, ob) in zip(a.payload["frames"], b.payload["frames"]):
        assert pa == pb and ha == hb and oa == ob
    # flipped detections disagree with the truth side
    for flip in a.ground_truth["flips"]:
        hand = a.payload["frames"][flip["frame"]][1][flip["hand_index"]]
        assert hand.side != flip["true_side"]


def test_driver_session_rendering_is_deterministic_and_quantized():
    a = synth.gen_driver_session([("drinking", 3)], seed=5)
    b = synth.gen_driver_session([("drinking", 3)], seed=5)
    images_a = list(synth.render_frames(a.payload["frames"], *a.ground_truth["frame_size"]))
    images_b = list(synth.render_frames(b.payload["frames"], *b.ground_truth["frame_size"]))
    assert len(images_a) == 3
    for fa, fb in zip(images_a, images_b):
        assert np.array_equal(fa, fb)
        assert np.array_equal(fa, np.round(fa * 255) / 255)


def test_rng_is_counter_based_and_stable():
    g = synth.rng(42)
    assert isinstance(g.bit_generator, np.random.Philox)
    assert synth.rng(42).integers(0, 1 << 62) == synth.rng(42).integers(0, 1 << 62)
