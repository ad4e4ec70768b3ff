import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter, maximum_filter, uniform_filter

from epkit import fileio, optflow, pipeline
from epkit.synth import gen_driver_session, gen_shifted_pair, render_frames, rng


def _hand_gradients(frame):
    # the same central/one-sided formulas, coded independently of the module
    h, w = frame.shape
    ix = np.zeros_like(frame)
    iy = np.zeros_like(frame)
    for y in range(h):
        for x in range(w):
            if 0 < x < w - 1:
                ix[y, x] = (frame[y, x + 1] - frame[y, x - 1]) / 2.0
            elif x == 0:
                ix[y, x] = frame[y, 1] - frame[y, 0]
            else:
                ix[y, x] = frame[y, x] - frame[y, x - 1]
            if 0 < y < h - 1:
                iy[y, x] = (frame[y + 1, x] - frame[y - 1, x]) / 2.0
            elif y == 0:
                iy[y, x] = frame[1, x] - frame[0, x]
            else:
                iy[y, x] = frame[y, x] - frame[y - 1, x]
    return ix, iy


def _noise_patch(seed, n=20, sigma=1.2):
    p = gaussian_filter(rng(seed).standard_normal((n, n)), sigma)
    span = p.max() - p.min()
    return np.clip(0.15 + 0.7 * (p - p.min()) / (span + 1e-12), 0.0, 1.0)


def _patch_frame(h, w, patch, px, py, bg=0.3):
    f = np.full((h, w), bg)
    ph, pw = patch.shape
    f[py : py + ph, px : px + pw] = patch
    return f


def _gradients(frame):
    _img, ix, iy = optflow._planes(frame[None])[:, 0]
    return ix, iy


def test_gradients_constant_frame():
    ix, iy = _gradients(np.full((8, 10), 0.7))
    assert np.abs(ix).max() == 0.0
    assert np.abs(iy).max() == 0.0


def test_gradients_horizontal_ramp():
    w = 16
    frame = np.tile(np.arange(w) / w, (10, 1))
    ix, iy = _gradients(frame)
    assert np.allclose(ix[:, 1:-1], 1.0 / w)
    assert np.abs(iy).max() == 0.0


def test_gradients_match_independent_oracle():
    frame = rng(40).uniform(0.0, 1.0, size=(12, 9))
    ix, iy = _gradients(frame)
    ox, oy = _hand_gradients(frame)
    assert np.array_equal(ix, ox)
    assert np.array_equal(iy, oy)


def test_gradients_reject_degenerate_frames():
    with pytest.raises(ValueError, match=r"too small for gradients: \(2, 5\)"):
        optflow.good_features(np.zeros((2, 5)), 10, 0.1)
    with pytest.raises(ValueError, match=r"too small for gradients: \(2, 5\)"):
        optflow.lk_flow(np.zeros((2, 5)), np.zeros((2, 5)), [(1.0, 1.0)])
    assert optflow.lk_flow(np.zeros((2, 5)), np.zeros((2, 5)), []) == []  # no point, no gradient


def test_good_features_flat_frame_is_empty():
    assert optflow.good_features(np.full((20, 20), 0.5), 10, 0.1).shape == (0, 2)


def test_good_features_single_bright_pixel():
    f = np.zeros((15, 15))
    f[7, 7] = 1.0
    pts = optflow.good_features(f, 10, 0.1, window=5)
    assert len(pts) >= 1
    assert all(np.hypot(x - 7, y - 7) <= 2.0 for x, y in pts)


def test_good_features_checkerboard():
    cells = 6
    cb = (np.indices((cells * 4, cells * 4)).sum(0) // 4 % 2).astype(float)
    pts = optflow.good_features(cb, 100, 0.2, window=5)
    interior_corners = (cells - 1) ** 2
    assert len(pts) >= interior_corners * 0.5


def test_good_features_validates_arguments():
    with pytest.raises(ValueError, match="max_features"):
        optflow.good_features(np.zeros((8, 8)), 0, 0.5)
    with pytest.raises(ValueError, match="feature_quality"):
        optflow.good_features(np.zeros((8, 8)), 5, 1.5)
    for window in (4, 2, 1):
        with pytest.raises(ValueError, match="window must be odd"):
            optflow.good_features(np.zeros((8, 8)), 5, 0.5, window)
    for window in (3, 5, 9):
        assert optflow.good_features(np.zeros((8, 8)), 5, 0.5, window).shape == (0, 2)


def test_lk_flow_identical_frames_zero_exact():
    b = gen_shifted_pair(48, 0.0, 0.0, 2.0, seed=5)
    f = b.payload["frame1"]
    pts = optflow.good_features(f, 30, 0.05)
    assert len(pts) > 0
    flows = optflow.lk_flow(f, f, pts)
    for v in flows:
        if v.valid:
            assert v.displacement == (0.0, 0.0)


def test_lk_flow_integer_shift():
    b = gen_shifted_pair(64, 1.0, 0.0, 2.0, seed=42)
    f1, f2 = b.payload["frame1"], b.payload["frame2"]
    pts = optflow.good_features(f1, 50, 0.05)
    flows = [v for v in optflow.lk_flow(f1, f2, pts) if v.valid]
    assert len(flows) >= 0.5 * len(pts)
    errs = [np.hypot(v.displacement[0] - 1.0, v.displacement[1]) for v in flows]
    assert np.mean([e <= 0.2 for e in errs]) >= 0.9


def test_lk_flow_flat_region_invalid():
    f = np.full((32, 32), 0.5)
    flows = optflow.lk_flow(f, f, [(16.0, 16.0)])
    assert len(flows) == 1
    assert not flows[0].valid
    assert flows[0].displacement == (0.0, 0.0)


def test_lk_flow_border_point_invalid_not_error():
    b = gen_shifted_pair(32, 0.0, 0.0, 2.0, seed=5)
    f = b.payload["frame1"]
    flows = optflow.lk_flow(f, f, [(1.0, 1.0), (-5.0, 40.0)])
    assert not flows[0].valid and not flows[1].valid


def test_shift_equivariance_interior_points():
    b = gen_shifted_pair(64, 0.0, 0.0, 2.0, seed=8)
    f = b.payload["frame1"]
    shifted = np.roll(np.roll(f, 2, axis=1), 1, axis=0)  # s = (2, 1)
    pts = [
        p
        for p in optflow.good_features(f, 40, 0.05)
        if 10 <= p[0] <= 52 and 10 <= p[1] <= 52
    ]
    flows = [v for v in optflow.lk_flow(f, shifted, pts) if v.valid]
    assert flows
    for v in flows:
        assert np.hypot(v.displacement[0] - 2.0, v.displacement[1] - 1.0) <= 0.2


def test_box_similarity_identical_content():
    patch = _noise_patch(31)
    f = _patch_frame(60, 80, patch, 20, 20)
    box = (20, 20, 40, 40)
    assert optflow.box_similarity(f, f, box, box) == 1.0


def test_box_similarity_disjoint_content():
    patch = _noise_patch(31)
    f = _patch_frame(60, 80, patch, 10, 20)
    sim = optflow.box_similarity(f, f, (10, 20, 30, 40), (50, 5, 70, 25))
    assert sim <= 0.2


def test_box_similarity_follows_motion():
    patch = _noise_patch(3)
    frames = [_patch_frame(80, 100, patch, 10 + 2 * t, 30) for t in range(3)]
    follow = [(10 + 2 * t, 30, 30 + 2 * t, 50) for t in range(3)]
    s_follow = optflow.box_similarity(frames[0], frames[1], follow[0], follow[1])
    s_stray = optflow.box_similarity(frames[0], frames[1], follow[0], (60, 5, 80, 25))
    assert s_follow > 0.8
    assert s_stray < 0.2


def test_box_similarity_rejects_empty_box():
    f = _patch_frame(40, 40, _noise_patch(2), 5, 5)
    with pytest.raises(ValueError):
        optflow.box_similarity(f, f, (10, 10, 10, 30), (5, 5, 20, 20))


def test_group_boxes_single_track():
    patch = _noise_patch(3)
    frames = [_patch_frame(60, 80, patch, 15, 20) for _ in range(5)]
    boxes = [[(15, 20, 35, 40)] for _ in range(5)]
    groups = optflow.group_boxes(frames, boxes, 0.5)
    assert len(groups) == 1
    assert groups[0].members == [(t, 0) for t in range(5)]


def test_group_boxes_two_interleaved_objects():
    a, b = _noise_patch(31), _noise_patch(77)
    f = _patch_frame(80, 100, a, 10, 10)
    ph, pw = b.shape
    f[50 : 50 + ph, 70 : 70 + pw] = b
    frames = [f.copy() for _ in range(6)]
    box_a, box_b = (10, 10, 30, 30), (70, 50, 90, 70)
    boxes = [[box_a] if t % 2 == 0 else [box_b] for t in range(6)]
    groups = optflow.group_boxes(frames, boxes, 0.5)
    assert len(groups) == 2
    for g in groups:
        sides = {t % 2 for t, _i in g.members}
        assert len(sides) == 1  # purity: one object per group


def test_group_boxes_threshold_above_one_gives_singletons():
    patch = _noise_patch(3)
    frames = [_patch_frame(60, 80, patch, 15, 20) for _ in range(4)]
    boxes = [[(15, 20, 35, 40)] for _ in range(4)]
    groups = optflow.group_boxes(frames, boxes, 1.1)
    assert len(groups) == 4


def test_group_boxes_validates_alignment():
    with pytest.raises(ValueError):
        optflow.group_boxes([np.zeros((10, 10))], [[], []], 0.5)


def test_merge_groups_restores_split_track():
    patch = _noise_patch(3)
    frames = [_patch_frame(60, 80, patch, 15, 20) for _ in range(6)]
    boxes = [[(15, 20, 35, 40)] for _ in range(6)]
    split = [
        optflow.BoxTrackGroup(0, [(t, 0) for t in range(3)]),
        optflow.BoxTrackGroup(1, [(t, 0) for t in range(3, 6)]),
    ]
    # threshold 2.0 gives singletons, which carry the crop sums the split groups are joined with
    merged = optflow.merge_groups(optflow.group_boxes(frames, boxes, 2.0) + split, 0.9)
    assert len(merged) == 1
    assert merged[0].members == [(t, 0) for t in range(6)]


def test_merge_groups_threshold_above_one_is_identity():
    patch = _noise_patch(3)
    frames = [_patch_frame(60, 80, patch, 15, 20) for _ in range(4)]
    boxes = [[(15, 20, 35, 40)] for _ in range(4)]
    split = [
        optflow.BoxTrackGroup(0, [(0, 0), (1, 0)]),
        optflow.BoxTrackGroup(1, [(2, 0), (3, 0)]),
    ]
    merged = optflow.merge_groups(optflow.group_boxes(frames, boxes, 2.0) + split, 1.01)
    assert [g.members for g in merged] == [g.members for g in split]


def test_merge_groups_joins_alternating_identical_boxes():
    patch = _noise_patch(9)
    frames = [_patch_frame(60, 80, patch, 15, 20) for _ in range(6)]
    box = (15, 20, 35, 40)
    boxes = [[box] if t % 2 == 0 else [] for t in range(6)]
    cfg = optflow.FlowConfig(gap_max=0)  # gaps prevent direct grouping
    groups = optflow.group_boxes(frames, boxes, 0.5, cfg)
    assert len(groups) == 3
    merged = optflow.merge_groups(groups, 0.9)
    assert len(merged) == 1


def _random_scene(seed):
    g = rng(seed)
    n_frames = int(g.integers(2, 5))
    patches = [_noise_patch(seed + 1 + k) for k in range(2)]
    frames = []
    boxes = []
    for _t in range(n_frames):
        f = np.full((48, 64), 0.3)
        fb = []
        for k, patch in enumerate(patches):
            if g.random() < 0.75:
                px = int(g.integers(2, 40))
                py = int(g.integers(2, 24))
                f[py : py + 20, px : px + 20] = patch
                fb.append((px, py, px + 20, py + 20))
        frames.append(f)
        boxes.append(fb)
    return frames, boxes


def test_grouping_partition_invariants_randomized():
    for seed in range(12):
        frames, boxes = _random_scene(5000 + seed)
        all_keys = [(t, i) for t in range(len(frames)) for i in range(len(boxes[t]))]
        groups = optflow.group_boxes(frames, boxes, 0.5)
        seen = [m for g in groups for m in g.members]
        assert sorted(seen) == sorted(all_keys)
        assert len(set(seen)) == len(seen)
        merged = optflow.merge_groups(groups, 0.9)
        seen2 = [m for g in merged for m in g.members]
        assert sorted(seen2) == sorted(all_keys)
        # coarsening: every original group lands inside one merged group
        owner = {m: g.group_id for g in merged for m in g.members}
        for g in groups:
            assert len({owner[m] for m in g.members}) == 1


def test_threshold_monotonicity_of_group_count():
    patch = _noise_patch(3)
    frames = [_patch_frame(60, 80, patch, 15 + t, 20) for t in range(4)]
    boxes = [[(15 + t, 20, 35 + t, 40)] for t in range(4)]
    counts = [
        len(optflow.group_boxes(frames, boxes, thr)) for thr in (0.9, 0.5, 0.2)
    ]
    assert counts[0] >= counts[1] >= counts[2]


# -- batched grouping against the per-pair reference ---------------------------


def _bilinear_reference(img, xs, ys):
    h, w = img.shape
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 2)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 2)
    fx = xs - x0
    fy = ys - y0
    top = (1 - fx) * img[y0, x0] + fx * img[y0, x0 + 1]
    bot = (1 - fx) * img[y0 + 1, x0] + fx * img[y0 + 1, x0 + 1]
    return (1 - fy) * top + fy * bot


def _assert_bilinear_matches_reference(img, xs, ys):
    """_bilinear at columns xs (w_out,) and rows ys (h_out,) of img (h, w) equals the reference on their grid."""
    gx, gy = np.meshgrid(xs, ys)
    got = optflow._bilinear(img, xs.copy(), ys[:, None].copy(), 0)
    assert got.shape == gx.shape and np.array_equal(got, _bilinear_reference(img, gx, gy))


def test_bilinear_matches_reference_at_random_interior_points():
    g = rng(7)
    img = g.random((13, 17))
    _assert_bilinear_matches_reference(img, g.uniform(0, 16, 11), g.uniform(0, 12, 7))


def test_bilinear_matches_reference_where_the_upper_clip_binds():
    # on the last row and column truncation gives h - 1 or w - 1, clipped to h - 2 or w - 2 with weight 1
    img = rng(8).random((13, 17))
    _assert_bilinear_matches_reference(img, np.array([0.0, 15.5, 16.0]), np.array([0.0, 11.25, 12.0]))


def test_bilinear_matches_reference_on_a_base_with_a_plane_axis():
    # as _lk_windows passes it: base (3, m, 1, 1) picks plane p of image src[k] for point k
    g = rng(9)
    planes = g.random((3, 4, 12, 15))
    _p, n, h, w = planes.shape
    src = g.integers(0, n, 6)
    xs, ys = g.uniform(0, w - 1, (6, 5)), g.uniform(0, h - 1, (6, 5))
    xs[0, -1], ys[-1, -1] = w - 1, h - 1
    base = src[:, None, None] * (h * w) + np.arange(3)[:, None, None, None] * planes[0].size
    got = optflow._bilinear(planes, xs[:, None, :].copy(), ys[:, :, None].copy(), base)
    assert got.shape == (3, 6, 5, 5)
    for p in range(3):
        for k in range(6):
            gx, gy = np.meshgrid(xs[k], ys[k])
            assert np.array_equal(got[p, k], _bilinear_reference(planes[p, src[k]], gx, gy)), (p, k)


def _lk_flow_reference(a, b, points, cfg):
    """lk_flow as one solve per frame pair, written apart from the batched kernel."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    floor = cfg.resolved_eigen_floor()
    half = cfg.window // 2
    h, w = a.shape
    offs = np.arange(-half, half + 1, dtype=np.float64)
    ox, oy = np.meshgrid(offs, offs)
    gx = pts[:, 0:1] + ox.ravel()[None, :]
    gy = pts[:, 1:2] + oy.ravel()[None, :]
    inb = (
        (pts[:, 0] - half >= 0)
        & (pts[:, 0] + half <= w - 1)
        & (pts[:, 1] - half >= 0)
        & (pts[:, 1] + half <= h - 1)
    )
    ix, iy = np.gradient(a, axis=1), np.gradient(a, axis=0)
    patch, gxv, gyv = np.zeros_like(gx), np.zeros_like(gx), np.zeros_like(gx)
    patch[inb] = _bilinear_reference(a, gx[inb], gy[inb])
    gxv[inb] = _bilinear_reference(ix, gx[inb], gy[inb])
    gyv[inb] = _bilinear_reference(iy, gx[inb], gy[inb])
    sxx = np.sum(gxv * gxv, axis=1)
    sxy = np.sum(gxv * gyv, axis=1)
    syy = np.sum(gyv * gyv, axis=1)
    min_eig = 0.5 * ((sxx + syy) - np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy))
    det = sxx * syy - sxy * sxy
    valid = inb & (min_eig >= floor) & (det > 0)
    disp = np.zeros((n, 2))
    active = valid.copy()
    for _ in range(cfg.max_refinements):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        tx = gx[idx] + disp[idx, 0:1]
        ty = gy[idx] + disp[idx, 1:2]
        out = (
            (tx.min(axis=1) < 0)
            | (tx.max(axis=1) > w - 1)
            | (ty.min(axis=1) < 0)
            | (ty.max(axis=1) > h - 1)
        )
        valid[idx[out]] = False
        disp[idx[out]] = 0.0
        active[idx[out]] = False
        idx, tx, ty = idx[~out], tx[~out], ty[~out]
        if idx.size == 0:
            break
        it = _bilinear_reference(b, tx, ty) - patch[idx]
        bx = -np.sum(gxv[idx] * it, axis=1)
        by = -np.sum(gyv[idx] * it, axis=1)
        inv_det = 1.0 / det[idx]
        dx = (syy[idx] * bx - sxy[idx] * by) * inv_det
        dy = (sxx[idx] * by - sxy[idx] * bx) * inv_det
        disp[idx, 0] += dx
        disp[idx, 1] += dy
        active[idx[np.hypot(dx, dy) < cfg.step_tol]] = False
    return [
        optflow.FlowVector(
            origin=(float(pts[i, 0]), float(pts[i, 1])),
            displacement=(float(disp[i, 0]), float(disp[i, 1])) if valid[i] else (0.0, 0.0),
            valid=bool(valid[i]),
            min_eigenvalue=float(max(min_eig[i], 0.0)) if inb[i] else 0.0,
        )
        for i in range(n)
    ]


def test_lk_flow_matches_reference():
    g = rng(61)
    for seed, (dx, dy) in enumerate(((1.0, 0.0), (0.4, -0.7), (3.0, 2.5))):
        pair = gen_shifted_pair(40, dx, dy, 2.0, seed=seed)
        f1, f2 = pair.payload["frame1"], pair.payload["frame2"]
        # features, off-grid points, points near and beyond the border
        pts = np.vstack([
            optflow.good_features(f1, 30, 0.05),
            g.uniform(-2.0, 42.0, size=(40, 2)),
            [(4.0, 4.0), (35.0, 35.0), (4.0, 35.5)],
        ])
        for cfg in (optflow.FlowConfig(), optflow.FlowConfig(window=5, max_refinements=3)):
            expected = _lk_flow_reference(f1, f2, pts, cfg)
            assert optflow.lk_flow(f1, f2, pts, cfg=cfg) == expected
            assert any(v.valid for v in expected) and not all(v.valid for v in expected)


def test_lk_flow_reads_window_from_cfg():
    pair = gen_shifted_pair(40, 0.4, -0.7, 2.0, seed=1)
    f1, f2 = pair.payload["frame1"], pair.payload["frame2"]
    pts = optflow.good_features(f1, 30, 0.05)
    cfg = optflow.FlowConfig(window=5)
    flows = optflow.lk_flow(f1, f2, pts, cfg=cfg)
    assert flows == _lk_flow_reference(f1, f2, pts, cfg)
    assert flows != optflow.lk_flow(f1, f2, pts)


def _canonical_rect_reference(frame, box, out_h, out_w):
    """The per-image crop arithmetic, written apart from the batched builder."""
    f = np.clip(np.asarray(frame, dtype=np.float64), 0.0, 1.0)
    x0, y0, x1, y1 = (float(c) for c in box)
    h, w = f.shape
    us = np.clip(x0 + (x1 - x0) * (np.arange(out_w) + 0.5) / out_w, 0, w - 1)
    vs = np.clip(y0 + (y1 - y0) * (np.arange(out_h) + 0.5) / out_h, 0, h - 1)
    gx, gy = np.meshgrid(us, vs)
    return _bilinear_reference(f, gx, gy)


def _good_features_reference(img, max_count, quality, window):
    """The per-image corner arithmetic, written apart from the batched builder."""
    ix, iy = np.gradient(img, axis=1), np.gradient(img, axis=0)
    area = window * window
    sxx = uniform_filter(ix * ix, size=window, mode="constant") * area
    sxy = uniform_filter(ix * iy, size=window, mode="constant") * area
    syy = uniform_filter(iy * iy, size=window, mode="constant") * area
    resp = 0.5 * ((sxx + syy) - np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy))
    margin = window // 2 + 1
    h, w = img.shape
    if 2 * margin >= min(h, w):
        return np.empty((0, 2))
    inner = np.zeros_like(resp)
    inner[margin : h - margin, margin : w - margin] = resp[margin : h - margin, margin : w - margin]
    best = inner.max()
    if best <= 0:
        return np.empty((0, 2))
    peaks = (inner > 0) & (inner >= quality * best) & (inner == maximum_filter(inner, size=window))
    ys, xs = np.nonzero(peaks)
    order = sorted(range(xs.size), key=lambda i: (-inner[ys[i], xs[i]], ys[i], xs[i]))
    kept = []
    for i in order:
        x, y = int(xs[i]), int(ys[i])
        if all(max(abs(x - kx), abs(y - ky)) > window // 2 for kx, ky in kept):
            kept.append((x, y))
            if len(kept) == max_count:
                break
    return np.array(kept, dtype=np.float64).reshape(-1, 2)


def _reference_state(frames, boxes, cfg):
    """Per-box reference crops and the features of each crop."""
    crop = {
        (t, i): _canonical_rect_reference(frames[t], b, cfg.canonical_size, cfg.canonical_size)
        for t in range(len(frames))
        for i, b in enumerate(boxes[t])
    }
    feats = {
        k: _good_features_reference(c, cfg.max_features, cfg.feature_quality, cfg.window)
        for k, c in crop.items()
    }
    return crop, feats


def _crop_similarity(crop_prev, crop_next, cfg, feats):
    """Per-pair reference for the batched score: two reference solves per pair."""
    size = crop_prev.shape[0]
    if feats.shape[0] == 0:
        return 0.0
    fwd = _lk_flow_reference(crop_prev, crop_next, feats, cfg)
    valid = [f for f in fwd if f.valid]
    if not valid:
        return 0.0
    landings = np.array(
        [(f.origin[0] + f.displacement[0], f.origin[1] + f.displacement[1]) for f in valid]
    )
    inside = (
        (landings[:, 0] >= 0)
        & (landings[:, 0] <= size - 1)
        & (landings[:, 1] >= 0)
        & (landings[:, 1] <= size - 1)
    )
    score = 0
    if np.any(inside):
        back = _lk_flow_reference(crop_next, crop_prev, landings[inside], cfg)
        fwd_inside = [f for f, ok in zip(valid, inside) if ok]
        for f, bk in zip(fwd_inside, back):
            if not bk.valid:
                continue
            err = np.hypot(
                f.displacement[0] + bk.displacement[0],
                f.displacement[1] + bk.displacement[1],
            )
            if err <= cfg.fb_max_error:
                score += 1
    return score / len(valid)


def _scene_pairs(boxes, cfg):
    n = len(boxes)
    return [
        ((t, i), (t2, j))
        for t in range(n)
        for t2 in range(t + 1, min(t + cfg.gap_max + 2, n))
        for i in range(len(boxes[t]))
        for j in range(len(boxes[t2]))
    ]


def _oracle_grouping(frames, boxes, thresholds, cfg):
    """Reference similarities of every compared pair and the partition per threshold."""
    crop, feats = _reference_state(frames, boxes, cfg)
    pairs = _scene_pairs(boxes, cfg)
    sims = {(a, b): _crop_similarity(crop[a], crop[b], cfg, feats[a]) for a, b in pairs}
    partitions = []
    for thr in thresholds:
        uf = optflow._UnionFind(list(crop))
        for (a, b), sim in sims.items():
            if sim > thr:
                uf.union(a, b)
        partitions.append([g.members for g in optflow._groups_from_union(uf, list(crop))])
    return sims, partitions, sum(len(feats[a]) for a, _b in pairs)


def _batched_sims(frames, boxes, cfg):
    """Every compared pair's similarity from the batched scorer group_boxes runs on."""
    scored = list(optflow._scored_pairs(frames, boxes, cfg))
    assert sorted((a, b) for a, b, _sim in scored) == sorted(_scene_pairs(boxes, cfg))
    return {(a, b): sim for a, b, sim in scored}


def _assert_matches_oracle(frames, boxes, cfg, thresholds=(0.2, 0.5, 0.9)):
    sims, partitions, n_points = _oracle_grouping(frames, boxes, thresholds, cfg)
    assert _batched_sims(frames, boxes, cfg) == sims
    for thr, members in zip(thresholds, partitions):
        groups = optflow.group_boxes(frames, boxes, thr, cfg)
        assert [g.members for g in groups] == members, thr
    return n_points


def _criterion7_scene(seed):
    g = rng(9000 + seed)
    n_frames = int(g.integers(2, 5))
    patches = [_noise_patch(seed * 3 + k) for k in range(2)]
    frames, boxes = [], []
    for _t in range(n_frames):
        f = np.full((48, 64), 0.3)
        fb = []
        for patch in patches:
            if g.random() < 0.7:
                px, py = int(g.integers(2, 40)), int(g.integers(2, 24))
                f[py : py + 20, px : px + 20] = patch
                fb.append((px, py, px + 20, py + 20))
        frames.append(f)
        boxes.append(fb)
    return frames, boxes


def test_batched_grouping_matches_oracle_on_criterion7_scenes():
    cfg = optflow.FlowConfig()
    for seed in range(200):
        frames, boxes = _criterion7_scene(seed)
        _assert_matches_oracle(frames, boxes, cfg)


def _driver_session_scene(frames_per_episode=20, seed=21):
    """Frames, pixel boxes and flow settings of the seed-21 5 x 20-frame session (by default)."""
    labels = ["safe_driving", "texting_left", "drinking", "talking_on_phone_left", "operating_radio"]
    bundle = gen_driver_session([(lbl, frames_per_episode) for lbl in labels], seed=seed, side_flip_fraction=0.1)
    frames = list(render_frames(bundle.payload["frames"], *bundle.ground_truth["frame_size"]))
    h, w = frames[0].shape
    boxes = [
        [(hb.box[0] * w, hb.box[1] * h, hb.box[2] * w, hb.box[3] * h) for hb in hands]
        for _pose, hands, _objects in bundle.payload["frames"]
    ]
    # the settings driver_session writes to session_config.json
    cfg = optflow.FlowConfig(gap_max=1, max_features=16, max_refinements=10)
    return frames, boxes, cfg


def test_group_boxes_traced_peak_stays_under_three_chunk_window_plane_stacks():
    # the plane buffer is one chunk window's stack (3 planes of its boxes, for the largest window); a chunk's
    # crops, corner response or window gathers add less than one more, and the groups' crop sums the rest
    frames, boxes, cfg = _driver_session_scene()
    cap = max(sum(map(len, boxes[t0 : t1 + cfg.gap_max + 1])) for t0, t1 in optflow._chunks(boxes, cfg))
    stack = 3 * cap * cfg.canonical_size**2 * 8
    tracemalloc.start()
    try:
        optflow.group_boxes(frames, boxes, cfg.group_threshold, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * stack, peak / stack


def test_batched_grouping_matches_oracle_on_driver_session():
    frames, boxes, cfg = _driver_session_scene()
    n_points = _assert_matches_oracle(frames, boxes, cfg)
    assert n_points > optflow.BATCH_POINTS  # group_boxes scores several batches


def test_batched_grouping_matches_oracle_across_small_batches(monkeypatch):
    # a budget of a few points closes batches between the pairs of one frame
    monkeypatch.setattr(optflow, "BATCH_POINTS", 5)
    cfg = optflow.FlowConfig(max_features=8)
    for seed in range(20):
        frames, boxes = _criterion7_scene(seed)
        _assert_matches_oracle(frames, boxes, cfg)


def test_batched_grouping_matches_oracle_with_empty_frames_and_gaps():
    a, b = _noise_patch(31), _noise_patch(77)
    frames, boxes = [], []
    for t in range(9):
        f = np.full((60, 80), 0.3)
        fb = []
        if t not in (2, 3, 6):  # empty frames, including a two-frame gap
            f[10 + t : 30 + t, 5 + 2 * t : 25 + 2 * t] = a
            fb.append((5 + 2 * t, 10 + t, 25 + 2 * t, 30 + t))
        if t % 3 == 0:
            f[35:55, 50:70] = b
            fb.append((50, 35, 70, 55))
        frames.append(f)
        boxes.append(fb)
    frames.append(np.full((60, 80), 0.5))  # a box with no features at all...
    boxes.append([(10, 10, 30, 30)])
    frames.append(frames[0])  # ...compared with a later box
    boxes.append(boxes[0])
    for gap_max in (0, 1, 2):
        _assert_matches_oracle(frames, boxes, optflow.FlowConfig(gap_max=gap_max))


def _recorded_grouping(monkeypatch, frames, boxes, threshold, cfg):
    """group_boxes' groups and the pairs it scored, in order."""
    scored = []
    scored_pairs = optflow._scored_pairs

    def spy(*args):
        for a, b, sim in scored_pairs(*args):
            scored.append((a, b))
            yield a, b, sim

    with monkeypatch.context() as m:
        m.setattr(optflow, "_scored_pairs", spy)
        groups = optflow.group_boxes(frames, boxes, threshold, cfg)
    return groups, scored


def _assert_skips_only_joined_pairs(monkeypatch, frames, boxes, cfg, thresholds=(0.2, 0.5, 0.9)):
    """Every pair group_boxes leaves unscored has both boxes in one group; returns the counts."""
    counts = []
    candidates = _scene_pairs(boxes, cfg)
    for thr in thresholds:
        groups, scored = _recorded_grouping(monkeypatch, frames, boxes, thr, cfg)
        assert len(set(scored)) == len(scored) and set(scored) <= set(candidates)
        group_of = {m: g.group_id for g in groups for m in g.members}
        for a, b in set(candidates) - set(scored):
            assert group_of[a] == group_of[b], (thr, a, b)
        counts.append(len(scored))
    return counts, len(candidates)


def test_group_boxes_skips_only_pairs_already_joined(monkeypatch):
    frames, boxes = _edge_scene()
    scenes = [(frames, boxes, optflow.FlowConfig())]
    scenes += [(*_criterion7_scene(seed), optflow.FlowConfig()) for seed in range(50)]
    for frames, boxes, cfg in scenes:
        _assert_skips_only_joined_pairs(monkeypatch, frames, boxes, cfg)
    # one-frame chunks: every wave is solved apart from the chunks around it
    monkeypatch.setattr(optflow, "BATCH_POINTS", 1)
    for frames, boxes, cfg in scenes[:20]:
        _assert_skips_only_joined_pairs(monkeypatch, frames, boxes, cfg)


def test_group_boxes_scores_fewer_pairs_on_driver_session(monkeypatch):
    frames, boxes, cfg = _driver_session_scene()
    counts, n_candidates = _assert_skips_only_joined_pairs(monkeypatch, frames, boxes, cfg)
    assert all(n < n_candidates for n in counts), (counts, n_candidates)


def _members(groups):
    return [g.members for g in groups]


def _groups_as_chunks_are_taken(monkeypatch, frames, boxes, cfg, order):
    """group_boxes over the chunks in *order*: its groups before each chunk is taken, then its result.

    Entry i holds the groups of the pairs whose first box lies in order[:i],
    with the crop sums of the boxes of those chunks.
    """
    keys = [(t, i) for t in range(len(boxes)) for i in range(len(boxes[t]))]
    ufs, found = [], []

    class Recorded(optflow._UnionFind):
        def __init__(self, items):
            super().__init__(items)
            ufs.append(self)

    def taken():  # group_boxes asks for a chunk only once it has joined the pairs of the last one
        for chunk in order:
            found.append(optflow._groups_from_union(ufs[-1], keys))
            yield chunk

    with monkeypatch.context() as m:
        m.setattr(optflow, "_UnionFind", Recorded)
        groups = optflow.group_boxes(frames, boxes, cfg.group_threshold, cfg, taken())
    return found + [groups]


def _joined(boxes, *partitions):
    """The finest partition coarser than each of *partitions*."""
    keys = [(t, i) for t in range(len(boxes)) for i in range(len(boxes[t]))]
    uf = optflow._UnionFind(keys)
    for members in (members for partition in partitions for members in partition):
        for m in members[1:]:
            uf.union(members[0], m)
    return _members(optflow._groups_from_union(uf, keys))


def _assert_every_split_gives_the_serial_partition(monkeypatch, frames, boxes, cfg):
    """For each k, the groups of chunks [0, k) joined with those of [k, n) are serial group_boxes' groups.

    Each side joins only boxes of the pairs whose first box lies in its chunks.
    merge_groups of both sides' groups gives serial merge_groups' partition.
    """
    chunks = list(optflow._chunks(boxes, cfg))
    starts = [t0 for t0, _t1 in chunks] + [len(boxes)]
    front = _groups_as_chunks_are_taken(monkeypatch, frames, boxes, cfg, chunks)
    serial = _members(front[-1])  # all chunks, in order
    merged = _members(optflow.merge_groups(front[-1], cfg.merge_threshold))
    # the back [k, n), taken one chunk at a time from the last: no chunk follows the one before it
    back = _groups_as_chunks_are_taken(monkeypatch, frames, boxes, cfg, chunks[::-1])[::-1]
    for k in range(len(chunks) + 1):
        assert all(m[-1][0] <= starts[k] + cfg.gap_max for m in _members(front[k]) if len(m) > 1), k
        assert all(m[0][0] >= starts[k] for m in _members(back[k]) if len(m) > 1), k
        assert _joined(boxes, _members(front[k]), _members(back[k])) == serial, k
        assert _members(optflow.merge_groups(front[k] + back[k], cfg.merge_threshold)) == merged, k
    # the rpca worker's blocks once the parent has taken [0, k): back halves of the rest, each in order
    k = len(chunks) // 3
    claims = pipeline._Claims(chunks[k:])
    blocks = list(claims.taken(1))
    claims.close()
    assert sorted(blocks) == chunks[k:] and blocks[0] == chunks[k + (len(chunks) - k) // 2]
    worker = optflow.group_boxes(frames, boxes, cfg.group_threshold, cfg, blocks)
    assert all(m[0][0] >= starts[k] for m in _members(worker) if len(m) > 1)
    assert _joined(boxes, _members(front[k]), _members(worker)) == serial
    assert _members(optflow.merge_groups(front[k] + worker, cfg.merge_threshold)) == merged
    return len(chunks)


def test_every_chunk_split_gives_the_serial_partition_on_criterion7_scenes(monkeypatch):
    monkeypatch.setattr(optflow, "BATCH_POINTS", 1)  # one chunk per frame
    cfg = optflow.FlowConfig()
    for seed in range(25):
        frames, boxes = _criterion7_scene(seed)
        _assert_every_split_gives_the_serial_partition(monkeypatch, frames, boxes, cfg)


def test_every_chunk_split_gives_the_serial_partition_on_driver_session(monkeypatch):
    frames, boxes, cfg = _driver_session_scene(frames_per_episode=80, seed=1)
    assert _assert_every_split_gives_the_serial_partition(monkeypatch, frames, boxes, cfg) == 50


@st.composite
def _generated_scene(draw):
    """A small scene: empty frames, boxes at the border, identical and flat boxes, few or many features."""
    patches = [_noise_patch(k) for k in range(3)]
    cfg = optflow.FlowConfig(gap_max=draw(st.integers(0, 2)), max_features=draw(st.sampled_from([1, 8, 32, 64])))
    frames, boxes = [], []
    for _t in range(draw(st.integers(2, 6))):
        f = np.full((48, 64), 0.3)
        fb = []
        for _k in range(draw(st.integers(0, 3))):
            if fb and draw(st.booleans()):  # the box before it again
                fb.append(fb[-1])
                continue
            px = draw(st.one_of(st.sampled_from([0, 44]), st.integers(0, 44)))
            py = draw(st.one_of(st.sampled_from([0, 28]), st.integers(0, 28)))
            patch = draw(st.sampled_from([None, *range(len(patches))]))  # None: a flat box
            if patch is not None:
                f[py : py + 20, px : px + 20] = patches[patch]
            fb.append((px, py, px + 20, py + 20))
        frames.append(f)
        boxes.append(fb)
    return frames, boxes, cfg


@given(scene=_generated_scene(), budget=st.sampled_from([1, 32, 128, optflow.BATCH_POINTS]), data=st.data())
def test_generated_scenes_group_and_merge_like_the_oracles(scene, budget, data):
    frames, boxes, cfg = scene
    thresholds = (0.2, 0.5, 0.9)
    sims, partitions, _n_points = _oracle_grouping(frames, boxes, thresholds, cfg)
    # a scene's point counts fall on either side of the budget its chunks and batches close at
    with mock.patch.object(optflow, "BATCH_POINTS", budget):
        assert _batched_sims(frames, boxes, cfg) == sims
        assert all(0.0 <= sim <= 1.0 for sim in sims.values())  # the range _fb_scores states
        # a front/back split as the pipeline's two processes take the chunks, the back in either order
        chunks = list(optflow._chunks(boxes, cfg))
        n = len(chunks)
        k = data.draw(st.integers(1, n - 1) if n > 1 else st.integers(0, n), label="k")  # each side takes some
        back_chunks = chunks[k:][:: data.draw(st.sampled_from([1, -1]), label="back order")]
        for thr, partition in zip(thresholds, partitions):
            serial = optflow.group_boxes(frames, boxes, thr, cfg)
            assert _members(serial) == partition, thr
            front = optflow.group_boxes(frames, boxes, thr, cfg, chunks[:k])
            back = optflow.group_boxes(frames, boxes, thr, cfg, back_chunks)
            assert _joined(boxes, _members(front), _members(back)) == partition, thr
            for groups in (serial, front + back):
                _assert_merge_matches_reference(groups, frames, boxes, cfg, (0.0, 0.5, 0.9))


def test_uint8_frames_give_the_same_scores_partitions_and_matrix_as_their_floats(tmp_path):
    frames, boxes, cfg = _driver_session_scene()
    for t, f in enumerate(frames):
        fileio.write_pgm(tmp_path / f"frame_{t:05d}.pgm", f)
    stack = fileio.read_frames(tmp_path)
    floats = stack / 255.0
    assert list(optflow._scored_pairs(stack, boxes, cfg)) == list(optflow._scored_pairs(floats, boxes, cfg))
    partitions = []
    for fr in (stack, floats):
        groups = optflow.group_boxes(fr, boxes, cfg.group_threshold, cfg)
        merged = optflow.merge_groups(groups, cfg.merge_threshold)
        partitions.append(([g.members for g in groups], [g.members for g in merged]))
    assert partitions[0] == partitions[1]
    for limit in (32, 200):  # resampled, and kept at full size
        a, b = (pipeline.frames_to_matrix(fr, limit) for fr in (stack, floats))
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_frames_to_matrix_refuses_frames_of_two_shapes():
    # both would resample to 32 x 32, but the output size is taken from the first frame alone
    frames = [np.full((100, 100), 0.5), np.full((50, 50), 0.25)]
    for limit in (32, 200):
        with pytest.raises(ValueError, match=r"differ in shape from the first frame's \(100, 100\)"):
            pipeline.frames_to_matrix(frames, limit)



def test_frames_to_matrix_at_full_size_holds_one_block_beside_the_matrix():
    # 200 uint8 frames of 72 x 96 kept at full size: a 10.5 MiB matrix, filled a block of frames at a time
    frames = np.random.default_rng(3).integers(0, 256, (200, 72, 96), dtype=np.uint8)
    want = np.stack([f.ravel() / 255.0 for f in frames], axis=1)
    tracemalloc.start()
    try:
        mat = pipeline.frames_to_matrix(frames, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mat, want)
    assert peak <= mat.nbytes + pipeline.RESAMPLE_BLOCK_BYTES, peak / mat.nbytes


def test_box_similarity_matches_oracle():
    cfg = optflow.FlowConfig()
    patch = _noise_patch(3)
    frames = [_patch_frame(80, 100, patch, 10 + 2 * t, 30) for t in range(2)]
    size = cfg.canonical_size
    for box_next in ((12, 30, 32, 50), (60, 5, 80, 25), (11, 31, 31, 51)):
        p = _canonical_rect_reference(frames[0], (10, 30, 30, 50), size, size)
        n = _canonical_rect_reference(frames[1], box_next, size, size)
        feats = _good_features_reference(p, cfg.max_features, cfg.feature_quality, cfg.window)
        expected = _crop_similarity(p, n, cfg, feats)
        assert optflow.box_similarity(frames[0], frames[1], (10, 30, 30, 50), box_next) == expected


# -- the per-box state builder against the per-image reference -----------------


def _edge_scene():
    """Boxes touching the right and bottom frame edges, a flat box and frames with no boxes."""
    patch = _noise_patch(5)
    frames, boxes = [], []
    for t in range(6):
        f = np.full((48, 64), 0.3)
        f[28:48, 44 - t : 64 - t] = patch
        frames.append(f)
        # the second box covers flat background and has no features
        boxes.append([] if t in (2, 3) else [(44.0 - t, 28.0, 64.0 - t, 48.0), (2.0, 2.0, 22.0, 22.0)])
    return frames, boxes


def _builder_state(frames, boxes, cfg):
    """Crops and features per box from the builder, a chunk of frames at a time."""
    crops, feats = {}, {}
    for t0, t1 in optflow._chunks(boxes, cfg):
        keys, stack = optflow._frame_crops(frames, boxes, t0, t1, cfg.canonical_size)
        planes = optflow._planes(stack)
        got = optflow._corners(planes, cfg.max_features, cfg.feature_quality, cfg.window)
        for key, c, f in zip(keys, stack, got):
            crops[key], feats[key] = c, f
    return crops, feats


@pytest.mark.parametrize("budget", [1, None, 10**9])
def test_box_state_builder_matches_per_image_reference(monkeypatch, budget):
    # budget 1: one frame with boxes per chunk; 10**9: one chunk for the whole scene
    if budget is not None:
        monkeypatch.setattr(optflow, "BATCH_POINTS", budget)
    cfg = optflow.FlowConfig()
    scenes = [_edge_scene()] + [_criterion7_scene(seed) for seed in range(200)]
    for frames, boxes in scenes:
        ref_crops, ref_feats = _reference_state(frames, boxes, cfg)
        crops, feats = _builder_state(frames, boxes, cfg)
        assert list(crops) == list(ref_crops)
        for key in ref_crops:
            assert np.array_equal(crops[key], ref_crops[key]), key
            assert np.array_equal(feats[key], ref_feats[key]), key
    frames, boxes = scenes[0]
    _crops, feats = _builder_state(frames, boxes, cfg)
    assert len(feats[(0, 0)]) > 0 and len(feats[(0, 1)]) == 0
    chunks = list(optflow._chunks(boxes, cfg))
    if budget == 1:
        assert all(sum(1 for t in range(t0, t1) if boxes[t]) == 1 for t0, t1 in chunks)
    elif budget == 10**9:
        assert chunks == [(0, len(frames))]
    for frames, boxes in scenes[:20]:
        _assert_matches_oracle(frames, boxes, cfg)


def test_corners_break_ties_like_reference():
    # equal responses: the rank order and the suppression radius decide what is kept
    pixels = np.zeros((20, 20))
    pixels[12, 5] = pixels[5, 12] = pixels[5, 5] = 1.0
    images = [pixels]
    for cell in (2, 3, 4, 5):
        images.append((np.indices((24, 24)).sum(0) // cell % 2).astype(float))
    for img in images:
        for window in (3, 5, 9):
            for max_count in (1, 2, 5, 100):
                got = optflow.good_features(img, max_count, 0.1, window)
                assert np.array_equal(got, _good_features_reference(img, max_count, 0.1, window))



# exact zeros of both signs and repeated values, so ties and signed zeros reach the filters
_FILTER_VALUES = st.sampled_from([0.0, -0.0, 0.25, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _filter_stacks(draw, elements=_FILTER_VALUES):
    """A stack (n, h, w) of 1 to 4 images from 3 to 40 pixels a side, square or not, and an odd window 3-11."""
    n, h, w = draw(st.integers(1, 4)), draw(st.integers(3, 40)), draw(st.integers(3, 40))
    values = draw(st.lists(elements, min_size=n * h * w, max_size=n * h * w))
    return np.array(values).reshape(n, h, w), draw(st.sampled_from([3, 5, 7, 9, 11]))


@settings(max_examples=100)
@given(
    stack=_filter_stacks(),
    signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=2, max_size=2),
    max_count=st.integers(1, 40),
    # 5e-324 makes quality * best underflow to 0, which leaves positive responses as the only rule
    quality=st.sampled_from([5e-324, 0.01, 0.1, 0.5, 1.0]),
)
# one faint dot: quality * best underflows, and only the dot's positive responses qualify, no zeros
@example(stack=(np.pad([[[0.5]]], ((0, 0), (6, 5), (8, 7))), 3), signs=[1.0, -1.0], max_count=40, quality=5e-324)
def test_corner_filters_give_scipys_bits(stack, signs, max_count, quality):
    images, window = stack
    n, h, w = images.shape
    r = window // 2
    # box means of two signed stacks, against uniform_filter's bits
    ix, iy = signs[0] * images, signs[1] * images[:, ::-1]
    means = optflow._box_means(ix, iy, window, np.empty((max(h, w) + 2 * r) * n * max(h, w)))
    for got, product in zip(means, (ix * ix, ix * iy, iy * iy)):
        want = uniform_filter(product, size=(1, window, window), mode="constant")
        assert np.array_equal(got.transpose(1, 2, 0).view(np.int64), want.view(np.int64))
    # maxima where the window fits, against maximum_filter
    if min(h, w) >= window:
        laid = np.ascontiguousarray(images.transpose(2, 0, 1))
        got = optflow._window_max(laid, window, (np.empty(images.size), np.empty(images.size)))
        want = maximum_filter(images, size=(1, window, window))[:, r : h - r, r : w - r]
        assert np.array_equal(got.transpose(1, 2, 0), want)
    # the corners of the batch and of each image, against the per-image reference on scipy
    batch = optflow._corners(optflow._planes(images), max_count, quality, window)
    for img, got in zip(images, batch):
        want = _good_features_reference(img, max_count, quality, window)
        assert np.array_equal(got, want)
        assert np.array_equal(optflow.good_features(img, max_count, quality, window), want)


def test_faint_dot_gives_no_zero_response_corners():
    # quality * best underflows to 0, yet no zero response, in the margin band or beside the dot, is a corner
    img = np.pad([[0.5]], ((6, 5), (8, 7)))
    assert optflow.good_features(img, 40, 5e-324, 3).tolist() == [[8.0, 6.0]]


def _pearson(a, b):
    """Correlation of two descriptors, centred and normalised for this pair alone; 0 where one is constant."""
    da = a - a.mean()
    db = b - b.mean()
    if not np.ptp(da) or not np.ptp(db):  # a constant's centred residue is rounding, not signal
        return 0.0
    return float(np.dot(da, db) / (np.linalg.norm(da) * np.linalg.norm(db)))


def _reference_descriptors(groups, frames, boxes, cfg):
    """Each group's mean of its members' reference crops, flattened."""
    size = cfg.canonical_size
    descs = []
    for g in groups:
        acc = np.zeros((size, size))
        for t, i in g.members:
            acc += _canonical_rect_reference(frames[t], boxes[t][i], size, size)
        descs.append((acc / max(len(g.members), 1)).ravel())
    return descs


def _merge_reference(groups, frames, boxes, merge_threshold, cfg, corr=None):
    """merge_groups with one reference crop per member box, comparing every pair of groups."""
    descs = _reference_descriptors(groups, frames, boxes, cfg)
    uf = optflow._UnionFind(range(len(groups)))
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if corr is not None:
                r = corr(descs[i], descs[j])
            else:  # 0 where one is constant, where corrcoef would divide by its rounding residue
                r = np.corrcoef(descs[i], descs[j])[0, 1] if np.ptp(descs[i]) and np.ptp(descs[j]) else 0.0
            if r > merge_threshold:
                uf.union(i, j)
    merged = optflow._groups_from_union(uf, range(len(groups)))
    return [sorted(m for i in g.members for m in groups[i].members) for g in merged]


def _correlations(descs):
    """Pearson correlation of every pair of descriptors, 0 where one is constant (its range is 0)."""
    c = np.array([np.ravel(d - d.mean()) for d in descs] or np.empty((0, 0)))
    norms = np.array([np.linalg.norm(d) if np.ptp(d) else 0.0 for d in c]).reshape(-1, 1)
    c = np.divide(c, norms, out=np.zeros_like(c), where=norms > 0)
    return c @ c.T


def _assert_merge_matches_reference(groups, frames, boxes, cfg, thresholds, corr=None):
    """merge_groups of *groups* against _merge_reference of their joined groups, at each threshold.

    The joined groups' crop-sum descriptors must correlate within 1e-12 of
    the reference descriptors, and no reference correlation may lie that
    close to a threshold unless both are equal. Returns the largest
    correlation difference.
    """
    joined = optflow.merge_groups(groups, 2.0)  # joins the groups that share a member, merges none
    ours = _correlations([g.crop_sum / len(g.members) for g in joined])
    ref = _correlations(_reference_descriptors(joined, frames, boxes, cfg))
    off = ~np.eye(len(joined), dtype=bool)
    diff = float(np.abs(ours - ref)[off].max(initial=0.0))
    assert diff <= 1e-12, diff
    for thr in thresholds:
        assert not np.any(off & (np.abs(ref - thr) <= 1e-12) & (ours != ref)), thr
        merged = optflow.merge_groups(groups, thr)
        assert _members(merged) == _merge_reference(joined, frames, boxes, thr, cfg, corr), thr
    return diff


def test_merge_groups_matches_reference_descriptors():
    cfg = optflow.FlowConfig()
    for seed in range(30):
        frames, boxes = _criterion7_scene(seed)
        for threshold in (2.0, 0.5):  # singletons, and the flow groups
            groups = optflow.group_boxes(frames, boxes, threshold, cfg)
            _assert_merge_matches_reference(groups, frames, boxes, cfg, (0.0, 0.5, 0.8, 0.9, 0.95, 0.99))


def test_merge_groups_matches_per_pair_reference_on_many_singletons():
    frames, boxes, cfg = _driver_session_scene()
    edge_frames, edge_boxes = _edge_scene()  # holds a flat box, whose descriptor is constant
    for frames, boxes in ((frames, boxes), (edge_frames, edge_boxes)):
        singletons = optflow.group_boxes(frames, boxes, 2.0, cfg)
        assert all(len(g.members) == 1 for g in singletons)
        _assert_merge_matches_reference(singletons, frames, boxes, cfg, (-0.5, 0.0, 0.9, 0.99), corr=_pearson)


def test_merge_groups_result_does_not_depend_on_the_order_of_its_groups():
    scenes = [_driver_session_scene()] + [(*_criterion7_scene(seed), optflow.FlowConfig()) for seed in range(5)]
    for frames, boxes, cfg in scenes:
        groups = optflow.group_boxes(frames, boxes, 0.5, cfg)
        for thr in (0.0, 0.5, 0.9):
            forward = optflow.merge_groups(groups, thr)
            assert optflow.merge_groups(groups[::-1], thr) == forward, thr


def test_flat_box_correlates_with_no_group():
    # found by the generated-scene test: 4096 crop samples of 0.3 average to 0.3 - 2**-54, so the
    # flat box's centred descriptor is a rounding residue, which must count as norm 0, not correlate above 0.0
    frames = [np.full((48, 64), 0.3), _patch_frame(48, 64, _noise_patch(0), 0, 0)]
    boxes = [[(0, 0, 20, 20)], [(0, 0, 20, 20)]]
    assert len(optflow.merge_groups(optflow.group_boxes(frames, boxes, 2.0), 0.0)) == 2


def test_merge_groups_rejects_empty_groups_and_groups_without_crops(monkeypatch):
    monkeypatch.setattr(optflow, "BATCH_POINTS", 1)  # one chunk per frame with boxes
    frames, boxes = _edge_scene()
    with pytest.raises(ValueError, match="empty"):
        optflow.merge_groups(optflow.group_boxes(frames, boxes, 2.0) + [optflow.BoxTrackGroup(9, [])], 0.9)
    # a run over the first chunk alone crops no box of the later frames
    chunks = list(optflow._chunks(boxes, optflow.FlowConfig()))
    front = optflow.group_boxes(frames, boxes, 0.5, None, chunks[:1])
    with pytest.raises(ValueError, match="holds no crop sum"):
        optflow.merge_groups(front, 0.9)
    back = optflow.group_boxes(frames, boxes, 0.5, None, chunks[1:])
    serial = optflow.group_boxes(frames, boxes, 0.5)
    assert optflow.merge_groups(front + back, 0.9) == optflow.merge_groups(serial, 0.9)


@pytest.mark.parametrize("bad", ["nan", "range", "box", "shape"])
def test_group_and_merge_reject_bad_frames_and_boxes(bad):
    patch = _noise_patch(3)
    frames = [_patch_frame(60, 80, patch, 15, 20) for _ in range(4)]
    boxes = [[(15, 20, 35, 40)] for _ in range(4)]
    if bad == "nan":
        frames[2][5, 5] = np.nan
    elif bad == "range":
        frames[2][5, 5] = 1.5
    elif bad == "box":
        boxes[2] = [(70, 20, 90, 40)]
    else:
        frames[2] = _patch_frame(50, 80, patch, 15, 20)
    with pytest.raises(ValueError):
        optflow.group_boxes(frames, boxes, 0.5)
