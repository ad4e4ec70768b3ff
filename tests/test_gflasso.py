import dataclasses

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, strategies as st
from scipy.linalg import solveh_banded

from epkit import gflasso, numkit
from epkit.fusion import PoseFrame
from epkit.synth import gen_driver_session, gen_piecewise, rng
from gfl_reference import differencing_matrix, oracle_solve


def test_differencing_matrix_first_order():
    q = differencing_matrix(3, 1)
    assert np.array_equal(q, np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]))


def test_differencing_matrix_second_order():
    q = differencing_matrix(4, 2)
    v = rng(1).standard_normal((3, 4))
    vq = v @ q
    expected = v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]
    assert np.allclose(vq, expected)


def test_differencing_matrix_annihilates_constants():
    q = differencing_matrix(10, 1)
    assert np.allclose(np.ones(10) @ q, 0.0)


def test_differencing_matrix_rejects_bad_order():
    with pytest.raises(ValueError):
        differencing_matrix(3, 3)


def test_solve_constant_signal_is_fixed_point():
    x = np.full((3, 7), 2.5)
    r = gflasso.solve(x, np.ones_like(x), gflasso.GflConfig(lam=5.0))
    assert np.abs(r.smoothed - x).max() <= 1e-9
    assert r.jump_strengths.max() <= 1e-9
    assert r.jump_strengths.shape == (6,)


def test_solve_huge_lambda_gives_row_means():
    x = np.array([[0.0, 1, 2, 3, 4, 5], [5, 3, 1, 1, 3, 5.0]])
    lam = 1e6 * np.linalg.norm(x)
    r = gflasso.solve(x, np.ones_like(x), gflasso.GflConfig(lam=lam))
    assert np.abs(r.smoothed - x.mean(axis=1, keepdims=True)).max() <= 1e-4
    assert r.jump_strengths.max() <= 1e-6


def test_solve_agrees_with_oracle_on_two_row_example():
    x = np.array([[0.0, 0, 0, 4, 4, 4], [1, 1, 1, -3, -3, -3.0]])
    w = np.ones_like(x)
    cfg = gflasso.GflConfig(lam=1.0)
    ra = gflasso.solve(x, w, cfg)
    ro = oracle_solve(x, w, cfg)
    assert abs(ra.objective - ro.objective) <= 1e-6 * (1 + abs(ro.objective))
    # the only jump sits between frames 2 and 3
    assert int(np.argmax(ra.jump_strengths)) == 2


def test_solve_rejects_bad_weights():
    x = np.ones((2, 5))
    w = np.ones((2, 5))
    w[1] = 0.0
    with pytest.raises(ValueError, match="row 1"):
        gflasso.solve(x, w, gflasso.GflConfig(lam=1.0))
    with pytest.raises(ValueError):
        gflasso.solve(x, -np.ones((2, 5)), gflasso.GflConfig(lam=1.0))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_weight_row_needs_order_scored_frames(order):
    # diag(w^2) + Q Q^T is nonsingular exactly when the row is scored in at least order frames
    x = rng(order).standard_normal((2, 12))
    q = differencing_matrix(12, order)
    cfg = gflasso.GflConfig(lam=1.0, order=order)
    for scored in (order, order - 1):
        w = np.ones_like(x)
        w[1] = 0.0
        w[1, [2, 5, 9, 10][:scored]] = 0.8
        assert (np.linalg.matrix_rank(np.diag(w[1] ** 2) + q @ q.T) == 12) == (scored == order)
        if scored == order:
            assert np.isfinite(gflasso.solve(x, w, cfg).smoothed).all()
        else:
            with pytest.raises(ValueError, match=rf"weight row 1 has fewer entries with a positive square \({scored}\) than order {order}"):
                gflasso.solve(x, w, cfg)
    # a weight whose square underflows to 0 adds nothing to the diagonal, like a 0
    w[1, [2, 5, 9, 10][:order]] = 0.8
    w[1, 2] = 1e-200
    with pytest.raises(ValueError, match=rf"weight row 1 has fewer entries with a positive square \({order - 1}\) than order {order}"):
        gflasso.solve(x, w, cfg)


def test_oracle_lambda_zero_returns_input():
    x = rng(4).standard_normal((2, 6))
    r = oracle_solve(x, np.ones_like(x), gflasso.GflConfig(lam=0.0))
    assert np.array_equal(r.smoothed, x)


def test_oracle_one_dimensional_analytic_solution():
    # 1/2 (v1-0)^2 + 1/2 (v2-1)^2 + lam |v2-v1| with lam=0.4 -> (0.4, 0.6)
    r = oracle_solve(
        np.array([[0.0, 1.0]]), np.ones((1, 2)), gflasso.GflConfig(lam=0.4)
    )
    assert np.allclose(r.smoothed, [[0.4, 0.6]], atol=1e-7)
    assert abs(r.jump_strengths[0] - 0.2) <= 1e-7


def test_oracle_rejects_large_instances_and_zero_weights():
    with pytest.raises(ValueError):
        oracle_solve(
            np.ones((20, 20)), np.ones((20, 20)), gflasso.GflConfig(lam=1.0)
        )
    w = np.ones((1, 4))
    w[0, 2] = 0.0
    with pytest.raises(ValueError):
        oracle_solve(np.ones((1, 4)), w, gflasso.GflConfig(lam=1.0))


def test_solve_oracle_agreement_random_instances():
    for i in range(12):
        g = rng(900 + i)
        d, t = int(g.integers(1, 4)), int(g.integers(2, 11))
        x = 2.0 * g.standard_normal((d, t))
        w = g.uniform(0.2, 1.0, size=(d, t))
        p = 1 if t < 4 else int(g.integers(1, 3))
        cfg = gflasso.GflConfig(lam=float(g.uniform(0.05, 2.0)), order=p)
        ra = gflasso.solve(x, w, cfg)
        ro = oracle_solve(x, w, cfg)
        assert abs(ra.objective - ro.objective) <= 1e-6 * (1 + abs(ro.objective))


def test_time_reversal_symmetry():
    g = rng(55)
    x = g.standard_normal((3, 12))
    w = g.uniform(0.3, 1.0, size=(3, 12))
    cfg = gflasso.GflConfig(lam=0.7)
    fwd = gflasso.solve(x, w, cfg)
    rev = gflasso.solve(x[:, ::-1], w[:, ::-1], cfg)
    assert np.abs(fwd.jump_strengths - rev.jump_strengths[::-1]).max() <= 1e-6


def test_zero_weight_entries_never_matter():
    g = rng(66)
    x = g.standard_normal((3, 10))
    w = g.uniform(0.3, 1.0, size=(3, 10))
    w[1, 4] = 0.0
    w[2, 7] = 0.0
    cfg = gflasso.GflConfig(lam=0.8)
    base = gflasso.solve(x, w, cfg)
    x2 = x.copy()
    x2[1, 4] += 100.0
    x2[2, 7] -= 50.0
    perturbed = gflasso.solve(x2, w, cfg)
    assert np.abs(base.smoothed - perturbed.smoothed).max() <= 1e-8


def test_block_banded_solve_matches_per_row_solves(monkeypatch):
    # solve's one factor of all rows, checked against one factor per row of the same band
    g = rng(67)
    d, t = 4, 30
    bands, solves = [], []

    class PerRowChecked(numkit.BandCholesky):
        def __init__(self, ab):
            super().__init__(ab)
            self.ab = ab
            bands.append(ab.tobytes())

        def solve(self, b):
            solves.append(b)
            got = super().solve(b)
            for lo in range(0, b.size, t):
                row = numkit.BandCholesky(self.ab[:, lo : lo + t].copy()).solve(b[lo : lo + t])
                assert np.array_equal(got[lo : lo + t], row)
            return got

    monkeypatch.setattr(gflasso, "BandCholesky", PerRowChecked)
    for order in (1, 2, 3):
        bands.clear()
        solves.clear()
        penalties = (0.01, 1.0, 100.0)
        for penalty in penalties:
            x = g.standard_normal((d, t))
            w = g.uniform(0.3, 1.0, size=(d, t))
            w[g.random((d, t)) < 0.2] = 0.0  # zero-weight entries
            w[:, 0] = 1.0  # no row without a positive weight
            cfg = gflasso.GflConfig(lam=0.8, order=order, admm_penalty=penalty, max_iterations=300)
            gflasso.solve(x, w, cfg)
        assert len(set(bands)) > len(penalties), order  # rho changed within a solve, and the patch was reached
        assert len(bands) < len(solves) / 10, order  # factored when rho changes, not at every solve


def _outcome(solve, ab, b):
    """solve(ab, b)'s bits, or the text of the LinAlgError it raised."""
    try:
        return solve(ab, b).tobytes()
    except np.linalg.LinAlgError as exc:
        return str(exc)


def _elbow_scored(poses, score):
    return [dataclasses.replace(p, joints={**p.joints, "l_elbow": (*p.joints["l_elbow"][:2], score)}) for p in poses]


@pytest.mark.parametrize("binding", [
    pytest.param(numkit._BAND_LAPACK, id="numpy-openblas",
                 marks=pytest.mark.skipif(numkit._BAND_LAPACK is None, reason="numpy exports no band routines")),
    pytest.param(scipy.linalg.lapack, id="scipy-lapack"),
])
def test_band_factor_gives_solveh_bandeds_bits_and_errors(monkeypatch, binding):
    monkeypatch.setattr(numkit, "_BAND_LAPACK", binding)

    def factored(ab, b):
        return numkit.BandCholesky(ab).solve(b)

    g = rng(68)
    # a 6-frame session whose l_elbow scores vanish next to rho Q Q^T
    poses = [p for p, _h, _o in gen_driver_session([("safe_driving", 6)], seed=4).payload["frames"]]
    faint_x, faint_w = gflasso.normalize_and_weight(_elbow_scored(poses, 1e-7))
    for order in (1, 2, 3, 4):
        failed = []
        for rho in (0.01, 1.0, 100.0):
            for w in (g.uniform(0.3, 1.0, size=(4, 30)) * (g.random((4, 30)) > 0.2), faint_w):
                d, t = w.shape
                ab = np.tile(rho * gflasso._qqt_band_upper(t, order), d)
                ab[order] += (w * w).ravel()
                b = g.standard_normal(d * t)
                want = _outcome(solveh_banded, ab, b)
                assert _outcome(factored, ab, b) == want, (order, rho)
                failed += [want] if isinstance(want, str) else []
        # non-finite bands and right-hand sides are refused, as solveh_banded refuses them
        ab = np.tile(gflasso._qqt_band_upper(30, order), 4)
        ab[order] += 1.0
        for bad in (np.nan, np.inf):
            broken = ab.copy()
            broken[order, 3] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                numkit.BandCholesky(broken)
            with pytest.raises(ValueError, match="infs or NaNs"):
                numkit.BandCholesky(ab).solve(np.full(ab.shape[1], bad))
        assert failed or order == 1, order  # the faint rows fail to factor at rho 100 from order 2
    # and the solve whose penalty grows until they fail, with the leading minor solveh_banded named
    with pytest.raises(np.linalg.LinAlgError, match="^30th leading minor not positive definite$"):
        gflasso.solve(faint_x, faint_w, gflasso.GflConfig(order=1))


def test_lambda_path_endpoints():
    g = rng(77)
    x = g.standard_normal((2, 8))
    w = np.ones_like(x)
    lo = gflasso.solve(x, w, gflasso.GflConfig(lam=0.0))
    assert np.abs(lo.smoothed - x).max() <= 1e-6
    hi = gflasso.solve(x, w, gflasso.GflConfig(lam=1e6 * np.linalg.norm(x)))
    assert hi.jump_strengths.max() <= 1e-8


def test_extract_change_points_examples():
    s = [0.1, 5.0, 0.2, 3.0]
    lab = gflasso.extract_change_points(s, 4.0, 1, 5)
    assert lab.change_points == [1]
    lab2 = gflasso.extract_change_points(s, 2.0, 1, 5)
    assert lab2.change_points == [1, 3]
    assert set(lab.change_points) <= set(lab2.change_points)
    lab3 = gflasso.extract_change_points([0.0, 0.0, 0.0], 0.0, 1, 4)
    assert lab3.change_points == []
    assert lab3.group_ids == [0, 0, 0, 0]


def test_extract_change_points_group_ids():
    lab = gflasso.extract_change_points([0.1, 5.0, 0.2, 3.0], 2.0, 1, 5)
    # boundaries after frames 1 and 3
    assert lab.group_ids == [0, 0, 1, 1, 2]


def test_segment_labeling_rule_and_group_ids():
    assert gflasso.SegmentLabeling([], 3).group_ids == [0, 0, 0]
    assert gflasso.SegmentLabeling([0, 3], 6).group_ids == [0, 1, 1, 1, 2, 2]
    for cps, message in (([2, 2], "strictly increasing"), ([-1], r"lie in \[0, 5\)"), ([5], r"lie in \[0, 5\)"),
                         ([1.0], "must be an integer"), ([True], "must be an integer")):
        with pytest.raises(ValueError, match=message):
            gflasso.SegmentLabeling(cps, 6)


def test_extract_change_points_min_gap_and_ties():
    # equal strengths: earlier index wins under min_gap suppression
    lab = gflasso.extract_change_points([3.0, 0.0, 3.0], 1.0, 3, 4)
    assert lab.change_points == [0]
    # higher strength wins regardless of position
    lab2 = gflasso.extract_change_points([2.0, 0.0, 5.0], 1.0, 3, 4)
    assert lab2.change_points == [2]
    with pytest.raises(ValueError):
        gflasso.extract_change_points([1.0], 0.5, 0, 2)


@given(st.integers(0, 2**32 - 1))
def test_threshold_nesting_property(seed):
    g = rng(seed)
    s = g.uniform(0.0, 4.0, size=int(g.integers(1, 40)))
    t1 = float(g.uniform(0.0, 4.0))
    t2 = float(g.uniform(0.0, t1)) if t1 > 0 else 0.0
    hi = set(gflasso.extract_change_points(s, t1, 1, s.size + 1).change_points)
    lo = set(gflasso.extract_change_points(s, t2, 1, s.size + 1).change_points)
    assert hi <= lo


def _pose_stream(values, scores):
    # values/scores: arrays (8, T) in ARM_SERIES row order
    frames = []
    t = values.shape[1]
    for i in range(t):
        joints = {}
        for row, (joint, axis) in enumerate(gflasso.ARM_SERIES):
            x, y, sc = joints.get(joint, (0.0, 0.0, 0.0))
            coord = values[row, i]
            if axis == 0:
                joints[joint] = (coord, y, scores[row, i])
            else:
                joints[joint] = (x, coord, scores[row, i])
        frames.append(PoseFrame(frame_index=i, joints=joints))
    return frames


def test_normalize_and_weight_constant_stream():
    vals = np.full((8, 5), 0.4)
    stream = _pose_stream(vals, np.ones((8, 5)))
    x, w = gflasso.normalize_and_weight(stream)
    assert np.array_equal(x, np.zeros((8, 5)))
    assert np.array_equal(w, np.ones((8, 5)))


def test_normalize_and_weight_zero_score_entries():
    g = rng(12)
    vals = g.uniform(0.1, 0.9, size=(8, 6))
    scores = np.ones((8, 6))
    scores[0, 2] = 0.0  # l_wrist x and y share the frame-2 score of that joint
    scores[1, 2] = 0.0
    stream = _pose_stream(vals, scores)
    x, w = gflasso.normalize_and_weight(stream)
    assert w[0, 2] == 0.0 and w[1, 2] == 0.0
    assert x[0, 2] == 0.0
    observed = np.delete(vals[0], 2)
    assert x[0, 0] == pytest.approx((vals[0, 0] - observed.mean()) / observed.std())


def test_normalize_and_weight_missing_joint_raises():
    frames = [
        PoseFrame(frame_index=i, joints={"l_wrist": (0.1, 0.2, 0.9)}) for i in range(4)
    ]
    with pytest.raises(ValueError, match="r_wrist"):
        gflasso.normalize_and_weight(frames)
    with pytest.raises(ValueError):
        gflasso.normalize_and_weight([])


def test_session_boundaries_recovered_end_to_end():
    bundle = gen_driver_session(
        [("safe_driving", 60), ("drinking", 60), ("texting_left", 60)],
        seed=5,
    )
    poses = [p for p, _h, _o in bundle.payload["frames"]]
    x, w = gflasso.normalize_and_weight(poses)
    r = gflasso.solve(x, w, gflasso.GflConfig(lam=3.0))
    lab = gflasso.extract_change_points(
        r.jump_strengths, 0.25 * r.jump_strengths.max(), 5, n_frames=len(poses)
    )
    for boundary in (59, 119):
        assert any(abs(c - boundary) <= 2 for c in lab.change_points), (
            boundary,
            lab.change_points,
        )


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_qqt_band_is_the_banded_gram_of_the_differencing_matrix(p):
    for t in (p + 1, p + 2, p + 7, 40):
        q = differencing_matrix(t, p)
        gram = q @ q.T
        expected = np.zeros((p + 1, t))
        for off in range(p + 1):  # upper banded storage: row p - off holds the off-th superdiagonal
            expected[p - off, off:] = np.diagonal(gram, off)
        assert np.array_equal(gflasso._qqt_band_upper(t, p), expected)  # integer stencils: exact
        # the banded products against the dense ones, on integers so that both are exact
        g = rng(100 * p + t)
        x = g.integers(-9, 10, size=(3, t)).astype(np.float64)
        y = g.integers(-9, 10, size=(3, t - p)).astype(np.float64)
        assert np.array_equal(gflasso._apply_q(x, p), x @ q)
        assert np.array_equal(gflasso._apply_q_adjoint(y, p, t), y @ q.T)


def _normalize_and_weight_per_frame(pose_stream):
    """The former per-frame, per-row normalize_and_weight, kept as the reference."""
    frames = list(pose_stream)
    if not frames:
        raise ValueError("pose stream is empty")
    t = len(frames)
    x = np.zeros((len(gflasso.ARM_SERIES), t))
    w = np.zeros((len(gflasso.ARM_SERIES), t))
    for row, (joint, axis) in enumerate(gflasso.ARM_SERIES):
        vals = np.zeros(t)
        scores = np.zeros(t)
        for i, frame in enumerate(frames):
            entry = frame.joints.get(joint)
            if entry is None:
                continue
            vals[i] = entry[axis]
            scores[i] = entry[2]
        observed = scores > 0
        if not observed.any():
            raise ValueError(f"joint {joint!r} is missing from every frame")
        mu = vals[observed].mean()
        sd = vals[observed].std()
        if sd > 0:
            x[row, observed] = (vals[observed] - mu) / sd
        w[row] = scores
    return x, w


@st.composite
def _pose_streams(draw):
    """Up to 12 frames whose arm joints may be missing, scored 0 or below, integer, or equal across frames."""
    coord = st.sampled_from([0, 1, 0.25, 0.5]) | st.floats(-1.0, 2.0)
    score = st.sampled_from([-0.5, 0, 0.0, 1]) | st.floats(0.0, 1.0)
    joint = st.none() | st.tuples(coord, coord, score) | st.tuples(coord, coord, score)
    frames = []
    for i in range(draw(st.integers(0, 12))):
        joints = {"head": (0.5, 0.2, 0.9)}
        for name in ("l_wrist", "r_wrist", "l_elbow", "r_elbow"):
            entry = draw(joint)
            if entry is not None:
                joints[name] = entry
        frames.append(PoseFrame(frame_index=i, joints=joints))
    return frames


@given(_pose_streams())
def test_normalize_and_weight_matches_per_frame_reference_on_drawn_streams(frames):
    try:
        want = _normalize_and_weight_per_frame(frames)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            gflasso.normalize_and_weight(frames)
        assert str(info.value) == str(exc)
        return
    got = gflasso.normalize_and_weight(frames)
    for g, r in zip(got, want):
        assert g.dtype == r.dtype and g.shape == r.shape and g.flags.c_contiguous
        assert g.tobytes() == r.tobytes()
