import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epkit import numkit, pipeline, rpca
from epkit.synth import gen_driver_session, gen_lowrank_sparse, render_frames, rng


def test_default_lambda():
    assert rpca.default_lambda(100, 400) == pytest.approx(0.05)
    assert rpca.default_lambda(9, 9) == pytest.approx(1.0 / 3.0)
    assert rpca.default_lambda(1, 1) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        rpca.RpcaConfig(tolerance=2.0)
    with pytest.raises(ValueError):
        rpca.RpcaConfig(penalty_growth=1.0)
    with pytest.raises(ValueError):
        rpca.RpcaConfig(lam=-0.5)


def test_decompose_constant_with_spike():
    x = np.full((6, 8), 5.0)
    x[2, 3] = 50.0
    r = rpca.decompose(x)
    assert r.converged
    assert np.abs(r.low_rank - 5.0).max() <= 1e-3
    assert abs(r.sparse[2, 3] - 45.0) <= 1e-3
    off = r.sparse.copy()
    off[2, 3] = 0.0
    assert np.abs(off).max() <= 1e-3


def test_decompose_rank_one_exactly_recovered():
    g = rng(11)
    x = np.outer(g.standard_normal(20), g.standard_normal(15))
    r = rpca.decompose(x)
    assert np.linalg.norm(r.low_rank - x) / np.linalg.norm(x) <= 1e-5
    assert np.abs(r.sparse).max() <= 1e-5 * np.abs(x).max()


def test_decompose_recovers_planted_structure():
    b = gen_lowrank_sparse(200, 200, 10, 0.05, 5.0, seed=7)
    r = rpca.decompose(b.payload["x"])
    low, sp = b.ground_truth["low_rank"], b.ground_truth["sparse"]
    assert np.linalg.norm(r.low_rank - low) / np.linalg.norm(low) <= 1e-4
    assert np.linalg.norm(r.sparse - sp) / np.linalg.norm(sp) <= 1e-4


def test_decompose_feasibility_and_rank_tail():
    b = gen_lowrank_sparse(120, 100, 6, 0.05, 5.0, seed=3)
    x = b.payload["x"]
    r = rpca.decompose(x)
    assert r.converged
    assert np.linalg.norm(x - r.low_rank - r.sparse) / np.linalg.norm(x) <= 1e-7
    assert np.count_nonzero(r.singular_values > 1e-6) <= min(x.shape)
    tail = r.rank_history[-10:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))  # shrinks or stabilizes


def test_decompose_scaling_equivariance():
    b = gen_lowrank_sparse(60, 50, 4, 0.05, 5.0, seed=13)
    x = b.payload["x"]
    cfg = rpca.RpcaConfig()
    base = rpca.decompose(x, cfg)
    for c in (2.0, 10.0):
        scaled = rpca.decompose(c * x, cfg)
        tol = 10 * cfg.tolerance * np.linalg.norm(c * x)
        assert np.linalg.norm(scaled.low_rank - c * base.low_rank) <= tol
        assert np.linalg.norm(scaled.sparse - c * base.sparse) <= tol


def test_decompose_flags_non_convergence():
    b = gen_lowrank_sparse(30, 30, 3, 0.05, 5.0, seed=5)
    r = rpca.decompose(b.payload["x"], rpca.RpcaConfig(max_iterations=2))
    assert not r.converged
    assert r.iterations == 2
    assert r.low_rank.shape == (30, 30)


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        rpca.decompose(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        rpca.decompose(np.array([[np.inf, 1.0], [0.0, 1.0]]))


def _decompose_reference(x, cfg=None):
    """The inexact ALM loop with one full SVD per iteration, as decompose ran
    before its singular-value step became warm-started and partial."""
    a = np.asarray(x, dtype=np.float64)
    cfg = cfg or rpca.RpcaConfig()
    lam = cfg.lam if cfg.lam is not None else rpca.default_lambda(*a.shape)
    x_fro = np.linalg.norm(a)
    sn = numkit.spectral_norm_estimate(a, tol=1e-4)
    rho = 1.25 / sn
    cap = cfg.penalty_cap if cfg.penalty_cap is not None else 1e7 * rho
    y = a / max(sn, float(np.max(np.abs(a))) / lam)
    s = np.zeros_like(a)
    rank_history = []
    for iterations in range(1, cfg.max_iterations + 1):
        left, sigma, right_t = np.linalg.svd(a - s + y / rho, full_matrices=False)
        sv = np.maximum(sigma - 1.0 / rho, 0.0)
        u = (left * sv) @ right_t
        rank_history.append(int(np.count_nonzero(sv)))
        t = a - u + y / rho
        s = np.sign(t) * np.maximum(np.abs(t) - lam / rho, 0.0)
        gap = a - u - s
        y = y + rho * gap
        rho = min(rho * cfg.penalty_growth, cap)
        residual = float(np.linalg.norm(gap) / x_fro)
        if residual <= cfg.tolerance:
            break
    return rpca.RpcaResult(
        low_rank=u,
        sparse=s,
        singular_values=sv,
        iterations=iterations,
        final_residual=residual,
        converged=residual <= cfg.tolerance,
        rank_history=rank_history,
    )


def _assert_matches_reference(x, cfg=None, got=None):
    ref = _decompose_reference(x, cfg)
    if got is None:
        got = rpca.decompose(x, cfg)
    assert got.iterations == ref.iterations
    assert got.rank_history == ref.rank_history
    assert got.converged == ref.converged
    for new, old in ((got.low_rank, ref.low_rank), (got.sparse, ref.sparse)):
        assert np.linalg.norm(new - old) <= 1e-6 * np.linalg.norm(old)
    assert np.allclose(got.singular_values, ref.singular_values, rtol=1e-6, atol=0.0)


def _session_matrix(seed=21, episode_frames=80):
    labels = ["safe_driving", "texting_left", "drinking", "talking_on_phone_left", "operating_radio"]
    bundle = gen_driver_session(
        [(label, episode_frames) for label in labels], seed=seed, side_flip_fraction=0.1
    )
    frames = list(render_frames(bundle.payload["frames"], *bundle.ground_truth["frame_size"]))
    return pipeline.frames_to_matrix(frames, 32)


def _planted(rows, cols, rank, seed):
    return gen_lowrank_sparse(rows, cols, rank, 0.05, 5.0, seed=seed).payload["x"]


REFERENCE_CASES = {
    **{f"criterion1-seed{seed}": (lambda seed=seed: _planted(200, 200, 10, seed)) for seed in range(20)},
    "768x600-rank24": lambda: _planted(768, 600, 24, 3),
    "session-seed21": _session_matrix,
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_decompose_matches_full_svd_reference(case):
    _assert_matches_reference(REFERENCE_CASES[case]())


@st.composite
def _planted_instances(draw):
    rows, cols = draw(st.integers(8, 60)), draw(st.integers(8, 60))
    rank = draw(st.integers(1, max(1, min(rows, cols) // 4)))
    fraction = draw(st.floats(0.0, 0.1))
    return gen_lowrank_sparse(rows, cols, rank, fraction, 5.0, seed=draw(st.integers(0, 2**32 - 1))).payload["x"]


@given(_planted_instances())
def test_decompose_matches_full_svd_reference_on_drawn_instances(x):
    _assert_matches_reference(x)
    with mock.patch.object(numkit, "gram_svd", lambda *args, **kwargs: None):  # every step through LAPACK
        _assert_matches_reference(x)


def _decompose_allocating(x, cfg=None):
    """decompose's loop as it ran before its iterates moved into preallocated
    matrices: every step allocates its result. The input is taken in C order, as decompose takes it."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    cfg = cfg or rpca.RpcaConfig()
    lam = cfg.lam if cfg.lam is not None else rpca.default_lambda(*a.shape)
    x_fro = np.linalg.norm(a)
    sn = numkit.spectral_norm_estimate(a, tol=1e-4)
    rho = 1.25 / sn
    cap = cfg.penalty_cap if cfg.penalty_cap is not None else 1e7 * rho
    y = a / max(sn, float(np.max(np.abs(a))) / lam)
    s = np.zeros_like(a)
    f = None
    rank_history = []
    for iterations in range(1, cfg.max_iterations + 1):
        y_rho = y / rho
        f = numkit.singular_value_threshold(a - s + y_rho, 1.0 / rho, None if f is None else f.right)
        rank_history.append(f.singular_values.size)
        gap = a - (f.left * f.singular_values) @ f.right.T
        y_rho += gap
        tau = lam / rho
        s = np.sign(y_rho) * np.maximum(np.abs(y_rho) - tau, 0.0)
        gap -= s
        y = y + rho * gap
        rho = min(rho * cfg.penalty_growth, cap)
        residual = float(np.linalg.norm(gap) / x_fro)
        if residual <= cfg.tolerance:
            break
    return rpca.RpcaResult(
        low_rank=(f.left * f.singular_values) @ f.right.T,
        sparse=s,
        singular_values=np.pad(f.singular_values, (0, min(a.shape) - f.singular_values.size)),
        iterations=iterations,
        final_residual=residual,
        converged=residual <= cfg.tolerance,
        rank_history=rank_history,
    )


def _assert_same_bits_as_allocating_loop(x, cfg=None):
    # the Gram product's bits depend on the memory layout, so x comes in C
    # order, in Fortran order and transposed; decompose takes each in C order,
    # so each gives the bits of its C-order copy
    layouts = (x, np.asfortranarray(x), x.T)
    results = [rpca.decompose(layout, cfg) for layout in (*layouts, np.ascontiguousarray(x.T))]
    for layout, got in zip(layouts, results):
        ref = _decompose_allocating(layout, cfg)
        for name in ("low_rank", "sparse", "singular_values"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        for name in ("iterations", "rank_history", "final_residual", "converged"):
            assert getattr(got, name) == getattr(ref, name), name
    for got, c_input in ((results[1], results[0]), (results[2], results[3])):
        for name in ("low_rank", "sparse", "singular_values"):
            assert getattr(got, name).tobytes() == getattr(c_input, name).tobytes(), name


@given(_planted_instances())
def test_decompose_in_place_matches_allocating_loop_on_drawn_instances(x):
    _assert_same_bits_as_allocating_loop(x)
    _assert_same_bits_as_allocating_loop(x, rpca.RpcaConfig(max_iterations=3))  # stopped mid-run


def test_decompose_in_place_matches_allocating_loop_on_frame_shaped_instance():
    _assert_same_bits_as_allocating_loop(REFERENCE_CASES["768x600-rank24"]())


def test_decompose_traced_peak_stays_under_seven_input_sized_matrices():
    # y, s and two work matrices persist; a full step adds its Gram matrix,
    # eigenvectors and other side, so the loop must allocate no matrix of x's shape
    x = REFERENCE_CASES["768x600-rank24"]()
    tracemalloc.start()
    try:
        rpca.decompose(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * x.nbytes, peak / x.nbytes


def test_decompose_frame_shaped_instance_makes_no_full_size_lapack_svd(monkeypatch):
    # iterations 1 and 2 shrink the whole matrix; the Gram matrix certifies both
    x = REFERENCE_CASES["768x600-rank24"]()
    shapes = []
    lapack_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return lapack_svd(a, *args, **kwargs)

    steps = []  # per shrinkage step: "full" once it runs the full step, else "warm"
    svt, gram_svd, svd = numkit.singular_value_threshold, numkit.gram_svd, numkit.svd

    def spy_svt(m, tau, basis=None):
        steps.append("warm")
        return svt(m, tau, basis)

    def spy_gram(a, tau, count=None):
        if count is None:
            steps[-1] = "full"
        return gram_svd(a, tau, count)

    def spy_svd(a):
        steps[-1] = "full"
        return svd(a)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(numkit, "singular_value_threshold", spy_svt)
    monkeypatch.setattr(numkit, "gram_svd", spy_gram)
    monkeypatch.setattr(numkit, "svd", spy_svd)
    got = rpca.decompose(x)
    monkeypatch.undo()
    assert x.shape not in shapes, shapes
    assert len(steps) == got.iterations
    assert [i for i, step in enumerate(steps, 1) if step == "full"] == [1, 2], steps
    _assert_matches_reference(x, got=got)


def test_decompose_rank_jump_misses_block_then_takes_full_step(monkeypatch):
    # geometric spectrum and a fast-growing penalty: several singular values
    # cross 1/rho in one iteration, more than a one-column margin can hold
    g = rng(0)
    left, _ = np.linalg.qr(g.standard_normal((80, 12)))
    right, _ = np.linalg.qr(g.standard_normal((60, 12)))
    x = (left * (100.0 * 0.3 ** np.arange(12))) @ right.T
    cfg = rpca.RpcaConfig(penalty_growth=30.0)
    calls = []
    subspace_iteration, gram_svd = numkit._subspace_iteration, numkit.gram_svd

    def spy_partial(a, tau, v):
        f = subspace_iteration(a, tau, v)
        calls.append("miss" if f is not None and f.singular_values[-1] > tau else "block")
        return f

    def spy_gram(m, tau, count=None):
        if count is None:  # the full step; a block step passes its count
            calls.append("full")
        return gram_svd(m, tau, count)

    monkeypatch.setattr(numkit, "SVT_OVERSAMPLING", 1)
    monkeypatch.setattr(numkit, "_subspace_iteration", spy_partial)
    monkeypatch.setattr(numkit, "gram_svd", spy_gram)
    _assert_matches_reference(x, cfg)
    missed = [i for i, c in enumerate(calls) if c == "miss"]
    assert missed and all(calls[i + 1] == "full" for i in missed), calls


def test_decompose_warm_step_falls_back_like_the_full_step(monkeypatch):
    # the divide-and-conquer driver converges nowhere: warm blocks and full steps both fall back to gesvd
    x = _planted(200, 200, 10, seed=3)
    warm = []
    subspace_iteration = numkit._subspace_iteration

    def spy_partial(a, tau, v):
        warm.append(v.shape)
        return subspace_iteration(a, tau, v)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(numkit, "gram_svd", lambda *args, **kwargs: None)
    monkeypatch.setattr(numkit, "_subspace_iteration", spy_partial)
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    got = rpca.decompose(x)
    monkeypatch.undo()
    assert warm
    _assert_matches_reference(x, None, got)


@pytest.mark.parametrize("case", ["768x600-rank24", "criterion1-seed0"])
def test_decompose_warm_blocks_settle_within_their_budget_on_recovery_instances(monkeypatch, case):
    # the shapes rpca_recovery solves: every warm block settles before its step budget
    x = REFERENCE_CASES[case]()
    blocks, steps = [], []
    qr, subspace_iteration = np.linalg.qr, numkit._subspace_iteration

    def spy_qr(a, *args, **kwargs):
        steps.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def spy_partial(a, tau, v):
        steps.clear()
        f = subspace_iteration(a, tau, v)
        blocks.append((len(steps), numkit._step_budget(*a.shape, v.shape[1]), f is not None))
        return f

    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    monkeypatch.setattr(numkit, "_subspace_iteration", spy_partial)
    rpca.decompose(x)
    monkeypatch.undo()
    assert blocks and all(settled and taken < budget for taken, budget, settled in blocks), blocks


def test_decompose_is_byte_identical_across_runs():
    x = _planted(200, 200, 10, seed=7)
    first, second = rpca.decompose(x), rpca.decompose(x)
    assert first.low_rank.tobytes() == second.low_rank.tobytes()
    assert first.sparse.tobytes() == second.sparse.tobytes()


@pytest.mark.parametrize("fraction, code", [("0.05", 0), ("0.3", 1)])
def test_recovery_benchmark_exits_1_when_recovery_breaks_down(fraction, code):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(root / "scripts" / "recovery_benchmark.py"), "--size", "60",
                           "--rank", "3", "--seeds", "1", "--fractions", fraction],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == code, done.stderr
    assert ("<- breakdown" in done.stdout) == bool(code)
