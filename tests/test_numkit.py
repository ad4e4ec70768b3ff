import numpy as np
import pytest
from hypothesis import given, strategies as st

from epkit import numkit
from epkit.synth import rng


def test_svd_identity():
    f = numkit.svd(np.eye(3))
    assert np.allclose(f.singular_values, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    f = numkit.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(f.singular_values, [3.0, 2.0, 1.0])


def test_svd_matches_gram_eigenvalues():
    # independent oracle: eigenvalues of M^T M give the squared singular values
    m = rng(101).standard_normal((5, 4))
    f = numkit.svd(m)
    gram_eigs = np.linalg.eigvalsh(m.T @ m)[::-1]
    assert np.allclose(f.singular_values, np.sqrt(np.maximum(gram_eigs, 0)), atol=1e-10)
    rel_err = np.linalg.norm(f.reconstruct() - m) / np.linalg.norm(m)
    assert rel_err <= 1e-8


def test_svd_factor_invariants():
    m = rng(7).standard_normal((9, 6))
    f = numkit.svd(m)
    r = min(m.shape)
    assert f.left.shape == (9, r) and f.right.shape == (6, r)
    assert np.max(np.abs(f.left.T @ f.left - np.eye(r))) <= 1e-10
    assert np.max(np.abs(f.right.T @ f.right - np.eye(r))) <= 1e-10
    assert np.all(np.diff(f.singular_values) <= 0)
    assert np.all(f.singular_values >= 0)


def test_svd_reconstruction_on_many_seeded_matrices():
    g = rng(2024)
    for _ in range(100):
        rows = int(g.integers(1, 65))
        cols = int(g.integers(1, 65))
        m = g.standard_normal((rows, cols))
        f = numkit.svd(m)
        rel = np.linalg.norm(f.reconstruct() - m) / max(np.linalg.norm(m), 1e-300)
        assert rel <= 1e-8, (rows, cols, rel)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        numkit.svd(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        numkit.svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_svd_nonconvergence_error_names_dimensions(monkeypatch):
    calls = []

    def boom(*args, **kwargs):
        calls.append(kwargs.get("lapack_driver"))
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    monkeypatch.setattr("scipy.linalg.svd", boom)
    with pytest.raises(RuntimeError, match="7x4"):
        numkit.svd(np.ones((7, 4)))
    assert calls == [None, "gesvd"]  # numpy's driver, then the scipy fallback


def test_soft_threshold_examples():
    assert np.allclose(
        numkit.soft_threshold(np.array([[2.0, -0.5, 0.0]]), 1.0), [[1.0, 0.0, 0.0]]
    )
    m = rng(3).standard_normal((4, 5))
    assert np.array_equal(numkit.soft_threshold(m, 0.0), m)
    assert np.allclose(numkit.soft_threshold(np.array([[-3.5]]), 1.25), [[-2.25]])


@pytest.mark.parametrize("m, tau", [
    (np.array([[-0.5, -0.0, 0.0, 0.5]]), 1.0),  # within tau: -0.0 for a negative entry, as sign(x) * 0 gives
    (np.zeros((3, 4)), 0.25),
    (rng(3).standard_normal((4, 5)), 0.0),
    (rng(4).standard_normal((6, 7)), 0.7),
])
def test_soft_threshold_out_gives_the_bits_of_the_formula(m, tau):
    expected = np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)
    out = np.full(m.shape, np.nan)
    assert numkit.soft_threshold(m, tau, out=out) is out
    for got in (out, numkit.soft_threshold(m, tau)):
        assert got.tobytes() == expected.tobytes()


def test_soft_threshold_refuses_an_out_that_overlaps_the_input():
    m = rng(5).standard_normal((4, 6))
    before = m.copy()
    for out in (m, m[:, :], m.T.T):
        with pytest.raises(ValueError, match="overlap"):
            numkit.soft_threshold(m, 0.1, out=out)
    with pytest.raises(ValueError, match="overlap"):
        numkit.soft_threshold(m[:, :3], 0.1, out=m[:, 3:])  # may share memory: one buffer
    assert np.array_equal(m, before)


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        numkit.soft_threshold(np.zeros((2, 2)), -0.1)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
def test_soft_threshold_nonexpansive(seed, tau):
    g = rng(seed)
    a = g.standard_normal((6, 7))
    b = g.standard_normal((6, 7))
    lhs = np.linalg.norm(numkit.soft_threshold(a, tau) - numkit.soft_threshold(b, tau))
    assert lhs <= np.linalg.norm(a - b) + 1e-12


def test_svt_diagonal():
    out = numkit.singular_value_threshold(np.diag([3.0, 2.0, 1.0]), 1.5)
    rank = out.singular_values.size
    assert np.allclose(np.sort(np.diag(out))[::-1], [1.5, 0.5, 0.0], atol=1e-12)
    assert rank == 2


def test_svt_tau_zero_is_identity():
    m = rng(5).standard_normal((6, 4))
    out = numkit.singular_value_threshold(m, 0.0)
    rank = out.singular_values.size
    assert np.allclose(out, m, atol=1e-10)
    assert rank == 4


def test_svt_rank_one_keeps_directions():
    g = rng(17)
    u = g.standard_normal(8)
    v = g.standard_normal(5)
    u *= 10.0 / (np.linalg.norm(u) * np.linalg.norm(v))
    m = np.outer(u, v)  # sigma = 10 by construction
    out = numkit.singular_value_threshold(m, 2.0)
    rank = out.singular_values.size
    assert rank == 1
    f = numkit.svd(out)  # oracle check on the shrunk factorization
    assert abs(f.singular_values[0] - 8.0) <= 1e-9
    assert np.allclose(out, m * 0.8, atol=1e-9)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_svt_shrinks_nuclear_norm(seed, tau):
    m = rng(seed).standard_normal((5, 6))
    out = numkit.singular_value_threshold(m, tau)
    nuc = lambda a: np.linalg.svd(a, compute_uv=False).sum()
    assert nuc(out) <= nuc(m) + 1e-9


@pytest.mark.parametrize("basis_rank", [0, 2, 5])
def test_svt_warm_start_matches_full_svd(monkeypatch, basis_rank):
    g = rng(23)
    signal = (g.standard_normal((80, 5)) * [40.0, 30.0, 20.0, 10.0, 5.0]) @ g.standard_normal((5, 60))
    m = signal + 0.01 * g.standard_normal((80, 60))
    full = numkit.singular_value_threshold(m, 1.0)
    rank = full.singular_values.size
    # warm start from a perturbed subspace, as from the previous solver iteration
    basis = numkit.svd(m + 0.1 * g.standard_normal(m.shape)).right[:, :basis_rank]
    gram_svd = numkit.gram_svd

    def no_full_gram(a, tau, count=None):
        assert count is not None, "the warm-started step fell back to the full step"  # a block passes its count
        return gram_svd(a, tau, count)

    def no_full_svd(_m):
        raise AssertionError("the warm-started step fell back to the full SVD")

    monkeypatch.setattr(numkit, "gram_svd", no_full_gram)
    monkeypatch.setattr(numkit, "svd", no_full_svd)
    warm = numkit.singular_value_threshold(m, 1.0, basis)
    warm_rank = warm.singular_values.size
    assert warm_rank == rank == 5
    assert np.allclose(warm.singular_values, full.singular_values, rtol=1e-9, atol=0.0)
    assert np.allclose(warm, full, rtol=0.0, atol=1e-9 * np.abs(m).max())


def test_svt_wide_warm_start_uses_full_svd(monkeypatch):
    m = rng(29).standard_normal((40, 30))
    calls = []
    gram_svd, svd = numkit.gram_svd, numkit.svd

    def spy_gram(a, tau, count=None):
        calls.append(("gram", count))
        return gram_svd(a, tau, count)

    def spy_svd(a):
        calls.append(("svd",))
        return svd(a)

    monkeypatch.setattr(numkit, "gram_svd", spy_gram)
    monkeypatch.setattr(numkit, "svd", spy_svd)
    # a 1-column basis plus the margin exceeds a quarter of 30 columns
    out = numkit.singular_value_threshold(m, 0.5, np.eye(30)[:, :1])
    rank = out.singular_values.size
    assert calls == [("gram", None)]  # one full step, which the Gram matrix certifies; no block
    ref = numkit.singular_value_threshold(m, 0.5)
    ref_rank = ref.singular_values.size
    assert rank == ref_rank and np.array_equal(np.asarray(out), np.asarray(ref))


@pytest.mark.parametrize("shape", [(50, 30), (30, 50)])
def test_gram_svd_matches_lapack_when_certified(shape):
    m = rng(41).standard_normal(shape) + 3.0  # one dominant value, the rest within a factor ~15
    lapack = np.linalg.svd(m, compute_uv=False)
    tau = 0.5 * (lapack[3] + lapack[4])
    f = numkit.gram_svd(m, tau)
    assert f is not None
    assert np.allclose(f.singular_values, lapack[:4], rtol=1e-12, atol=0.0)
    assert np.max(np.abs(f.left.T @ f.left - np.eye(4))) <= 1e-10
    assert np.max(np.abs(f.right.T @ f.right - np.eye(4))) <= 1e-10
    out = numkit.singular_value_threshold(m, tau)
    rank = out.singular_values.size
    ref = numkit.svd(m)
    want = (ref.left[:, :4] * (ref.singular_values[:4] - tau)) @ ref.right[:, :4].T
    assert rank == 4 and np.allclose(out, want, rtol=0.0, atol=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no NaN or infinity enters the iteration
def test_svt_warm_start_on_exact_low_rank_matches_full_svd():
    g = rng(3)
    m = g.standard_normal((80, 3)) @ g.standard_normal((3, 60))  # the 10-column block holds 7 zero values
    full = numkit.singular_value_threshold(m, 0.5)
    rank = full.singular_values.size
    warm = numkit.singular_value_threshold(m, 0.5, np.zeros((60, 0)))
    warm_rank = warm.singular_values.size
    assert warm_rank == rank == 3
    assert np.allclose(warm, full, rtol=0.0, atol=1e-9 * np.abs(m).max())


def _geometric():
    g = rng(37)
    left, _ = np.linalg.qr(g.standard_normal((60, 20)))
    right, _ = np.linalg.qr(g.standard_normal((40, 20)))
    return (left * 10.0 ** -np.arange(0.0, 10.0, 0.5)) @ right.T  # sigma = 1 down to 10^-9.5


def test_gram_certificate_refuses_small_kept_values_and_ambiguous_rank(monkeypatch):
    m = _geometric()
    assert numkit.gram_svd(m, 0.05) is not None  # keeps 1, 10^-0.5, 10^-1
    assert numkit.gram_svd(m, 0.1) is None  # tau on a singular value: the count is uncertain
    tau = 0.5e-8  # keeps values down to 1e-8 sigma_1
    assert numkit.gram_svd(m, tau) is None
    basis = np.zeros((m.shape[1], 0))
    got = [numkit.singular_value_threshold(m, tau, b) for b in (None, basis)]
    calls = []
    gram_svd = numkit.gram_svd

    def spy(a, tau, count=None):
        calls.append(count)
        return gram_svd(a, tau, count)

    monkeypatch.setattr(numkit, "gram_svd", spy)
    numkit.singular_value_threshold(m, tau, basis)
    # the block's first Rayleigh-Ritz step is refused, the later ones skip the Gram matrix
    assert calls == [10, None]
    monkeypatch.setattr(numkit, "gram_svd", lambda *args: None)
    for b, out in zip((None, basis), got):
        want = numkit.singular_value_threshold(m, tau, b)
        rank, want_rank = out.singular_values.size, want.singular_values.size
        assert rank == want_rank == 17
        assert np.array_equal(np.asarray(out), np.asarray(want))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svt_non_finite_input_raises(bad):
    m = rng(43).standard_normal((12, 9))
    m[4, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        numkit.singular_value_threshold(m, 0.1)


def test_svt_block_that_cannot_settle_stops_at_its_budget_then_takes_the_full_step(monkeypatch):
    # sigma_i = 0.995^i: the 10th Ritz value's error shrinks by about
    # (sigma_21 / sigma_10)^4 = 0.8 per step, so the block needs ~100 steps to
    # settle, past its budget of 47 on 200 x 160 at k = 20
    g = rng(5)
    left, _ = np.linalg.qr(g.standard_normal((200, 160)))
    right, _ = np.linalg.qr(g.standard_normal((160, 160)))
    sigma = 0.995 ** np.arange(160)
    m = (left * sigma) @ right.T
    tau = 0.5 * (sigma[9] + sigma[10])
    basis = right[:, :10] + 0.1 * g.standard_normal((160, 10))
    budget = numkit._step_budget(200, 160, 10 + numkit.SVT_OVERSAMPLING)
    steps, full = [], []
    qr, gram_svd = np.linalg.qr, numkit.gram_svd

    def spy_qr(a, *args, **kwargs):
        steps.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def spy_gram(a, tau, count=None):
        if count is None:  # the full step; a block step passes its count
            full.append(np.shape(a))
        return gram_svd(a, tau, count)

    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    monkeypatch.setattr(numkit, "gram_svd", spy_gram)
    out = numkit.singular_value_threshold(m, tau, basis)
    monkeypatch.undo()
    assert len(steps) == budget == 47
    assert full == [m.shape]
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    want = (u * np.maximum(s - tau, 0.0)) @ vt
    assert out.singular_values.size == 10
    assert np.linalg.norm(np.asarray(out) - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("m, n, k, floor", [(768, 400, 40, 13), (768, 1500, 34, 27)])
def test_step_budget_outlasts_the_blocks_of_session_matrices(m, n, k, floor):
    # 400-frame sessions take up to 12 steps in a call, the seed-21 1500-frame session 26
    assert numkit._step_budget(m, n, k) >= floor


def test_spectral_norm_diagonal():
    tol = 1e-6
    est = numkit.spectral_norm_estimate(np.diag([3.0, 2.0, 1.0]), tol)
    assert abs(est - 3.0) <= 3.0 * tol


def test_spectral_norm_rank_one():
    g = rng(23)
    u = g.standard_normal(6)
    v = g.standard_normal(9)
    u *= 2.0 / np.linalg.norm(u)
    v *= 5.0 / np.linalg.norm(v)
    est = numkit.spectral_norm_estimate(np.outer(u, v), 1e-6)
    assert abs(est - 10.0) <= 10.0 * 1e-6


def test_spectral_norm_matches_svd():
    m = rng(31).standard_normal((20, 30))
    tol = 1e-9
    est = numkit.spectral_norm_estimate(m, tol)
    truth = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(est - truth) <= truth * 1e-6


def test_spectral_norm_rejects_zero_matrix():
    with pytest.raises(ValueError):
        numkit.spectral_norm_estimate(np.zeros((3, 3)), 1e-6)


@given(st.integers(0, 2**32 - 1))
def test_spectral_norm_bounds(seed):
    g = rng(seed)
    m = g.standard_normal((int(g.integers(1, 12)), int(g.integers(1, 12))))
    if not np.any(m):
        return
    tol = 1e-8
    est = numkit.spectral_norm_estimate(m, tol)
    fro = np.linalg.norm(m)
    max_col = np.linalg.norm(m, axis=0).max()
    assert est <= fro * (1 + 1e-9)
    assert est >= max_col * (1 - 10 * tol)
