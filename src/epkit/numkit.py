"""Dense matrix primitives shared by the decomposition solvers.

Everything here operates on plain 2-D float64 numpy arrays. Inputs are
validated for shape and finiteness once, at the boundary; the solvers built
on top assume clean data. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce *m* to a 2-D float64 array and validate finiteness."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of a D x T matrix.

    left: D x r with orthonormal columns, right: T x r with orthonormal
    columns, singular_values: length r, non-increasing and non-negative,
    with r = min(D, T) for a full SVD (fewer for a truncated one).
    Reconstruction is left @ diag(s) @ right.T, which is also what
    np.asarray(factors) returns.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.T

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.reconstruct(), dtype=dtype)


def svd(m) -> SvdFactors:
    """Thin singular value decomposition.

    Uses the divide-and-conquer LAPACK driver and falls back to the slower
    but more robust QR-based driver if it fails to converge.
    """
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except Exception as exc:
            raise RuntimeError(
                f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
            ) from exc
    return SvdFactors(left=u, singular_values=s, right=vt.T)


def soft_threshold(m, tau: float) -> np.ndarray:
    """Entrywise shrinkage sign(x) * max(|x| - tau, 0).

    Proximal operator of tau * ||vec(.)||_1; accepts arrays of any shape.
    Not validated: non-finite entries stay non-finite.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    a = np.asarray(m, dtype=np.float64)
    return np.sign(a) * np.maximum(np.abs(a) - tau, 0.0)


# Partial SVD for the shrinkage: rank predicted from the last call (Lin, Chen &
# Ma, arXiv:1009.5055), subspace iteration (Halko, Martinsson & Tropp, arXiv:0909.4061).
SVT_OVERSAMPLING = 10  # block columns beyond the warm-start basis
SVT_RTOL = 1e-10  # Ritz values above tau are settled once they move less than this, relatively
SVT_MAX_STEPS = 25  # subspace-iteration steps per block before the full step takes over
SVT_MAX_FRACTION = 0.25  # largest block, as a share of min(rows, cols), worth a partial SVD

# Shrinkage through the Gram matrix. For a matrix A with m rows and n columns,
# the smaller Gram matrix G (A^T A or A A^T, min(m, n) square) is made of
# inner products of length max(m, n), which err by at most about
# max(m, n) * eps * ||A||_F^2 in norm, and a backward-stable eigh of G adds at
# most about min(m, n) * eps * ||G||_2 <= min(m, n) * eps * ||A||_F^2. By Weyl's
# theorem every computed eigenvalue lam then lies within
# err = (m + n) * eps * ||A||_F^2 of the true sigma^2, so sigma = sqrt(lam) errs
# by at most err / (2 * (lam - err)), relatively. The eigenpairs stand in for the
# LAPACK SVD only when that bound is at most SVT_RTOL for every kept value, as
# far as a settled Ritz value may still have moved, and no eigenvalue lies
# within err of tau^2, so that the count above tau is exact.
# ||A||_F^2 is the sum of G's diagonal, which is non-finite exactly when A holds
# a NaN or an infinity (or its squares overflow); the LAPACK path then runs and
# reports it.


def gram_svd(m, tau: float, count: int | None = None) -> SvdFactors | None:
    """Leading singular triplets of *m* from the eigendecomposition of its
    smaller Gram matrix, or None when the error bound above cannot certify them.

    Returns the triplets above tau, or the leading *count* triplets (those at or
    below tau, too, provided each is certifiably nonzero). The eigenvectors give
    one side; the other is m v / sigma (or m^T u / sigma).
    """
    a = np.asarray(m, dtype=np.float64)
    b = a if a.shape[0] < a.shape[1] else a.T  # G = b b^T is the smaller Gram
    g = b @ b.T
    err = sum(a.shape) * np.finfo(np.float64).eps * np.trace(g)
    if not np.isfinite(err):
        return None
    try:
        lam, w = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    lam, w = lam[::-1], w[:, ::-1]
    rank = int(np.count_nonzero(lam > tau * tau))
    n = rank if count is None else count
    if (
        np.any(np.abs(lam[max(rank - 1, 0) : rank + 1] - tau * tau) <= err)
        or (rank and err > 2 * SVT_RTOL * (lam[rank - 1] - err))
        or (n and lam[n - 1] <= err)
    ):
        return None
    s = np.sqrt(lam[:n])
    w = w[:, :n]
    other = (b.T @ w) / s
    return SvdFactors(w, s, other) if b is a else SvdFactors(other, s, w)


def singular_value_threshold(m, tau: float, basis=None) -> tuple[SvdFactors, int]:
    """Shrink the singular values of *m* by *tau*.

    Proximal operator of tau * (nuclear norm). Returns the shrunk matrix as
    thin factors of the singular values strictly above tau (np.asarray
    reconstructs it), and their count. A *basis* approximately spanning the
    leading right singular vectors (say, the last call's `right`) starts a
    block subspace iteration instead of the full step; the block is accepted
    once its values above tau settle and it reaches one at or below tau. It
    doubles after one miss; a second miss, the step cap or a block wider than
    SVT_MAX_FRACTION of min(rows, cols) fall back to the full step. That step
    takes the triplets from the Gram matrix (gram_svd) when its error bound
    certifies them, else from the full LAPACK SVD. Only the full step checks
    *m* for non-finite entries: the Gram matrix refuses them, and the LAPACK
    SVD raises ValueError.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    a = np.asarray(m, dtype=np.float64)
    f = None if basis is None else _leading_svd(a, tau, np.asarray(basis, dtype=np.float64))
    if f is None:
        f = _full_svd(a, tau)
    rank = int(np.count_nonzero(f.singular_values > tau))
    return SvdFactors(f.left[:, :rank], f.singular_values[:rank] - tau, f.right[:, :rank]), rank


def _full_svd(a: np.ndarray, tau: float) -> SvdFactors:
    """The Gram matrix's triplets of *a* above tau, or else every triplet of the full SVD."""
    f = gram_svd(a, tau)
    return svd(a) if f is None else f


def _leading_svd(a: np.ndarray, tau: float, basis: np.ndarray) -> SvdFactors | None:
    """Singular triplets of *a* down to one at or below tau, or None."""
    k = basis.shape[1] + SVT_OVERSAMPLING
    for _attempt in range(2):
        if k > SVT_MAX_FRACTION * min(a.shape):
            return None
        pad = np.random.default_rng(0).standard_normal((a.shape[1], k - basis.shape[1]))
        f = _subspace_iteration(a, tau, np.hstack([basis, pad]))
        if f is None or f.singular_values[-1] <= tau:
            return f
        basis, k = f.right, 2 * k
    return None


def _subspace_iteration(a: np.ndarray, tau: float, v: np.ndarray) -> SvdFactors | None:
    """Block subspace iteration from the columns of *v*; None past the step cap.

    Each Rayleigh-Ritz step tries the Gram matrix of the k x n block first;
    after one step it cannot certify, the remaining steps use the LAPACK SVD.
    """
    previous, gram = None, True
    for _ in range(SVT_MAX_STEPS):
        q, _r = np.linalg.qr(a @ v)
        b = q.T @ a
        f = gram_svd(b, tau, b.shape[0]) if gram else None
        if f is None:
            gram = False
            ub, s, vt = np.linalg.svd(b, full_matrices=False)
            f = SvdFactors(left=ub, singular_values=s, right=vt.T)
        above = f.singular_values[f.singular_values > tau]
        if previous is not None and np.all(np.abs(above - previous[: above.size]) <= SVT_RTOL * above):
            return SvdFactors(left=q @ f.left, singular_values=f.singular_values, right=f.right)
        previous, v = f.singular_values, f.right
    return None


def spectral_norm_estimate(m, tol: float = 1e-6, max_iterations: int = 10_000) -> float:
    """Largest singular value of *m* via power iteration on M^T M.

    The iterate starts at the largest column (plus a tiny deterministic mix
    so it is never orthogonal to the leading right singular vector); the
    Rayleigh quotient then increases monotonically toward sigma_1, so the
    returned value never exceeds the true norm and never falls below the
    largest column 2-norm by more than the tolerance.
    """
    a = as_matrix(m)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not np.any(a):
        raise ValueError("spectral norm estimate requires a nonzero matrix")
    n = a.shape[1]
    v = np.zeros(n)
    v[int(np.argmax(np.linalg.norm(a, axis=0)))] = 1.0
    v += 1e-6 * np.arange(1, n + 1) / n
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iterations):
        w = a @ v
        sigma_new = float(np.linalg.norm(w))
        if sigma_new == 0.0:
            return 0.0
        v = a.T @ w
        v /= np.linalg.norm(v)
        if abs(sigma_new - sigma) <= 0.25 * tol * sigma_new:
            return sigma_new
        sigma = sigma_new
    return sigma
