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
SVT_MAX_STEPS = 25  # subspace-iteration steps per block before the full SVD takes over
SVT_MAX_FRACTION = 0.25  # largest block, as a share of min(rows, cols), worth a partial SVD


def singular_value_threshold(m, tau: float, basis=None) -> tuple[SvdFactors, int]:
    """Shrink the singular values of *m* by *tau*.

    Proximal operator of tau * (nuclear norm). Returns the shrunk matrix as
    thin factors of the singular values strictly above tau (np.asarray
    reconstructs it), and their count. A *basis* approximately spanning the
    leading right singular vectors (say, the last call's `right`) starts a
    block subspace iteration instead of the full SVD; the block is accepted
    once its values above tau settle and it reaches one at or below tau. It
    doubles after one miss; a second miss, the step cap or a block wider than
    SVT_MAX_FRACTION of min(rows, cols) fall back to the full SVD, which alone
    checks *m* for non-finite entries.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    a = np.asarray(m, dtype=np.float64)
    f = None if basis is None else _leading_svd(a, tau, np.asarray(basis, dtype=np.float64))
    if f is None:
        f = svd(a)
    rank = int(np.count_nonzero(f.singular_values > tau))
    return SvdFactors(f.left[:, :rank], f.singular_values[:rank] - tau, f.right[:, :rank]), rank


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
    """Block subspace iteration from the columns of *v*; None past the step cap."""
    previous = None
    for _ in range(SVT_MAX_STEPS):
        q, _r = np.linalg.qr(a @ v)
        ub, s, vt = np.linalg.svd(q.T @ a, full_matrices=False)
        above = s[s > tau]
        if previous is not None and np.all(np.abs(above - previous[: above.size]) <= SVT_RTOL * above):
            return SvdFactors(left=q @ ub, singular_values=s, right=vt.T)
        previous, v = s, vt.T
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
