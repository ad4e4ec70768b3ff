"""Dense and banded matrix primitives shared by the solvers.

Everything here operates on plain float64 numpy arrays. Inputs are
validated for shape and finiteness once, at the boundary; the solvers built
on top assume clean data. All functions are pure.

OPENBLAS is the one handle on numpy's bundled OpenBLAS (scipy-openblas64:
64-bit integers, symbols named scipy_<routine>_64_), or None where numpy
cannot be loaded through ctypes. BandCholesky calls its band LAPACK routines
through it, and pipeline.blas_threads its thread-count calls; where numpy does
not export them (numpy on Accelerate or MKL), the same band routines come from
scipy.linalg.lapack.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np

OPENBLAS = None
with contextlib.suppress(AttributeError, OSError):
    OPENBLAS = ctypes.CDLL(np.linalg._umath_linalg.__file__)


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

    def reconstruct(self, out: np.ndarray | None = None) -> np.ndarray:
        """left @ diag(s) @ right.T, written into *out* (D x T float64, not
        overlapping the factors) when given, else into a new array."""
        return np.matmul(self.left * self.singular_values, self.right.T, out=out)

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
        import scipy.linalg

        try:
            u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except Exception as exc:
            raise RuntimeError(
                f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
            ) from exc
    return SvdFactors(left=u, singular_values=s, right=vt.T)


def _ref(n: int):
    return ctypes.byref(ctypes.c_int64(n))


class _OpenblasBand:
    """LAPACK's dpttrf, dpttrs, dpbtrf and dpbtrs in numpy's OpenBLAS, called through ctypes.

    Each takes and returns what scipy.linalg.lapack's wrapper of the same name
    does for BandCholesky's calls: upper storage, one right-hand side, inputs
    copied, LAPACK's info last.
    """

    def __init__(self, lib):
        ints = ctypes.POINTER(ctypes.c_int64)
        arr = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
        uplo, uplo_len = ctypes.c_char_p, ctypes.c_size_t  # gfortran passes a CHARACTER's length last, by value
        self._pttrf = lib.scipy_dpttrf_64_
        self._pttrf.argtypes = [ints, arr, arr, ints]
        self._pttrs = lib.scipy_dpttrs_64_
        self._pttrs.argtypes = [ints, ints, arr, arr, arr, ints, ints]
        self._pbtrf = lib.scipy_dpbtrf_64_
        self._pbtrf.argtypes = [uplo, ints, ints, arr, ints, ints, uplo_len]
        self._pbtrs = lib.scipy_dpbtrs_64_
        self._pbtrs.argtypes = [uplo, ints, ints, ints, arr, ints, arr, ints, ints, uplo_len]
        for fn in (self._pttrf, self._pttrs, self._pbtrf, self._pbtrs):
            fn.restype = None

    def dpttrf(self, d, e):
        d, e, info = np.array(d, np.float64), np.array(e, np.float64), ctypes.c_int64()
        self._pttrf(_ref(d.size), d, e, ctypes.byref(info))
        return d, e, info.value

    def dpttrs(self, d, e, b):
        x, info = np.array(b, np.float64), ctypes.c_int64()
        self._pttrs(_ref(d.size), _ref(1), d, e, x, _ref(max(1, d.size)), ctypes.byref(info))
        return x, info.value

    def dpbtrf(self, ab):
        c, info = np.array(ab, np.float64, order="F"), ctypes.c_int64()
        ldab, n = c.shape
        self._pbtrf(b"U", _ref(n), _ref(ldab - 1), c, _ref(ldab), ctypes.byref(info), 1)
        return c, info.value

    def dpbtrs(self, c, b):
        x, info = np.array(b, np.float64), ctypes.c_int64()
        ldab, n = c.shape
        self._pbtrs(b"U", _ref(n), _ref(ldab - 1), _ref(1), c, _ref(ldab), x, _ref(max(1, n)), ctypes.byref(info), 1)
        return x, info.value


_BAND_LAPACK = None  # _OpenblasBand where numpy exports the routines; BandCholesky imports scipy's otherwise
with contextlib.suppress(AttributeError):
    _BAND_LAPACK = _OpenblasBand(OPENBLAS)


def _finite(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


class BandCholesky:
    """The Cholesky factor of a symmetric positive definite band matrix, made once to solve many systems.

    *ab* is the band in LAPACK's upper storage, main diagonal last
    (ab[u + i - j, j] = A[i, j] for j - u <= i <= j), as scipy.linalg.solveh_banded
    takes it, and solve(b) returns solveh_banded(ab, b)'s bits: a two-row band
    is factored by pttrf and solved by pttrs (solveh_banded's ptsv runs those
    two), a wider one by pbtrf and pbtrs (pbsv's). As there, a non-finite band
    or right-hand side raises ValueError, and a band that is not positive
    definite LinAlgError naming the leading minor that failed.
    """

    def __init__(self, ab):
        lapack = _BAND_LAPACK
        if lapack is None:
            import scipy.linalg.lapack as lapack
        ab = _finite(ab)
        if ab.shape[0] == 2:
            *self._factor, info = lapack.dpttrf(ab[1], ab[0, 1:])
            self._solve = lapack.dpttrs
        else:
            *self._factor, info = lapack.dpbtrf(ab)
            self._solve = lapack.dpbtrs
        _check_info(info)

    def solve(self, b) -> np.ndarray:
        x, info = self._solve(*self._factor, _finite(b))
        _check_info(info)
        return x


def _check_info(info: int) -> None:
    """solveh_banded's errors for a LAPACK info."""
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")


def soft_threshold(m, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise shrinkage sign(x) * max(|x| - tau, 0).

    Proximal operator of tau * ||vec(.)||_1; accepts arrays of any shape.
    Written into *out* (float64, m's shape) when given, else into a new array;
    *out* must not overlap *m* (ValueError), since m's signs are read last.
    Not validated: non-finite entries stay non-finite.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    a = np.asarray(m, dtype=np.float64)
    if out is not None and np.may_share_memory(a, out):
        raise ValueError("out must not overlap the input")
    # max(|x| - tau, 0) * sign(x) has the bits of sign(x) * max(|x| - tau, 0)
    r = np.abs(a, out=out)
    r -= tau
    np.maximum(r, 0.0, out=r)
    r *= np.sign(a)
    return r


# Partial SVD for the shrinkage: rank predicted from the last call (Lin, Chen &
# Ma, arXiv:1009.5055), subspace iteration (Halko, Martinsson & Tropp, arXiv:0909.4061).
# One warm block per call: a block that misses goes straight to the full step.
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
    other = b.T @ w
    other /= s
    return SvdFactors(w, s, other) if b is a else SvdFactors(other, s, w)


def singular_value_threshold(m, tau: float, basis=None) -> SvdFactors:
    """Shrink the singular values of *m* by *tau*.

    Proximal operator of tau * (nuclear norm). Returns the shrunk matrix as
    thin factors of the singular values strictly above tau (np.asarray
    reconstructs it; singular_values.size is its rank). A *basis*
    approximately spanning the leading right singular vectors (say, the last
    call's `right`), plus SVT_OVERSAMPLING columns, starts one block subspace
    iteration when that block fits SVT_MAX_FRACTION of min(rows, cols); its
    triplets are kept once their values above tau settle and the block
    reaches one at or below tau. Otherwise (no basis, a block too wide, the
    step cap or a block with no value at or below tau) the full step runs:
    the Gram matrix's triplets (gram_svd) when its error bound certifies
    them, else the full LAPACK SVD. Only the full step checks *m* for
    non-finite entries: the Gram matrix refuses them, and the LAPACK SVD
    raises ValueError.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    a = np.asarray(m, dtype=np.float64)
    f = None
    if basis is not None and np.shape(basis)[1] + SVT_OVERSAMPLING <= SVT_MAX_FRACTION * min(a.shape):
        pad = np.random.default_rng(0).standard_normal((a.shape[1], SVT_OVERSAMPLING))
        f = _subspace_iteration(a, tau, np.hstack([np.asarray(basis, dtype=np.float64), pad]))
    if f is None or f.singular_values[-1] > tau:
        f = gram_svd(a, tau) or svd(a)
    rank = int(np.count_nonzero(f.singular_values > tau))
    return SvdFactors(f.left[:, :rank], f.singular_values[:rank] - tau, f.right[:, :rank])


def _subspace_iteration(a: np.ndarray, tau: float, v: np.ndarray) -> SvdFactors | None:
    """Block subspace iteration from the columns of *v*; None past the step cap.

    Each Rayleigh-Ritz step tries the Gram matrix of the k x n block first;
    after one step it cannot certify, the remaining steps use svd (LAPACK, with its fallback).
    """
    previous, gram = None, True
    for _ in range(SVT_MAX_STEPS):
        q, _r = np.linalg.qr(a @ v)
        b = q.T @ a
        f = gram_svd(b, tau, b.shape[0]) if gram else None
        if f is None:
            gram = False
            f = svd(b)
        above = f.singular_values[f.singular_values > tau]
        if previous is not None and np.all(np.abs(above - previous[: above.size]) <= SVT_RTOL * above):
            return SvdFactors(left=q @ f.left, singular_values=f.singular_values, right=f.right)
        previous, v = f.singular_values, f.right
    return None


SPECTRAL_NORM_MAX_STEPS = 10_000  # power-iteration steps before the last estimate is returned


def spectral_norm_estimate(m, tol: float = 1e-6) -> float:
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
    for _ in range(SPECTRAL_NORM_MAX_STEPS):
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
