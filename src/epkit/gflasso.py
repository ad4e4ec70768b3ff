"""Weighted group fused LASSO segmentation for multivariate time series.

The model fits a D x T signal V to observations X under entrywise weights W,

    min_V  1/2 ||W o (X - V)||_F^2 + lam * sum_t ||(V Q)_{:,t}||_2

where Q is the T x (T - p) operator taking p-th order finite differences
along time. The group penalty makes whole difference columns vanish
jointly, so V is piecewise polynomial of degree p - 1 and the surviving
column norms ("jump strengths") mark candidate change points.

`solve` fits it by ADMM. Its V-update is one banded solve of all rows per
iteration, against a Cholesky factor made once each time the ADMM penalty
changes (Boyd et al., "Distributed Optimization and Statistical Learning via
ADMM", 2011, section 4.2.3) on numpy's LAPACK (numkit.BandCholesky). Q is never
formed, its products are taken from the p-th difference stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fusion import check_number, check_ranges
from .numkit import BandCholesky, as_matrix


@dataclass
class GflConfig:
    """Solver knobs, plus the change-point levels and spacing the pipeline reads.

    threshold=None means threshold_fraction times the largest jump strength.
    """

    lam: float = field(default=3.0, metadata={"min": 0.0})  # tuned for standardized pose rows; see README
    order: int = field(default=1, metadata={"min": 1})
    admm_penalty: float = field(default=1.0, metadata={"above": 0.0})
    tolerance: float = field(default=1e-7, metadata={"above": 0.0})
    max_iterations: int = field(default=5000, metadata={"min": 1})
    threshold: float | list[float] | None = None  # stored as a list of levels
    threshold_fraction: float = field(default=0.1, metadata={"min": 0.0})
    min_gap: int = field(default=5, metadata={"min": 1})

    def __post_init__(self):
        check_ranges(self)
        if self.threshold is not None:
            levels = self.threshold if isinstance(self.threshold, (list, tuple)) else [self.threshold]
            for t in levels:
                check_number("threshold", t, 0.0)
            if not levels or min(levels) < 0:
                raise ValueError(f"threshold must be one or more non-negative numbers, got {self.threshold!r}")
            self.threshold = [float(t) for t in levels]


@dataclass
class GflResult:
    smoothed: np.ndarray
    jump_strengths: np.ndarray
    objective: float
    converged: bool
    iterations: int = 0


@dataclass
class SegmentLabeling:
    """Change points over n_frames frames plus the per-frame segment ids they induce.

    A change point c marks the boundary between frames c and c + 1, i.e. it
    is the (0-based) index of the difference column that fired. Change
    points are integers, strictly increasing, in [0, n_frames - 1), else
    ValueError; frame f's group id is the number of change points below f.
    """

    change_points: list[int]
    n_frames: int
    group_ids: list[int] = field(init=False)

    def __post_init__(self):
        cps = self.change_points
        for c in cps:
            check_number("change_points", c, 0)
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("change_points must be strictly increasing")
        if cps and (cps[0] < 0 or cps[-1] >= self.n_frames - 1):
            raise ValueError(f"change_points must lie in [0, {self.n_frames - 1}), got {cps}")
        self.group_ids = np.searchsorted(cps, np.arange(self.n_frames)).tolist()


def _stencil(p: int) -> np.ndarray:
    # p-th difference taps: (-1)^(p-k) * C(p, k), k = 0..p
    return np.array([(-1) ** (p - k) * math.comb(p, k) for k in range(p + 1)], dtype=np.float64)


def _apply_q(x: np.ndarray, p: int) -> np.ndarray:
    # X (D x T) -> X Q (D x (T - p))
    c = _stencil(p)
    t = x.shape[1]
    out = np.zeros((x.shape[0], t - p))
    for k in range(p + 1):
        out += c[k] * x[:, k : k + t - p]
    return out


def _apply_q_adjoint(y: np.ndarray, p: int, t: int) -> np.ndarray:
    # Y (D x (T - p)) -> Y Q^T (D x T)
    c = _stencil(p)
    out = np.zeros((y.shape[0], t))
    for k in range(p + 1):
        out[:, k : k + t - p] += c[k] * y
    return out


def _qqt_band_upper(t: int, p: int) -> np.ndarray:
    """Upper banded storage (p + 1 rows) of Q Q^T, main diagonal last."""
    # column tau of Q holds the stencil at rows tau..tau + p: entry (tau + k, tau + m), k <= m, gains c[k] * c[m]
    c = _stencil(p)
    band = np.zeros((p + 1, t))
    for m in range(p + 1):
        for k in range(m + 1):
            band[p - (m - k), m : m + t - p] += c[k] * c[m]
    return band


def _objective(x, w, v, lam, p) -> float:
    fit = 0.5 * float(np.sum((w * (x - v)) ** 2))
    return fit + lam * float(np.sum(np.linalg.norm(_apply_q(v, p), axis=0)))


def validate_inputs(x, w, cfg: GflConfig) -> tuple[np.ndarray, np.ndarray]:
    """x and w as matrices; ValueError unless `solve` can take them."""
    xa = as_matrix(x, "x")
    wa = as_matrix(w, "w")
    if xa.shape != wa.shape:
        raise ValueError(f"x and w shapes differ: {xa.shape} vs {wa.shape}")
    if np.any(wa < 0):
        raise ValueError("weights must be non-negative")
    positive = np.count_nonzero(wa > 0, axis=1)
    if not positive.all():
        raise ValueError(f"weight row {int(np.argmin(positive))} has no positive entry")
    if cfg.order >= xa.shape[1]:
        raise ValueError(f"order {cfg.order} must be smaller than T={xa.shape[1]}")
    # diag(w_d^2) + rho Q Q^T is singular exactly when a nonzero polynomial of
    # degree < order (the null space of Q^T) vanishes on the frames where row
    # d's w^2, as solve forms it, is positive; a weight below ~1e-162 squares to 0
    scored = np.count_nonzero(wa * wa > 0, axis=1)
    few = np.flatnonzero(scored < cfg.order)
    if few.size:
        row = int(few[0])
        raise ValueError(
            f"weight row {row} has fewer entries with a positive square ({scored[row]}) than order {cfg.order}"
        )
    return xa, wa


def solve(x, w, cfg: GflConfig) -> GflResult:
    """ADMM solver with the split Z = V Q.

    Per iteration the V-update solves, for every row d, the banded system
    (diag(w_d^2) + rho Q Q^T) v_d = w_d^2 o x_d + Q (rho z_d - y_d); the
    Z-update is a columnwise group soft-threshold; the penalty is rebalanced
    deterministically from the residual ratio. The row systems are solved
    as one system, the block diagonal of the D rows on a (D * T)-long band
    whose entries between rows are zero, so the Cholesky factor gives each
    row exactly what it would give that row alone. The band is rebuilt and
    factored only when rho changes, and every solve gives
    `scipy.linalg.solveh_banded`'s bits on it.
    """
    xa, wa = validate_inputs(x, w, cfg)
    d, t = xa.shape
    p = cfg.order
    lam = cfg.lam
    w2 = wa * wa
    band = _qqt_band_upper(t, p)

    rho = cfg.admm_penalty
    rho_lo, rho_hi = rho * 1e-4, rho * 1e4
    # unscored entries must never touch the iterates, so the warm start masks them
    z = _apply_q(np.where(wa > 0, xa, 0.0), p)
    y = np.zeros_like(z)

    converged = False
    iterations = 0
    ab_rho = None
    for iterations in range(1, cfg.max_iterations + 1):
        rhs = w2 * xa + _apply_q_adjoint(rho * z - y, p, t)
        if ab_rho != rho:
            # row blocks side by side; band leaves the entries coupling two rows zero
            ab = np.tile(rho * band, d)
            ab[p] += w2.ravel()
            factor = BandCholesky(ab)
            ab_rho = rho
        v = factor.solve(rhs.ravel()).reshape(d, t)

        vq = _apply_q(v, p)
        a = vq + y / rho
        norms = np.linalg.norm(a, axis=0)
        scale = np.zeros_like(norms)
        np.divide(lam / rho, norms, out=scale, where=norms > 0)
        z_new = a * np.maximum(1.0 - scale, 0.0)
        y = y + rho * (vq - z_new)

        primal = float(np.linalg.norm(vq - z_new))
        dual = rho * float(np.linalg.norm(_apply_q_adjoint(z_new - z, p, t)))
        z = z_new
        pri_ref = max(1.0, float(np.linalg.norm(vq)), float(np.linalg.norm(z)))
        dual_ref = max(1.0, float(np.linalg.norm(_apply_q_adjoint(y, p, t))))
        if primal <= cfg.tolerance * pri_ref and dual <= cfg.tolerance * dual_ref:
            converged = True
            break
        if primal > 10.0 * dual and rho * 2.0 <= rho_hi:
            rho *= 2.0
        elif dual > 10.0 * primal and rho * 0.5 >= rho_lo:
            rho *= 0.5

    return GflResult(
        smoothed=v,
        jump_strengths=np.linalg.norm(vq, axis=0),  # the last iterate's differences
        objective=_objective(xa, wa, v, lam, p),
        converged=converged,
        iterations=iterations,
    )


def extract_change_points(strengths, threshold: float, min_gap: int, n_frames: int) -> SegmentLabeling:
    """Threshold jump strengths into change points and segment ids.

    Indices above *threshold* are kept greedily in decreasing strength order
    (ties: earlier index wins) subject to pairwise distance >= min_gap.
    At order p a fit over n_frames frames has n_frames - p strengths.
    """
    s = np.asarray(strengths, dtype=np.float64).ravel()
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if min_gap < 1:
        raise ValueError(f"min_gap must be at least 1, got {min_gap}")

    candidates = [i for i in range(s.size) if s[i] > threshold]
    candidates.sort(key=lambda i: (-s[i], i))
    kept: list[int] = []
    for i in candidates:
        if all(abs(i - j) >= min_gap for j in kept):
            kept.append(i)
    kept.sort()
    return SegmentLabeling(kept, n_frames)


# row layout of the segmentation signal built from pose streams
ARM_SERIES: tuple[tuple[str, int], ...] = (
    ("l_wrist", 0),
    ("l_wrist", 1),
    ("r_wrist", 0),
    ("r_wrist", 1),
    ("l_elbow", 0),
    ("l_elbow", 1),
    ("r_elbow", 0),
    ("r_elbow", 1),
)


def normalize_and_weight(pose_stream) -> tuple[np.ndarray, np.ndarray]:
    """Build the (X, W) pair for `solve` from a sequence of pose frames.

    The frames' ARM_SERIES joints form one (frames, 8, 3) table of
    (x, y, score), a missing joint reading (0, 0, 0). W is its score plane,
    one row per wrist/elbow coordinate; each X row is that coordinate
    standardized to zero mean / unit variance over the frames where its
    joint was scored > 0, and 0 elsewhere; zero-variance rows map to all
    zeros. Unscored entries therefore never influence a fit.
    """
    frames = list(pose_stream)
    if not frames:
        raise ValueError("pose stream is empty")
    table = np.array([[f.joints.get(j, (0.0, 0.0, 0.0)) for j, _axis in ARM_SERIES] for f in frames], np.float64)
    w = np.ascontiguousarray(table[:, :, 2].T)
    x = np.zeros_like(w)
    for row, (joint, axis) in enumerate(ARM_SERIES):
        observed = w[row] > 0
        if not observed.any():
            raise ValueError(f"joint {joint!r} is missing from every frame")
        vals = table[observed, row, axis]
        sd = vals.std()
        if sd > 0:
            x[row, observed] = (vals - vals.mean()) / sd
    return x, w
