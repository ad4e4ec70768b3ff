"""Robust low-rank plus sparse matrix decomposition.

Solves min ||U||_* + lam * ||vec(S)||_1  subject to  X = U + S with an
inexact augmented Lagrangian scheme: alternate a singular-value shrinkage
step for U and an entrywise shrinkage step for S once per outer iteration
while growing the penalty. Gross-but-sparse corruptions land in S; the
typical structure lands in U.

Each iteration computes only the singular values above 1/rho that the
shrinkage keeps (numkit.singular_value_threshold): the previous iteration's
right singular vectors warm-start one block subspace iteration, accepted only
when it reaches a value at or below 1/rho; the first iteration, a block too
wide and a block that misses take the full step. Both take their singular
triplets from the eigendecomposition of the smaller Gram matrix when its
error bound certifies them (numkit.gram_svd), else from the LAPACK SVD. The
input is validated once, on entry, and taken in C order (copied there if it
is not), so an input gives the same bits in any memory layout. The iterates
live in four matrices of the input's shape, allocated once and updated in
place, so no iteration allocates one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .fusion import check_settings
from .numkit import as_matrix, soft_threshold


@dataclass
class RpcaConfig:
    """Solver knobs.

    lam is the sparsity weight; None means the standard default
    1 / sqrt(max(rows, cols)). tolerance bounds the relative constraint
    residual ||X - U - S||_F / ||X||_F. penalty_cap is an absolute ceiling
    for the growing penalty; None means 1e7 times the initial penalty.
    """

    lam: float | None = field(default=None, metadata={"number_rule": 1.0, "above": 0.0})
    tolerance: float = field(default=1e-7, metadata={"above": 0.0, "below": 1.0})
    max_iterations: int = field(default=1000, metadata={"min": 1})
    penalty_growth: float = field(default=1.5, metadata={"above": 1.0})
    penalty_cap: float | None = field(default=None, metadata={"number_rule": 1.0, "above": 0.0})
    # pipeline: flag frames above this times the median outlier energy
    warn_factor: float = field(default=2.0, metadata={"min": 0.0})

    def __post_init__(self):
        check_settings(self)


@dataclass
class RpcaResult:
    low_rank: np.ndarray
    sparse: np.ndarray
    singular_values: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    rank_history: list[int] = field(default_factory=list)


def default_lambda(rows: int, cols: int) -> float:
    """Standard sparsity weight 1 / sqrt(max(rows, cols))."""
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    return 1.0 / math.sqrt(max(rows, cols))


def decompose(x, cfg: RpcaConfig | None = None) -> RpcaResult:
    """Split *x* into a low-rank part and a sparse outlier part.

    Returns a flagged (converged=False) result if max_iterations is reached;
    raises ValueError for zero or non-finite input.
    """
    a = np.ascontiguousarray(as_matrix(x, "x"))  # the Gram product's bits depend on the layout
    if not np.any(a):
        raise ValueError("decompose requires a nonzero matrix")
    if cfg is None:
        cfg = RpcaConfig()
    lam = cfg.lam if cfg.lam is not None else default_lambda(*a.shape)

    x_fro = np.linalg.norm(a)
    sn = numkit.spectral_norm_estimate(a, tol=1e-4)
    rho = 1.25 / sn
    cap = cfg.penalty_cap if cfg.penalty_cap is not None else 1e7 * rho
    # dual start: X scaled into the dual-feasible box/ball intersection
    y = a / max(sn, float(np.max(np.abs(a))) / lam)
    s = np.zeros(a.shape)
    # the iterates live in y, s and two work matrices, updated in place:
    # w holds the shrinkage input, then a - u, then a - u - s;
    # t holds y / rho, then y / rho + a - u, then rho * (a - u - s)
    w, t = np.empty(a.shape), np.empty(a.shape)
    f = None
    rank_history: list[int] = []

    iterations = 0
    residual = 1.0
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        np.divide(y, rho, out=t)
        np.subtract(a, s, out=w)
        w += t
        f = numkit.singular_value_threshold(w, 1.0 / rho, None if f is None else f.right)
        rank_history.append(f.singular_values.size)
        # a - u, formed once; u itself is rebuilt from f after the loop
        f.reconstruct(out=w)
        np.subtract(a, w, out=w)
        t += w
        soft_threshold(t, lam / rho, out=s)
        w -= s
        np.multiply(w, rho, out=t)
        y += t
        rho = min(rho * cfg.penalty_growth, cap)
        residual = float(np.linalg.norm(w) / x_fro)
        if residual <= cfg.tolerance:
            converged = True
            break

    return RpcaResult(
        low_rank=f.reconstruct(out=w),
        sparse=s,
        singular_values=np.pad(f.singular_values, (0, min(a.shape) - f.singular_values.size)),
        iterations=iterations,
        final_residual=residual,
        converged=converged,
        rank_history=rank_history,
    )
