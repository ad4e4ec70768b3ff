"""Robust low-rank plus sparse matrix decomposition.

Solves min ||U||_* + lam * ||vec(S)||_1  subject to  X = U + S with an
inexact augmented Lagrangian scheme: alternate a singular-value shrinkage
step for U and an entrywise shrinkage step for S once per outer iteration
while growing the penalty. Gross-but-sparse corruptions land in S; the
typical structure lands in U.

Each iteration computes only the singular values above 1/rho that the
shrinkage keeps (numkit.singular_value_threshold): the previous iteration's
right singular vectors warm-start a block subspace iteration, accepted only
when it reaches a value at or below 1/rho; the full step remains as fallback
and for the first iteration. Both take their singular triplets from the
eigendecomposition of the smaller Gram matrix when its error bound certifies
them (numkit.gram_svd), else from the LAPACK SVD. The input is validated
once, on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .numkit import as_matrix, soft_threshold


@dataclass
class RpcaConfig:
    """Solver knobs.

    lam is the sparsity weight; None means the standard default
    1 / sqrt(max(rows, cols)). tolerance bounds the relative constraint
    residual ||X - U - S||_F / ||X||_F. penalty_cap is an absolute ceiling
    for the growing penalty; None means 1e7 times the initial penalty.
    """

    lam: float | None = field(default=None, metadata={"number_rule": 1.0})
    tolerance: float = 1e-7
    max_iterations: int = 1000
    penalty_growth: float = 1.5
    penalty_cap: float | None = field(default=None, metadata={"number_rule": 1.0})
    warn_factor: float = 2.0  # pipeline: flag frames above this times the median outlier energy

    def __post_init__(self):
        if self.lam is not None and self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not 0 < self.tolerance < 1:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.penalty_growth <= 1:
            raise ValueError(f"penalty_growth must exceed 1, got {self.penalty_growth}")
        if self.penalty_cap is not None and self.penalty_cap <= 0:
            raise ValueError("penalty_cap must be positive")


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
    a = as_matrix(x, "x")
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
    s = np.zeros_like(a)
    f = None
    rank_history: list[int] = []

    iterations = 0
    residual = 1.0
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        y_rho = y / rho
        f, rank = numkit.singular_value_threshold(
            a - s + y_rho, 1.0 / rho, None if f is None else f.right
        )
        rank_history.append(rank)
        # a - u, formed once; u itself is rebuilt from f after the loop
        gap = a - f.reconstruct()
        y_rho += gap
        s = soft_threshold(y_rho, lam / rho)
        gap -= s
        y = y + rho * gap
        rho = min(rho * cfg.penalty_growth, cap)
        residual = float(np.linalg.norm(gap) / x_fro)
        if residual <= cfg.tolerance:
            converged = True
            break

    return RpcaResult(
        low_rank=f.reconstruct(),
        sparse=s,
        singular_values=np.pad(f.singular_values, (0, min(a.shape) - f.singular_values.size)),
        iterations=iterations,
        final_residual=residual,
        converged=converged,
        rank_history=rank_history,
    )
