"""Reference for gflasso.solve: the dense difference operator and a certified dual solver.

`differencing_matrix` builds Q densely from its binomial taps. `oracle_solve`
solves the same weighted group fused LASSO by FISTA ascent on the dual and
takes every difference, adjoint and objective as a product with that dense Q,
so it shares no arithmetic with the banded operators of the solver it checks.
"""

import math

import numpy as np

from epkit import gflasso

ORACLE_GAP_TOL = 1e-10  # duality gap, relative to 1 + |primal|, that certifies oracle_solve
ORACLE_MAX_ITERATIONS = 1_000_000


def differencing_matrix(t: int, p: int) -> np.ndarray:
    """Dense T x (T - p) operator whose columns take p-th differences."""
    if not 1 <= p < t:
        raise ValueError(f"order p must satisfy 1 <= p < t, got p={p}, t={t}")
    taps = [(-1) ** (p - k) * math.comb(p, k) for k in range(p + 1)]
    q = np.zeros((t, t - p))
    for j in range(t - p):
        q[j : j + p + 1, j] = taps
    return q


def _objective(x, w, v, lam, q) -> float:
    fit = 0.5 * float(np.sum((w * (x - v)) ** 2))
    return fit + lam * float(np.sum(np.linalg.norm(v @ q, axis=0)))


def oracle_solve(x, w, cfg: gflasso.GflConfig) -> gflasso.GflResult:
    """Reference solver: FISTA ascent on the dual, certified by duality gap.

    The dual variable Y has one column per difference column, constrained to
    ||y_t||_2 <= lam; the primal is recovered as V = X - (Y Q^T) / W^2, so
    the reported objective is guaranteed within the achieved gap of the true
    optimum. Deliberately restricted to tiny instances (D*T <= 200) and to
    strictly positive weights.
    """
    xa, wa = gflasso.validate_inputs(x, w, cfg)
    if xa.size > 200:
        raise ValueError(f"oracle_solve is restricted to D*T <= 200, got {xa.size}")
    if np.any(wa <= 0):
        raise ValueError("oracle_solve requires strictly positive weights")
    d, t = xa.shape
    p = cfg.order
    lam = cfg.lam
    q = differencing_matrix(t, p)

    if lam == 0.0:
        strengths = np.linalg.norm(xa @ q, axis=0)
        return gflasso.GflResult(xa.copy(), strengths, _objective(xa, wa, xa, lam, q), True, 0)

    winv2 = 1.0 / (wa * wa)
    lip = (4.0**p) * float(winv2.max())

    def clip_columns(y):
        norms = np.linalg.norm(y, axis=0)
        over = norms > lam
        if np.any(over):
            y = y.copy()
            y[:, over] *= lam / norms[over]
        return y

    y = np.zeros((d, t - p))
    y_prev = y.copy()
    tk = 1.0
    v = xa.copy()
    converged = False
    iterations = 0
    for iterations in range(1, ORACLE_MAX_ITERATIONS + 1):
        tk_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        ym = y + ((tk - 1.0) / tk_next) * (y - y_prev)
        v = xa - (ym @ q.T) * winv2
        y_new = clip_columns(ym + (v @ q) / lip)
        # restart the momentum when the step opposes the travel direction
        if float(np.sum((ym - y_new) * (y_new - y))) > 0:
            tk_next = 1.0
        y_prev, y, tk = y, y_new, tk_next

        if iterations % 10 == 0 or iterations == ORACLE_MAX_ITERATIONS:
            g = y @ q.T
            v_feas = xa - g * winv2
            primal = _objective(xa, wa, v_feas, lam, q)
            dual = float(np.sum(g * xa)) - 0.5 * float(np.sum(g * g * winv2))
            if primal - dual <= ORACLE_GAP_TOL * (1.0 + abs(primal)):
                v = v_feas
                converged = True
                break

    if not converged:
        v = xa - (y @ q.T) * winv2
    strengths = np.linalg.norm(v @ q, axis=0)
    return gflasso.GflResult(v, strengths, _objective(xa, wa, v, lam, q), converged, iterations)
