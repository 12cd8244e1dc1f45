"""Damped least squares with finite-difference Jacobians.

Shared by the intrinsics refinement, the stereo relative-pose refinement
and the plane-pose refinement. Jacobians are central differences with a
relative step of 1e-6; damping starts at 1e-3, multiplies by 10 on a
rejected step, divides by 10 on an accepted one, clamped to [1e-12, 1e12].

Differences are taken over groups of columns (Curtis, Powell & Reid
1974). ``jac_groups`` lists groups of ``(column, rows)`` pairs, ``rows``
(index array, mask or slice) being the residual rows that column can
change. The columns of a group touch disjoint rows, so one +/- pair of
residual evaluations perturbs them all, and each column reads its own
rows; every other entry is 0.0, as in a dense difference, so a correct
structure gives the dense Jacobian bit for bit. By default every column
is its own group over all rows.

Rotation blocks are handled through an optional ``plus`` retraction so the
solver steps in local increments composed onto the current estimate
instead of in a global singular parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergenceError

FD_REL_STEP = 1e-6
DAMPING_INIT = 1e-3
DAMPING_MIN = 1e-12
DAMPING_MAX = 1e12
DAMPING_FACTOR = 10.0
COST_REL_TOL = 1e-12
GRAD_TOL = 1e-10
MAX_ITER = 200
# below this rms the cost is floating-point noise and relative tests are meaningless
RMS_FLOOR = 1e-12


@dataclass
class LMResult:
    x: np.ndarray
    cost: float
    rms: float
    iterations: int
    reason: str
    residual_evals: int

    def summary(self) -> str:
        return (
            f"{self.iterations} iterations, stop {self.reason}, "
            f"{self.residual_evals} residual evaluations, rms {self.rms:.6g}"
        )


def column_groups(jac_groups: Sequence | None, n_residuals: int, n_params: int) -> list:
    """``jac_groups`` after checking it, or one dense group per column when None."""
    if jac_groups is None:
        return [[(j, slice(None))] for j in range(n_params)]
    groups = [list(group) for group in jac_groups]
    cols = []
    for group in groups:
        taken = np.zeros(n_residuals, dtype=bool)
        for j, rows in group:
            if taken[rows].any():
                raise ValueError(f"column {j} shares residual rows within its group")
            taken[rows] = True
            cols.append(j)
    if sorted(cols) != list(range(n_params)):
        raise ValueError(f"jac_groups must cover each of the {n_params} columns exactly once")
    return groups


def fd_jacobian(
    residual: Callable, x: np.ndarray, plus: Callable, groups: list, n_residuals: int
) -> np.ndarray:
    """Central-difference Jacobian over checked ``column_groups``: 2 evaluations per group."""
    J = np.zeros((n_residuals, x.size))
    dx = np.zeros(x.size)
    for group in groups:
        cols = [j for j, _ in group]
        h = FD_REL_STEP * np.maximum(np.abs(x[cols]), 1.0)
        dx[cols] = h
        rp = residual(plus(x, dx))
        dx[cols] = -h
        rm = residual(plus(x, dx))
        dx[cols] = 0.0
        for (j, rows), hj in zip(group, h):
            J[rows, j] = (rp[rows] - rm[rows]) / (2.0 * hj)
    return J


def levenberg_marquardt(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    plus: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    max_iter: int = MAX_ITER,
    jac_groups: Sequence | None = None,
) -> LMResult:
    """Minimize sum of squared residuals starting from ``x0``.

    ``plus(x, dx)`` applies a local increment; defaults to addition.
    ``jac_groups`` describes the Jacobian's row structure (module
    docstring); by default every column is dense.
    Convergence: relative cost change below 1e-12, gradient norm below
    1e-10, or ``max_iter`` sweeps. If the cost still increases with the
    damping clamped at its maximum, raises NoConvergenceError carrying the
    best iterate seen.
    """
    if plus is None:
        plus = lambda x, dx: x + dx
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    evals = 1
    groups = column_groups(jac_groups, r.size, x.size)
    cost = float(r @ r)
    lam = DAMPING_INIT
    n_iter = 0
    reason = "max_iter"
    floor = r.size * RMS_FLOOR * RMS_FLOOR

    if cost <= floor:
        return LMResult(x, cost, _rms(cost, r.size), 0, "cost_floor", evals)

    for n_iter in range(1, max_iter + 1):
        J = fd_jacobian(residual, x, plus, groups, r.size)
        evals += 2 * len(groups)
        g = J.T @ r
        if np.linalg.norm(g) < GRAD_TOL:
            reason = "gradient"
            break
        JtJ = J.T @ J
        diag = np.diag(JtJ).copy()
        diag_floor = max(diag.max(), 1.0) * 1e-15
        diag[diag < diag_floor] = diag_floor

        accepted = False
        while True:
            try:
                dx = np.linalg.solve(JtJ + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                dx = None
            if dx is not None:
                x_try = plus(x, dx)
                r_try = residual(x_try)
                evals += 1
                cost_try = float(r_try @ r_try)
                rel_change = abs(cost - cost_try) / max(cost, 1e-300)
                if cost_try < cost:
                    x, r, cost = x_try, r_try, cost_try
                    lam = max(lam / DAMPING_FACTOR, DAMPING_MIN)
                    accepted = True
                    if cost <= floor:
                        reason = "cost_floor"
                    elif rel_change < COST_REL_TOL:
                        reason = "cost_plateau"
                    break
                if rel_change < COST_REL_TOL:
                    # step no longer changes the cost: converged at a plateau
                    reason = "cost_plateau"
                    break
            if lam >= DAMPING_MAX:
                best = LMResult(x, cost, _rms(cost, r.size), n_iter, "diverged", evals)
                raise NoConvergenceError(
                    "refinement failed: cost still increases with damping at its cap",
                    best=best,
                )
            lam = min(lam * DAMPING_FACTOR, DAMPING_MAX)

        if reason in ("cost_plateau", "cost_floor"):
            break
        if not accepted:
            break

    return LMResult(x, cost, _rms(cost, r.size), n_iter, reason, evals)


def _rms(cost: float, n_residuals: int) -> float:
    return float(np.sqrt(cost / max(n_residuals, 1)))
