"""Damped least squares with analytic Jacobians.

Shared by the intrinsics refinement, the stereo relative-pose refinement
and the plane-pose refinement. Each passes ``jacobian(x)``, the closed-form
derivative of its residual (built on
:func:`~planegaze.camera.project_packed_jacobian`), so one LM iteration
costs one residual evaluation per trial step and none for the Jacobian.
:func:`fd_jacobian`, central differences with a relative step of 1e-6, is
the oracle the analytic ones are tested against. Damping starts at 1e-3,
multiplies by 10 on a rejected step, divides by 10 on an accepted one,
clamped to [1e-12, 1e12].

Rotation blocks are handled through an optional ``plus`` retraction so the
solver steps in local increments composed onto the current estimate
instead of in a global singular parameterization; a Jacobian is taken
with respect to that increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def fd_jacobian(residual: Callable, x: np.ndarray, plus: Callable) -> np.ndarray:
    """Dense central-difference Jacobian of ``residual`` at ``x`` under ``plus``: 2 evaluations per column."""
    cols = []
    dx = np.zeros(x.size)
    for j in range(x.size):
        h = FD_REL_STEP * max(abs(x[j]), 1.0)
        dx[j] = h
        rp = residual(plus(x, dx))
        dx[j] = -h
        rm = residual(plus(x, dx))
        dx[j] = 0.0
        cols.append((rp - rm) / (2.0 * h))
    return np.column_stack(cols)


def levenberg_marquardt(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    jacobian: Callable[[np.ndarray], np.ndarray],
    plus: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    max_iter: int = MAX_ITER,
) -> LMResult:
    """Minimize sum of squared residuals starting from ``x0``.

    ``plus(x, dx)`` applies a local increment; defaults to addition.
    ``jacobian(x)`` returns d residual / d increment at ``x``, shape
    (residuals, parameters); ``residual_evals`` counts only LM's own calls
    of ``residual``.
    Convergence: relative cost change below 1e-12, gradient norm below
    1e-10, or ``max_iter`` sweeps. If the cost still increases with the
    damping clamped at its maximum, raises NoConvergenceError carrying the
    best iterate seen.
    """
    if plus is None:
        plus = _add
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    evals = 1
    cost = float(r @ r)
    lam = DAMPING_INIT
    n_iter = 0
    reason = "max_iter"
    floor = r.size * RMS_FLOOR * RMS_FLOOR

    if cost <= floor:
        return LMResult(x, cost, _rms(cost, r.size), 0, "cost_floor", evals)

    for n_iter in range(1, max_iter + 1):
        J = jacobian(x)
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


def _add(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    return x + dx
