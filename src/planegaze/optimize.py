"""Damped least squares with analytic Jacobians, solved in block form.

Shared by the intrinsics refinement, the stereo relative-pose refinement
and the plane-pose refinement. Each passes one model,
``model(x) -> (r, jacobian)``: the residual from one projection (built on
:func:`~planegaze.camera.project_packed_jacobian`) and a function that
builds its closed-form derivative from that projection's intermediates.
The solver calls the model once at the start and once per trial step, but
builds J (calls ``jacobian()``) only once per iteration: at the start, and
after an accepted step that does not end the solve. A rejected trial, or a
solve's last step, builds none. An accepted trial's r is the one
:class:`LMResult` returns, so a caller never projects again for its rms.
:func:`fd_jacobian`, central differences with a relative step of 1e-6, is
the oracle the analytic Jacobians are tested against.
Damping starts at 1e-6, multiplies by 10 on a rejected step, divides by
10 on an accepted one, clamped to [1e-12, 1e12]. Every caller starts from a
closed-form estimate (Zhang's conic, homography poses, the chordal-mean
stereo pose, the homography plane pose), and Madsen, Nielsen & Tingleff,
"Methods for Non-Linear Least Squares Problems" (2004, §3.2), start at
τ = 1e-6 when x0 is believed good; here λ scales Marquardt's per-parameter
diagonal rather than their μ₀ = τ max diag(JᵀJ).

Block normal equations. Every model's Jacobian is a :class:`BlockJacobian`:
m shared parameters and one p-entry block per view, each residual row
depending on the shared ones and its own view's block only. The
intrinsics refinement shares the intrinsics and has one 6-entry pose
block per view; a single-pose solve shares its 6 pose entries and has
one view with an empty block. JᵀJ is block-arrow:

    [ U   W_1 ... W_V ]
    [ W_1ᵀ V_1        ]      U = Σ_v A_vᵀA_v,  W_v = A_vᵀB_v,  V_v = B_vᵀB_v
    [  ⋮       ⋱      ]
    [ W_Vᵀ        V_V ]

where A_v, B_v are view v's rows of the shared and own columns. Rows are
grouped by view once per solve (a stable argsort, so input order does not
matter); each iteration stacks every view's rows [B_v A_v r_v], zero-padded
to the longest view, and one batched product [B_v A_v r_v]ᵀ[B_v A_v r_v]
gives each view's blocks and gradient pieces. A trial step adds the
Marquardt diagonal λ·diag(JᵀJ) (floored at 1e-15 of its largest entry),
eliminates the pose blocks by Schur complement (Triggs et al. 2000,
"Bundle Adjustment — A Modern Synthesis", §6), solves the m × m system
S = U − Σ_v W_v V_v⁻¹ W_vᵀ for the shared step, and back-substitutes the
pose steps, with the V_v solved as one batch.

Stop reasons: ``gradient`` (‖Jᵀr‖ below 1e-10), ``cost_floor`` (rms below
1e-12), ``cost_plateau`` (a step changes the cost by less than 1e-6 of
itself: near the optimum the cost falls by the squared distance to it in
units of σ̂² = cost / (m − n), so with m − n ≈ 1,500 corner residuals 1e-6
is about 0.04 sd, a digit no corner noise resolves; Ceres Solver's
``function_tolerance`` is 1e-6 too), ``step_floor`` (a step no longer
than 1e-12 (‖x‖ + 1e-12), as MINPACK's xtol: at a tiny residual rounding
noise swamps relative cost changes, and only the step size tells
convergence from divergence) and ``max_iter``. Every trial, accepted or
rejected, picks its stop reason in one place, testing ``cost_floor``,
``cost_plateau`` and ``step_floor`` in that order; only an accepted step
can reach the floor, since the cost is above it when each iteration
starts. A rejected trial that changes the cost by less than 1e-6 of
itself ends the solve as ``cost_plateau`` too, so a Jacobian of the wrong
sign reads as divergence only while its uphill trials move the cost by
more than that. A rejected step with the damping at its cap raises
NoConvergenceError.

Rotation blocks are handled through the ``plus`` retraction, so the
solver steps in local increments composed onto the current estimate
instead of in a global singular parameterization; a Jacobian is taken
with respect to that increment. The pose solvers' state holds each view's
rotation matrix itself (9 entries, against its increment's 3), so the
increment has ``n_increments`` entries, fewer than the state's ``x.size``:
the block layout and :func:`fd_jacobian` count those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoConvergenceError

FD_REL_STEP = 1e-6
DAMPING_INIT = 1e-6
DAMPING_MIN = 1e-12
DAMPING_MAX = 1e12
DAMPING_FACTOR = 10.0
COST_REL_TOL = 1e-6
STEP_REL_TOL = 1e-12
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
    residual: np.ndarray  # the model's r at x

    def summary(self) -> str:
        return (
            f"{self.iterations} iterations, stop {self.reason}, "
            f"{self.residual_evals} residual evaluations, rms {self.rms:.6g}"
        )


class BlockJacobian(NamedTuple):
    """d residual / d increment when the parameters are m shared entries, then one p-entry block per view.

    The residual is N groups of k rows. Group n depends only on the shared
    entries, by ``shared`` (N, k, m), and on the block of view ``view[n]``,
    by ``own`` (N, k, p).
    """

    shared: np.ndarray
    own: np.ndarray
    view: np.ndarray


def fd_jacobian(residual: Callable, x: np.ndarray, plus: Callable, n_increments: int) -> np.ndarray:
    """Dense central-difference Jacobian of ``residual`` at ``x`` under ``plus``: 2 evaluations per column.

    One column per increment entry, ``n_increments`` of them. Entry j steps
    by 1e-6 max(|x[j]|, 1): relative for the entries an increment shares
    with ``x``, its leading ones, and 1e-6 where ``x[j]`` is a
    rotation-matrix entry, at most 1 in size.
    """
    cols = []
    dx = np.zeros(n_increments)
    for j in range(dx.size):
        h = FD_REL_STEP * max(abs(x[j]), 1.0)
        dx[j] = h
        rp = residual(plus(x, dx))
        dx[j] = -h
        rm = residual(plus(x, dx))
        dx[j] = 0.0
        cols.append((rp - rm) / (2.0 * h))
    return np.column_stack(cols)


def levenberg_marquardt(
    model: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], BlockJacobian]]],
    x0: np.ndarray,
    *,
    plus: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_increments: int,
) -> LMResult:
    """Minimize sum of squared residuals starting from ``x0``.

    ``plus(x, dx)`` applies a local increment of ``n_increments`` entries.
    ``model(x)`` returns the residual at ``x`` and a function of no
    arguments that builds its derivative with respect to the increment, a
    :class:`BlockJacobian` whose view index must not change between calls.
    That function is called once per iteration, on the accepted x only.
    ``residual_evals`` counts the model calls: one, plus one per trial
    step.
    Starts with damping 1e-6, as for an x0 believed good, since every
    caller's x0 is a closed-form estimate. Stops on a gradient norm below
    1e-10, a relative cost change below 1e-6 (about 0.04 sd of a corner
    fit), a step below 1e-12 of ‖x‖, or after ``MAX_ITER`` sweeps; a
    rejected trial within the cost tolerance stops it as ``cost_plateau``
    as an accepted one does, leaving x where it was. If the cost still
    increases by more than that with the damping clamped at its maximum,
    raises NoConvergenceError carrying the best iterate seen.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, jacobian = model(x)
    evals = 1
    cost = float(r @ r)
    lam = DAMPING_INIT
    n_iter = 0
    floor = r.size * RMS_FLOOR * RMS_FLOOR
    slots = None

    def result(reason: str) -> LMResult:
        return LMResult(x, cost, _rms(cost, r.size), n_iter, reason, evals, r)

    if cost <= floor:
        return result("cost_floor")

    for n_iter in range(1, MAX_ITER + 1):
        jac = jacobian()
        if slots is None:
            slots = _view_slots(jac, n_increments)
        system = _BlockSystem(jac, r, slots)
        if np.linalg.norm(system.gradient) < GRAD_TOL:
            return result("gradient")

        while True:
            dx = system.step(lam)
            if dx is not None:
                x_try = plus(x, dx)
                r_try, jacobian_try = model(x_try)
                evals += 1
                cost_try = float(r_try @ r_try)
                rel_change = abs(cost - cost_try) / max(cost, 1e-300)
                small_step = np.linalg.norm(dx) <= STEP_REL_TOL * (np.linalg.norm(x) + STEP_REL_TOL)
                accepted = cost_try < cost
                if accepted:
                    x, r, jacobian, cost = x_try, r_try, jacobian_try, cost_try
                    lam = max(lam / DAMPING_FACTOR, DAMPING_MIN)
                # every iteration starts above the floor, so only an accepted step reaches it
                if cost <= floor:
                    return result("cost_floor")
                if rel_change < COST_REL_TOL:
                    return result("cost_plateau")
                if small_step:
                    # x no longer moves; what the cost does is rounding noise
                    return result("step_floor")
                if accepted:
                    break
            if lam >= DAMPING_MAX:
                raise NoConvergenceError(
                    "refinement failed: cost still increases with damping at its cap",
                    best=result("diverged"),
                )
            lam = min(lam * DAMPING_FACTOR, DAMPING_MAX)

    return result("max_iter")


def _view_slots(jac: BlockJacobian, n_params: int) -> tuple[int, int, np.ndarray | None]:
    """Views, the longest view's group count, and each group's row in the views' zero-padded stack:
    None when the groups already are that stack, in view order with equal counts.

    A stable sort keeps each view's groups in input order.
    """
    m, p = jac.shared.shape[2], jac.own.shape[2]
    counts = np.bincount(jac.view, minlength=(n_params - m) // max(p, 1))
    if m + p * counts.size != n_params:
        raise ValueError(f"{m} shared + {counts.size} blocks of {p} is not {n_params} parameters")
    order = np.argsort(jac.view, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
    longest = counts.max(initial=0)
    row = jac.view * longest + slot
    if counts.size * longest == row.size and np.array_equal(row, np.arange(row.size)):
        row = None
    return counts.size, longest, row


class _BlockSystem:
    """The block-arrow normal equations JᵀJ dx = -Jᵀr of one LM iteration."""

    def __init__(self, jac: BlockJacobian, r: np.ndarray, slots: tuple[int, int, np.ndarray | None]):
        n, k, m = jac.shared.shape
        p = jac.own.shape[2]
        n_views, longest, row = slots
        # view v's rows [B_v A_v r_v], zero-padded to the longest view
        packed = np.concatenate([jac.own, jac.shared, r.reshape(n, k, 1)], axis=2)
        if row is None:
            rows = packed
        else:
            rows = np.zeros((n_views * longest, k, p + m + 1))
            rows[row] = packed
        rows = rows.reshape(n_views, -1, p + m + 1)
        M = rows.transpose(0, 2, 1) @ rows
        self.m, self.p = m, p
        self.V = M[:, :p, :p]
        self.Wt_g = M[:, :p, p:]  # [W_vᵀ g_v], the right-hand sides of the pose solves
        self.Wt = self.Wt_g[:, :, :m].reshape(n_views * p, m)
        self.U = M[:, p:-1, p:-1].sum(axis=0)
        self.g_shared = M[:, p:-1, -1].sum(axis=0)
        self.gradient = np.concatenate([self.g_shared, M[:, :p, -1].ravel()])
        diag = np.concatenate([np.diag(self.U), np.diagonal(self.V, axis1=1, axis2=2).ravel()])
        self.diag = np.maximum(diag, max(diag.max(), 1.0) * 1e-15)

    def step(self, lam: float) -> np.ndarray | None:
        """The step solving (JᵀJ + lam diag) dx = -Jᵀr, or None if the system is singular."""
        m, p = self.m, self.p
        damp = lam * self.diag
        V = self.V + damp[m:].reshape(len(self.V), p, 1) * np.eye(p)
        try:
            Y = np.linalg.solve(V, self.Wt_g)  # V_v⁻¹ [W_vᵀ g_v]
            WY = self.Wt.T @ Y.reshape(-1, m + 1)  # Σ_v W_v V_v⁻¹ [W_vᵀ g_v]
            S = self.U + np.diag(damp[:m]) - WY[:, :m]
            d_shared = np.linalg.solve(S, WY[:, m] - self.g_shared)
        except np.linalg.LinAlgError:
            return None
        d_own = -Y[:, :, m] - Y[:, :, :m] @ d_shared
        return np.concatenate([d_shared, d_own.ravel()])


def _rms(cost: float, n_residuals: int) -> float:
    return float(np.sqrt(cost / max(n_residuals, 1)))
