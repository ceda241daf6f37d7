"""Explicit failures of unique continuation: branching ODE solutions.

Both constructions return a trivial branch u0 = 0 and a nontrivial branch
u1 that agree on an interval and separate beyond it, each with small ODE
residual.  Residuals are evaluated with stencils that never straddle the
branch point, so piecewise-polynomial branches differentiate exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .carleman import smoothstep
from .errors import NormalizationError
from .fields import Grid1D

# 5-point stencil coefficients for d/dx at offsets 0..4 from the left end
_ONESIDED5 = {
    0: np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
    1: np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
    2: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
    3: np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0,
    4: np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / 12.0,
}


def derivative_5pt(u: np.ndarray, h: float) -> np.ndarray:
    """4th-order d/dx on a uniform grid (exact for polynomials up to degree 4)."""
    n = u.size
    if n < 5:
        raise ValueError("need at least 5 samples")
    du = np.empty_like(u, dtype=float)
    du[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    for i, c in ((0, 0), (1, 1), (n - 2, 3), (n - 1, 4)):
        lo = min(max(i - c, 0), n - 5)
        du[i] = _ONESIDED5[i - lo] @ u[lo:lo + 5] / h
    return du


def derivative_piecewise(u: np.ndarray, h: float, split: int) -> np.ndarray:
    """d/dx with stencils confined to [0, split) and [split, n) separately."""
    n = u.size
    du = np.empty_like(u, dtype=float)
    for lo, hi in ((0, split), (split, n)):
        if hi - lo == 0:
            continue
        if hi - lo < 5:
            raise ValueError("each side of the branch point needs >= 5 samples")
        du[lo:hi] = derivative_5pt(u[lo:hi], h)
    return du


@dataclass(eq=False)
class BranchedSolution:
    grid: Grid1D
    u0: np.ndarray
    u1: np.ndarray
    branch_point: float
    residual0: float
    residual1: float

    @property
    def separation_sup(self) -> float:
        mask = self.grid.t > self.branch_point
        return float(np.max(np.abs(self.u0[mask] - self.u1[mask])))


def _rk4_track(f: Callable, x0: float, y0: float, x1: float, h: float,
               reference: Callable) -> float:
    """Integrate y' = f(x, y) from (x0, y0) to x1 with fixed step h, returning
    the max deviation from the reference solution at the step points.

    Pass Python floats: numpy scalars give the same bits, but every stage
    then runs the slower numpy-scalar arithmetic."""
    x, y = x0, y0
    worst = abs(y - reference(x))
    while x < x1 - 1e-12:
        step = min(h, x1 - x)
        k1 = f(x, y)
        k2 = f(x + 0.5 * step, y + 0.5 * step * k1)
        k3 = f(x + 0.5 * step, y + 0.5 * step * k2)
        k4 = f(x + step, y + step * k3)
        y += (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += step
        worst = max(worst, abs(y - reference(x)))
    return worst


# right-hand side f(x, y) and branch of each case, in builtins so that one
# formula serves the Python floats of the RK4 cross-check and the residual's arrays
_PEANO_CASES = {
    "sqrt": (lambda x, y: 2.0 * abs(y) ** 0.5, lambda s: s ** 2),
    "two-thirds": (lambda x, y: 3.0 * abs(y) ** (2.0 / 3.0), lambda s: s ** 3),
}


def peano_branches(case: str, c: float, grid: Grid1D) -> BranchedSolution:
    """Zero branch and the analytic branch leaving u = 0 at x = c.

    case 'sqrt':        u' = 2 sqrt|u|,   u1 = (x-c)^2 past c;
    case 'two-thirds':  u' = 3 u^{2/3},   u1 = (x-c)^3 past c.

    The nontrivial branch is re-integrated by RK4 from just past the branch
    point as an independent cross-check, which must agree to 1e-6.
    """
    if case not in _PEANO_CASES:
        raise ValueError(f"unknown case {case!r}")
    rhs, branch = _PEANO_CASES[case]
    x = grid.t
    if not x[0] < c < x[-1]:
        raise ValueError("branch point must lie inside the grid")

    s = np.maximum(x - c, 0.0)
    u1 = branch(s)
    u0 = np.zeros_like(u1)

    split = int(np.searchsorted(x, c, side="right"))
    res1 = derivative_piecewise(u1, grid.spacing, split) - rhs(x, u1)
    residual1 = float(np.max(np.abs(res1)))
    residual0 = 0.0  # u0 = 0 solves exactly

    # independent shooting check from (c + eps, u1(c + eps)), fixed step domain/4096
    eps = float(max(0.1 * (x[-1] - c), 8.0 * grid.spacing))
    h_rk4 = float((x[-1] - x[0]) / 4096)
    deviation = _rk4_track(rhs, float(c + eps), branch(eps), float(x[-1]), h_rk4,
                           lambda xi: branch(xi - c))
    if deviation > 1e-6:
        raise ValueError(f"RK4 re-integration deviates by {deviation:.3e}")

    return BranchedSolution(grid, u0, u1, c, residual0, residual1)


def rank_one_counterexample(grid: Optional[Grid1D] = None) -> tuple:
    """Nontrivial branch of u' = <u, a> a for a = sqrt(2) times the indicator
    of [1, 2], smoothstep-collared at the jump over 2% of the grid's length.

    Returns (BranchedSolution, a) where a has been rescaled so the
    grid-trapezoid value of int_1^2 a equals sqrt(2) exactly.
    """
    if grid is None:
        grid = Grid1D.uniform(2.0, 131073)
    x = grid.t
    w = grid.quad_weights()
    width = 0.02 * (x[-1] - x[0])
    lo, hi = np.searchsorted(x, (1.0, 1.0 + width))
    a = np.repeat((0.0, math.sqrt(2.0)), (lo, x.size - lo))  # sqrt(2) from x = 1 on
    collar = slice(lo, hi + 1)  # and a point past 1 + width, where smoothstep is exactly 1
    a[collar] *= smoothstep((x[collar] - 1.0) / width)
    total = float(np.sum(w * a))
    target = math.sqrt(2.0)
    if abs(total - target) > 1e-10:
        a *= target / total

    # u(x) = int_1^x a by cumulative trapezoid
    h = grid.spacing
    u1 = np.zeros_like(a)
    np.add(a[1:], a[:-1], out=u1[1:])
    u1[1:] *= 0.5 * h
    np.cumsum(u1[1:], out=u1[1:])
    u0 = np.zeros_like(u1)

    pairing = float(np.sum(w * u1 * a))
    if abs(pairing - 1.0) > 1e-8:
        raise NormalizationError(f"<u, a> = {pairing:.12f} not within 1e-8 of 1")

    split = int(np.searchsorted(x, 1.0, side="right"))
    res = derivative_piecewise(u1, h, split) - pairing * a
    residual1 = float(np.max(np.abs(res)))
    if residual1 > 1e-6:
        raise NormalizationError(f"branch residual {residual1:.3e} exceeds 1e-6")

    sol = BranchedSolution(grid, u0, u1, 1.0, 0.0, residual1)
    return sol, a
