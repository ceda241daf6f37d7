"""Explicit failures of unique continuation: branching ODE solutions.

Both constructions return a trivial branch u0 = 0 and a nontrivial branch
u1 that agree on an interval and separate beyond it, each with small ODE
residual.  Residuals are evaluated with stencils that never straddle the
branch point, so piecewise-polynomial branches differentiate exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


# right-hand side f(x, y) and branch of each case
_PEANO_CASES = {
    "sqrt": (lambda x, y: 2.0 * abs(y) ** 0.5, lambda s: s ** 2),
    "two-thirds": (lambda x, y: 3.0 * abs(y) ** (2.0 / 3.0), lambda s: s ** 3),
}


def peano_branches(case: str, c: float, grid: Grid1D) -> BranchedSolution:
    """Zero branch and the analytic branch leaving u = 0 at x = c.

    case 'sqrt':        u' = 2 sqrt|u|,   u1 = (x-c)^2 past c;
    case 'two-thirds':  u' = 3 u^{2/3},   u1 = (x-c)^3 past c.
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
    return BranchedSolution(grid, u0, u1, c, residual0, residual1)


def rank_one_counterexample(grid: Grid1D) -> tuple:
    """Nontrivial branch of u' = <u, a> a on a grid ending at x = 2, for
    a = k smoothstep((x-1)/w): 0 below 1, a collar of width w = 2% of the
    grid's length, then k, with k = sqrt(2) / (1 - w/2) so that
    int_1^2 a = sqrt(2) exactly.

    u1 is the exact antiderivative int_1^x a: k w S((x-1)/w) on the collar,
    with S(y) = y^4 (5/2 - 3y + y^2) the integral of smoothstep, then
    k (x - 1 - w/2).  Returns (BranchedSolution, a).
    """
    x = grid.t
    if not x[0] < 1.0 < x[-1]:
        raise ValueError("branch point must lie inside the grid")
    width = 0.02 * (x[-1] - x[0])
    k = math.sqrt(2.0) / (1.0 - 0.5 * width)
    lo, hi = np.searchsorted(x, (1.0, 1.0 + width))
    a = np.zeros_like(x)
    u1 = np.zeros_like(x)
    a[lo:] = k
    u1[lo:] = k * (x[lo:] - (1.0 + 0.5 * width))
    y = (x[lo:hi] - 1.0) / width  # the collar, 0 <= y < 1
    a[lo:hi] = k * smoothstep(y)
    u1[lo:hi] = k * width * y ** 4 * (2.5 + y * (y - 3.0))
    u0 = np.zeros_like(u1)

    w = grid.quad_weights()
    pairing = float(np.sum(w * u1 * a))
    if abs(pairing - 1.0) > 1e-8:
        raise NormalizationError(f"<u, a> = {pairing:.12f} not within 1e-8 of 1")

    split = int(np.searchsorted(x, 1.0, side="right"))
    res = derivative_piecewise(u1, grid.spacing, split) - pairing * a
    residual1 = float(np.max(np.abs(res)))
    if residual1 > 1e-6:
        raise NormalizationError(f"branch residual {residual1:.3e} exceeds 1e-6")

    sol = BranchedSolution(grid, u0, u1, 1.0, 0.0, residual1)
    return sol, a
