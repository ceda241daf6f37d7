"""Explicit failures of unique continuation: branching ODE solutions.

Both constructions return a trivial branch u0 = 0 and a nontrivial branch
u1 that agree on an interval and separate beyond it, each with small ODE
residual.  Residuals are evaluated with stencils that never straddle the
branch point, so piecewise-polynomial branches differentiate exactly, and
block by block, so a call holds its outputs plus a few blocks of scratch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carleman import smoothstep
from .errors import NormalizationError
from .fields import Grid1D

# one-sided 5-point d/dx rows at offsets 0, 1, 3 and 4 from the left end of
# five samples: the first two and the last two points of a side
_END_ROWS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0],
                      [-1.0, 6.0, -18.0, 10.0, 3.0], [3.0, -16.0, 36.0, -48.0, 25.0]]) / 12.0
_BLOCK = 8192  # points per block: 64 KiB of float64


def _sup_residual(u: np.ndarray, h: float, split: int, rhs) -> float:
    """sup |u' - rhs(idx)|, with u' the 4th-order 5-point stencil confined to
    [0, split) and [split, n) separately (exact for polynomials up to degree
    4 on each side), taken block by block through two blocks of scratch.
    rhs(idx) gives the right-hand side at a slice or index array idx."""
    buf, tmp = np.empty(_BLOCK), np.empty(_BLOCK)
    sups = []
    for lo, hi in ((0, split), (split, u.size)):
        if hi - lo < 5:
            raise ValueError("each side of the branch point needs >= 5 samples")
        du = np.array([row @ u[at:at + 5]
                       for row, at in zip(_END_ROWS, (lo, lo, hi - 5, hi - 5))]) / h
        sups.append(np.max(np.abs(du - rhs([lo, lo + 1, hi - 2, hi - 1]))))
        for b in range(lo + 2, hi - 2, _BLOCK):
            e = min(b + _BLOCK, hi - 2)
            d, t = buf[:e - b], tmp[:e - b]  # (u_-2 - 8 u_-1 + 8 u_1 - u_2) / 12h, in order
            np.subtract(u[b - 2:e - 2], np.multiply(u[b - 1:e - 1], 8.0, out=t), out=d)
            np.add(d, np.multiply(u[b + 1:e + 1], 8.0, out=t), out=d)
            np.subtract(d, u[b + 2:e + 2], out=d)
            np.divide(d, 12.0 * h, out=d)
            np.subtract(d, rhs(slice(b, e)), out=d)
            sups.append(np.abs(d, out=d).max())
    return float(np.max(sups))


def _pairing(w: np.ndarray, u: np.ndarray, a: np.ndarray) -> float:
    """sum(w u a), equal to np.sum(w * u * a) bit for bit without forming
    the product."""
    return _pairwise(w, u, a, np.empty(min(u.size, _BLOCK)), 0, u.size)


def _pairwise(w: np.ndarray, u: np.ndarray, a: np.ndarray, buf: np.ndarray,
              lo: int, hi: int) -> float:
    """sum(w u a) over [lo, hi), its halves split as numpy's pairwise sum
    splits them (rounded down to a multiple of 8) until a part fits the
    block buffer buf, whose sum numpy takes."""
    if hi - lo > _BLOCK:
        half = (hi - lo) // 2
        half -= half % 8
        return (_pairwise(w, u, a, buf, lo, lo + half)
                + _pairwise(w, u, a, buf, lo + half, hi))
    p = np.multiply(w[lo:hi], u[lo:hi], out=buf[:hi - lo])
    return float(np.multiply(p, a[lo:hi], out=p).sum())


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

    u1 = branch(np.maximum(x - c, 0.0))
    split = int(np.searchsorted(x, c, side="right"))
    residual1 = _sup_residual(u1, grid.spacing, split, lambda i: rhs(x[i], u1[i]))
    # u0 = 0 solves exactly; np.zeros leaves its pages untouched
    return BranchedSolution(grid, np.zeros(x.size), u1, c, 0.0, residual1)


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
    a, u1 = np.zeros(x.size), np.zeros(x.size)
    a[lo:] = k
    np.multiply(np.subtract(x[lo:], 1.0 + 0.5 * width, out=u1[lo:]), k, out=u1[lo:])
    y = (x[lo:hi] - 1.0) / width  # the collar, 0 <= y < 1
    a[lo:hi] = k * smoothstep(y)
    u1[lo:hi] = k * width * y ** 4 * (2.5 + y * (y - 3.0))

    pairing = _pairing(grid.quad_weights(), u1, a)
    if abs(pairing - 1.0) > 1e-8:
        raise NormalizationError(f"<u, a> = {pairing:.12f} not within 1e-8 of 1")

    split = int(np.searchsorted(x, 1.0, side="right"))
    residual1 = _sup_residual(u1, grid.spacing, split, lambda i: pairing * a[i])
    if residual1 > 1e-6:
        raise NormalizationError(f"branch residual {residual1:.3e} exceeds 1e-6")
    # u0 = 0 solves exactly; np.zeros leaves its pages untouched
    return BranchedSolution(grid, np.zeros(x.size), u1, 1.0, 0.0, residual1), a
