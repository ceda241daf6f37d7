"""Zeroth-order perturbations P(u) and the pointwise admissibility criterion.

Shipped kinds all satisfy P(0) = 0 exactly.  The zero kind has neither a
fiber nor a field map.  Local kinds are a fiber map of a per-point
coefficient c, P(u)(x) = fiber(c(x), u(x)):
  pointwise   P(u)(x) = <u(x), a(x)> u(x)
  matrix      P(u)(x) = M(x) u(x)      (bundle map of the torus linearization)
Nonlocal kinds are a whole-field map P(u) = field(u), built by a
constructor or given directly as Perturbation(a, field=...):
  rank-one    P(u)(x) = <u, a>_{L2} a(x)
integrate_zero_data reads the operator's stored B + C and a local kind's
coefficient at the RK4 stage times and applies local kinds to each stage
value (order 4); the zero kind adds no term.  Nonlocal kinds, frozen once
per step (zero ahead of the front, rank-one from a running <u, a>), march
by RK4 step matrices built for all steps at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .clifford import fiber_inner
from .errors import DomainMismatchError
from .fields import Grid1D, SpinorField, l2_inner, same_grid


@dataclass(eq=False)
class Perturbation:
    a: Optional[SpinorField] = None    # carrier field: the grid P lives on
    coeff: Any = 0.0                   # local kinds: per-point coefficient (or scalar)
    fiber: Optional[Callable] = None   # local kinds: (coeff, values) -> values
    field: Optional[Callable] = None   # nonlocal kinds: SpinorField -> values
    l2_pairing: bool = False           # nonlocal: field(u) = <u, a>_{L2} a

    @classmethod
    def zero(cls) -> "Perturbation":
        return cls()

    @classmethod
    def pointwise(cls, a: SpinorField) -> "Perturbation":
        return cls(a, a.values, fiber=lambda c, v: fiber_inner(v, c)[..., None] * v)

    @classmethod
    def rank_one(cls, a: SpinorField) -> "Perturbation":
        return cls(a, field=lambda u: l2_inner(u, a) * a.values, l2_pairing=True)

    @classmethod
    def matrix_field(cls, carrier: SpinorField, matrix: np.ndarray) -> "Perturbation":
        return cls(carrier, np.asarray(matrix, dtype=complex),
                   fiber=lambda c, v: np.einsum("...ij,...j->...i", c, v))


def eval_perturbation(P: Perturbation, u: SpinorField) -> SpinorField:
    if P.a is not None:
        same_grid(P.a.grid, u.grid)
    if P.field is not None:
        return SpinorField(u.grid, P.field(u))
    if P.fiber is None:
        return SpinorField(u.grid, np.zeros_like(u.values))
    return SpinorField(u.grid, P.fiber(P.coeff, u.values))


@dataclass
class AdmissibilityResult:
    admissible: bool
    c0: Optional[float]
    reason: str = ""

    def __bool__(self) -> bool:
        return self.admissible


def admissibility_bound(P: Perturbation, u: SpinorField) -> AdmissibilityResult:
    """Smallest sampled C0 with |P(u)(x)| <= C0 |u(x)| on the grid.

    Points with u(x) = 0 must have P(u)(x) = 0, otherwise the verdict is
    non-admissible (a verdict, not an error).
    """
    pu = eval_perturbation(P, u)
    mag_u = u.fiber_abs().reshape(-1)
    mag_p = pu.fiber_abs().reshape(-1)
    zero = mag_u == 0.0
    if np.any(mag_p[zero] > 0.0):
        idx = int(np.argmax(mag_p * zero))
        return AdmissibilityResult(False, None,
                                   f"P(u) nonzero at sample {idx} where u vanishes")
    if np.all(zero):
        return AdmissibilityResult(True, 0.0, "u vanishes on the grid")
    c0 = float(np.max(mag_p[~zero] / mag_u[~zero]))
    return AdmissibilityResult(True, c0)


@dataclass
class UcpConditionResult:
    verdict: str            # "condition-i" | "condition-ii" | "neither"
    holds_i: bool
    holds_ii: bool
    c0: Optional[float] = None


def ucp_condition_check(a: SpinorField, u: SpinorField) -> UcpConditionResult:
    """Which continuation condition holds for the fixed spinor a and solution u.

    (i)  a has no zero run (|a| < 1e-12) of >= 3 consecutive samples,
    (ii) |a(x)| <= C0 |u(x)| everywhere on the grid,
    else neither.
    """
    same_grid(a.grid, u.grid)
    mag_a = a.fiber_abs().reshape(-1)
    mag_u = u.fiber_abs().reshape(-1)

    z = mag_a < 1e-12
    holds_i = not np.any(z[:-2] & z[1:-1] & z[2:])

    zero_u = mag_u == 0.0
    holds_ii = not np.any(mag_a[zero_u] > 1e-12)
    c0 = None
    if holds_ii:
        active = ~zero_u & (mag_a > 0.0)
        c0 = float(np.max(mag_a[active] / mag_u[active])) if active.any() else 0.0

    if holds_i:
        return UcpConditionResult("condition-i", True, holds_ii, c0)
    if holds_ii:
        return UcpConditionResult("condition-ii", False, True, c0)
    return UcpConditionResult("neither", False, False, None)


def integrate_zero_data(op, P: Perturbation, u0: np.ndarray) -> SpinorField:
    """March D u + P(u) = 0 on the operator grid by RK4 from slice data u0.

    The tangential part B + C and a local kind's coefficient are read from
    their stored arrays at the stage offsets 0, 1/2 and 1 of each step, the
    midpoint by the 4-point rule.  The zero and local kinds march stage by
    stage, at order 4; a local kind acts on each stage value.  A nonlocal
    kind is evaluated once per step on the marched state (zero ahead of the
    front, exact for zero data) and interpolated linearly to the stage
    times, which makes its march second order.  Each such step is affine in
    the state and the two frozen rows, u_{i+1} = M_i u_i + N0_i f_i +
    N1_i f_{i+1}, so it marches by those step matrices, built at once.
    """
    grid: Grid1D = op.grid
    if not isinstance(grid, Grid1D):
        raise DomainMismatchError("initial-value integration is 1D only")
    if P.a is not None:
        same_grid(P.a.grid, grid)
    rank = op.cl_dt.shape[-1]
    if np.shape(u0) != (rank,):
        raise DomainMismatchError(f"slice data of shape {np.shape(u0)}, expected ({rank},)")
    values = np.zeros((grid.n, rank), dtype=complex)
    values[0] = np.asarray(u0, dtype=complex)
    cl_inv = -op.cl_dt  # cl(dt)^{-1}
    h = grid.spacing
    tangential = _stages(op.B + op.C)
    if P.field is not None:
        M, N0, N1 = _step_matrices(tangential, cl_inv, h)
        if P.l2_pairing:  # the frozen rows S_i a_i, S_i a_{i+1} fold into S_i b_i
            a = P.a.values
            b = (N0 @ a[:-1, :, None] + N1 @ a[1:, :, None])[..., 0]
            wa, pairing = grid.quad_weights()[:, None] * np.conj(a), 0.0
        for i in range(grid.n - 1):
            if P.l2_pairing:  # S_i = sum_{j<=i} w_j <u_j, a_j>, one row per step
                pairing = pairing + wa[i] @ values[i]
                values[i + 1] = M[i] @ values[i] + pairing * b[i]
            else:
                f = P.field(SpinorField(grid, values))
                values[i + 1] = M[i] @ values[i] + N0[i] @ f[i] + N1[i] @ f[i + 1]
        return SpinorField(grid, values)
    if P.fiber is not None:
        coeff_at = _stages(np.broadcast_to(P.coeff, (grid.n,) + np.shape(P.coeff)[1:]))
    for i in range(grid.n - 1):
        y = values[i]

        def rhs(s, y):
            dy = -tangential[s][i] @ y
            if P.fiber is not None:
                return dy - cl_inv @ P.fiber(coeff_at[s][i], y)
            return dy

        k1 = rhs(0.0, y)
        k2 = rhs(0.5, y + 0.5 * h * k1)
        k3 = rhs(0.5, y + 0.5 * h * k2)
        k4 = rhs(1.0, y + h * k3)
        values[i + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return SpinorField(grid, values)


def _step_matrices(tangential: dict, cl_inv: np.ndarray, h: float) -> list:
    """M, N0 and N1 of every RK4 step of u' = -(B + C) u - cl_inv f, with f
    linear between the frozen rows f_i and f_{i+1}: the stage recursion
    applied to the coefficients of (u_i, f_i, f_{i+1}) instead of a state."""
    r = cl_inv.shape[0]
    start = np.zeros((len(tangential[0.0]), r, 3 * r), dtype=complex)
    start[:, :, :r] = np.eye(r)

    def k(s, z):
        dz = -tangential[s] @ z
        dz[:, :, r:2 * r] -= (1.0 - s) * cl_inv
        dz[:, :, 2 * r:] -= s * cl_inv
        return dz

    k1 = k(0.0, start)
    k2 = k(0.5, start + 0.5 * h * k1)
    k3 = k(0.5, start + 0.5 * h * k2)
    k4 = k(1.0, start + h * k3)
    return np.split(start + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), 3, axis=-1)


def _stages(c: np.ndarray) -> dict:
    """Per-step values of c at the RK4 stage offsets 0, 1/2 and 1."""
    return {0.0: c[:-1], 0.5: _midpoints(c), 1.0: c[1:]}


def _midpoints(c: np.ndarray) -> np.ndarray:
    """c at the step midpoints: cubic interpolation, centred inside and
    one-sided at the two ends; linear below 4 points."""
    if len(c) < 4:
        return 0.5 * (c[:-1] + c[1:])
    first = (5.0 * c[0] + 15.0 * c[1] - 5.0 * c[2] + c[3]) / 16.0
    inner = (-c[:-3] + 9.0 * c[1:-2] + 9.0 * c[2:-1] - c[3:]) / 16.0
    last = (c[-4] - 5.0 * c[-3] + 15.0 * c[-2] + 5.0 * c[-1]) / 16.0
    return np.concatenate([first[None], inner, last[None]])
