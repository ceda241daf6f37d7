"""Zeroth-order perturbations P(u) and the pointwise admissibility criterion.

Shipped kinds all satisfy P(0) = 0 exactly; each is data on its carrier a,
and the zero kind has none:
  pointwise   P(u)(x) = <u(x), a(x)> u(x)   fiber_pairing
  matrix      P(u)(x) = M(x) u(x)           matrix (torus linearization)
  rank-one    P(u)(x) = <u, a>_{L2} a(x)    l2_pairing, and its field map
Other nonlocal kinds are a whole-field map, Perturbation(a, field=...).
integrate_zero_data marches the zero and local kinds by one RK4 stage loop
on Python scalars (order 4), with M folded into the generator; nonlocal
kinds, frozen once per step (zero ahead of the front, rank-one from a
running <u, a>), march by RK4 step matrices built for all steps at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .clifford import fiber_inner
from .errors import DomainMismatchError
from .fields import Grid1D, SpinorField, l2_inner, same_grid


@dataclass(eq=False)
class Perturbation:
    a: Optional[SpinorField] = None    # carrier field: the grid P lives on
    fiber_pairing: bool = False        # pointwise: P(u)(x) = <u(x), a(x)> u(x)
    matrix: Optional[np.ndarray] = None  # matrix kind: P(u)(x) = M(x) u(x)
    field: Optional[Callable] = None   # nonlocal kinds: SpinorField -> values
    l2_pairing: bool = False           # nonlocal: field(u) = <u, a>_{L2} a

    @classmethod
    def zero(cls) -> "Perturbation":
        return cls()

    @classmethod
    def pointwise(cls, a: SpinorField) -> "Perturbation":
        return cls(a, fiber_pairing=True)

    @classmethod
    def rank_one(cls, a: SpinorField) -> "Perturbation":
        return cls(a, field=lambda u: l2_inner(u, a) * a.values, l2_pairing=True)

    @classmethod
    def matrix_field(cls, carrier: SpinorField, matrix: np.ndarray) -> "Perturbation":
        return cls(carrier, matrix=np.asarray(matrix, dtype=complex))


def eval_perturbation(P: Perturbation, u: SpinorField) -> SpinorField:
    if P.a is not None:
        same_grid(P.a.grid, u.grid)
    if P.field is not None:
        return SpinorField(u.grid, P.field(u))
    if P.fiber_pairing:
        return SpinorField(u.grid, fiber_inner(u.values, P.a.values)[..., None] * u.values)
    if P.matrix is not None:
        return SpinorField(u.grid, np.einsum("...ij,...j->...i", P.matrix, u.values))
    return SpinorField(u.grid, np.zeros_like(u.values))


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

    The generator B + C (+ cl(dt)^-1 M for the matrix kind) and the pointwise
    carrier are read at the stage offsets 0, 1/2 and 1 of each step, the
    midpoint by the 4-point rule.  The zero and local kinds march stage by
    stage at order 4, on Python complex scalars with no numpy call in a
    step.  A nonlocal kind is evaluated once per step on the marched state
    (zero ahead of the front, exact for zero data) and taken linear between
    the stage times, at order 2; such a step is affine, u_{i+1} = M_i u_i +
    N0_i f_i + N1_i f_{i+1}, so it marches by those step matrices.
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
    generator = op.B if op.generator is None else op.generator  # B + C; B = C = 0 for None
    tangential = _stages(generator if P.matrix is None else generator + cl_inv @ P.matrix)
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
    gen = [(-g).tolist() for g in tangential.values()]  # stage values as lists
    car = ([np.conj(c).tolist() for c in _stages(P.a.values).values()]  # z pairs conj(a)
           if P.fiber_pairing else [[None] * (grid.n - 1)] * 3)
    cl, components = cl_inv.tolist(), range(rank)

    def dot(x, y):
        acc = 0j
        for j in components:
            acc += x[j] * y[j]
        return acc

    def rhs(g, c, z):  # -(generator) z, less cl(dt)^-1 <z, a> z when pointwise
        if c is None:
            return [dot(row, z) for row in g]
        p = dot(z, c)
        pz = [p * x for x in z]
        return [dot(row, z) - dot(row_cl, pz) for row, row_cl in zip(g, cl)]

    y = values[0].tolist()
    out = [y]
    for g0, gm, g1, c0, cm, c1 in zip(*gen, *car):
        k1 = rhs(g0, c0, y)
        k2 = rhs(gm, cm, [a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = rhs(gm, cm, [a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = rhs(g1, c1, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        out.append(y)
    return SpinorField(grid, np.array(out))


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
