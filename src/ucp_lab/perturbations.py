"""Zeroth-order perturbations P(u) and the pointwise admissibility criterion.

Shipped kinds all satisfy P(0) = 0 exactly; each is data on its carrier a,
and the zero kind has none:
  pointwise   P(u)(x) = <u(x), a(x)> u(x)   fiber_pairing
  matrix      P(u)(x) = M(x) u(x)           matrix (torus linearization)
  rank-one    P(u)(x) = <u, a>_{L2} a(x)    l2_pairing
integrate_zero_data marches the linear kinds by the RK4 step matrices of
one generator, rank-one by superposition, and the nonlinear pointwise kind
by an RK4 stage loop on Python scalars; every kind at order 4.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clifford import fiber_inner
from .errors import DomainMismatchError, FlowInstabilityError, PreconditionError
from .fields import Grid1D, SpinorField, l2_inner, same_grid

# |1 - <w, a>| below which the rank-one march has no unique solution
DEGENERATE_PAIRING = 1e-8


@dataclass(eq=False)
class Perturbation:
    a: Optional[SpinorField] = None    # carrier field: the grid P lives on
    fiber_pairing: bool = False        # pointwise: P(u)(x) = <u(x), a(x)> u(x)
    matrix: Optional[np.ndarray] = None  # matrix kind: P(u)(x) = M(x) u(x)
    l2_pairing: bool = False           # rank-one: P(u)(x) = <u, a>_{L2} a(x)

    def __post_init__(self):
        kinds = self.fiber_pairing + (self.matrix is not None) + self.l2_pairing
        if kinds != (self.a is not None):
            raise ValueError(f"a Perturbation needs no carrier a and no kind, or a carrier and "
                             f"one of fiber_pairing, matrix and l2_pairing; got a = "
                             f"{'None' if self.a is None else 'a field'} and {kinds} kinds")

    @classmethod
    def zero(cls) -> "Perturbation":
        return cls()

    @property
    def is_zero(self) -> bool:  # the zero kind is the only kind without a carrier
        return self.a is None

    @classmethod
    def pointwise(cls, a: SpinorField) -> "Perturbation":
        return cls(a, fiber_pairing=True)

    @classmethod
    def rank_one(cls, a: SpinorField) -> "Perturbation":
        return cls(a, l2_pairing=True)

    @classmethod
    def matrix_field(cls, carrier: SpinorField, matrix: np.ndarray) -> "Perturbation":
        return cls(carrier, matrix=np.asarray(matrix, dtype=complex))


def eval_perturbation(P: Perturbation, u: SpinorField) -> SpinorField:
    if P.a is not None:
        same_grid(P.a.grid, u.grid)
    if P.l2_pairing:
        return SpinorField(u.grid, l2_inner(u, P.a) * P.a.values)
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

    Each coefficient (B + C, M, the carrier) is read at the stage offsets 0,
    1/2 and 1 of a step, the midpoint by the 4-point rule, so every kind
    marches at order 4.  Rank-one solves its stated equation by u = u_h +
    S w, S = <u_h, a> / (1 - <w, a>): u_h marched from u0 unperturbed, w from
    0 forced by -cl(dt)^-1 a.  An overflow raises FlowInstabilityError."""
    grid: Grid1D = op.grid
    if not isinstance(grid, Grid1D):
        raise DomainMismatchError("initial-value integration is 1D only")
    if P.a is not None:
        same_grid(P.a.grid, grid)
    rank = op.cl_dt.shape[-1]
    if np.shape(u0) != (rank,):
        raise DomainMismatchError(f"slice data of shape {np.shape(u0)}, expected ({rank},)")
    generator = op.B if op.generator is None else op.generator  # B + C; B = C = 0 for None
    march = _pointwise_march if P.fiber_pairing else _linear_march
    values = march(generator, -op.cl_dt, P, np.asarray(u0, dtype=complex), grid.spacing)
    if not np.isfinite(values).all():
        raise FlowInstabilityError(f"zero-data march overflows on [0, {grid.t[-1]:.4g}]")
    return SpinorField(grid, values)


@np.errstate(over="ignore", invalid="ignore")  # the caller raises on an overflow
def _linear_march(generator, cl_inv, P: Perturbation, u0, h: float) -> np.ndarray:
    """u' = A u, A = -(B + C) less cl(dt)^-1 M for the matrix kind.  Rank-one
    marches the state (u, I, c) with I' = <u, a>, c' = 0 and c forcing u by
    -cl(dt)^-1 a, from the columns (u0, 0, 0) and (0, 0, 1): u_h, w and their
    pairings from one build.  Where 1 - <w, a> vanishes, zero data has the
    nonzero solution S w (the rank-one counterexample): PreconditionError."""
    A = -(generator if P.matrix is None else generator + cl_inv @ P.matrix)
    if not P.l2_pairing:
        return _march(A, u0, h)
    a, r = P.a.values, len(u0)
    aug = np.zeros((len(a), r + 2, r + 2), dtype=complex)
    aug[:, :r, :r], aug[:, r, :r], aug[:, :r, r + 1] = A, np.conj(a), -a @ cl_inv.T
    start = np.zeros((r + 2, 2), dtype=complex)
    start[:r, 0], start[r + 1, 1] = u0, 1.0
    x = _march(aug, start, h)
    pair_h, pair_w = x[-1, r]
    if abs(1.0 - pair_w) < DEGENERATE_PAIRING:
        raise PreconditionError(f"rank-one march degenerate: |1 - <w, a>| = "
                                f"{abs(1.0 - pair_w):.3e}; zero data has a nonzero solution")
    return x[:, :r, 0] + (pair_h / (1.0 - pair_w)) * x[:, :r, 1]


def _march(A: np.ndarray, x0: np.ndarray, h: float) -> np.ndarray:
    """RK4 march of x' = A(t) x from x0: the step matrices of all steps at
    once, by the stage recursion on the identity, then one product a step."""
    stage = _stages(A)
    k2 = stage[0.5] + (0.5 * h) * (stage[0.5] @ stage[0.0])
    k3 = stage[0.5] + (0.5 * h) * (stage[0.5] @ k2)
    k4 = stage[1.0] + h * (stage[1.0] @ k3)
    steps = np.eye(A.shape[-1]) + (h / 6.0) * (stage[0.0] + 2 * k2 + 2 * k3 + k4)
    x = np.empty((len(A),) + x0.shape, dtype=complex)
    x[0] = x0
    for i, step in enumerate(steps):
        np.matmul(step, x[i], out=x[i + 1])
    return x


def _pointwise_march(generator, cl_inv, P: Perturbation, u0, h: float) -> np.ndarray:
    """RK4 stages on Python complex scalars, no numpy call in a step."""
    gen = [(-g).tolist() for g in _stages(generator).values()]  # stage values as lists
    car = [np.conj(c).tolist() for c in _stages(P.a.values).values()]  # z pairs conj(a)
    cl, components = cl_inv.tolist(), range(len(u0))

    def dot(x, y):
        acc = 0j
        for j in components:
            acc += x[j] * y[j]
        return acc

    def rhs(g, c, z):  # -(generator) z - cl(dt)^-1 <z, a> z
        p = dot(z, c)
        pz = [p * x for x in z]
        return [dot(row, z) - dot(row_cl, pz) for row, row_cl in zip(g, cl)]

    y = u0.tolist()
    out = [y]
    for g0, gm, g1, c0, cm, c1 in zip(*gen, *car):
        k1 = rhs(g0, c0, y)
        k2 = rhs(gm, cm, [a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = rhs(gm, cm, [a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = rhs(g1, c1, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        out.append(y)
    return np.array(out)


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
