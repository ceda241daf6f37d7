"""Dirac-type operators in product form cl(dt)(d/dt + B_t + C_t).

B_t is the self-adjoint tangential part, C_t the skew part.  Both are stored
as pointwise fiber fields, (n, r, r) on Grid1D and (n_t, n_theta, r, r) on
AnnulusGrid; one that is identically zero is never multiplied.  D u and the
march read one stored generator B + C, and a constant (r, r) cl(dt) (every
Grid1D operator) is one matmul.  An annulus operator may also carry an
angular coefficient a(t): B_t then gains the circle term
a(t) D_theta (x) i sigma_3, with D_theta the periodic centered difference
applied as a stencil along theta.
Slice inner products use the (uniform) arc-length weights, so the slice
adjoint is the plain conjugate transpose and the circle term is Hermitian.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .clifford import J, SIGMA, frame
from .errors import DomainMismatchError
from .fields import AnnulusGrid, Grid1D, SpinorField, same_grid


_END_ROWS = np.array([0, -1, 1, -2, 2, -3])     # v0, v_-1, v1, v_-2, v2, v_-3
_END_COEFFS = np.array([-3.0, 3.0, 4.0, 4.0])[:, None]    # of the first four


def time_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """2nd-order d/dt along axis 0: centered interior, one-sided at the ends.
    The end rows (-3 v0 + 4 v1) - v2 and (3 v_-1 - 4 v_-2) + v_-3 are one
    stack with the row-by-row form's operations (x + y as x - (-y)), so their
    bits, signed zeros included, are that form's."""
    scale = 1.0 / (2.0 * h)
    out = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    out[1:-1] *= scale
    ends = values.take(_END_ROWS, axis=0)
    ends.reshape(6, -1)[:4] *= _END_COEFFS
    np.negative(ends[2::3], out=ends[2::3])     # -(4 v1) and -v_-3
    out[::len(values) - 1] = (ends[:2] - ends[2:4] - ends[4:]) * scale
    return out


def _fiber_apply(M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise fiber matrices M (..., r, r) applied to values w (..., r)."""
    return np.einsum("...ij,...j->...i", M, w)


@dataclass(eq=False)
class DiracOperator:
    grid: object
    cl_dt: np.ndarray          # (r, r) on Grid1D, (n_t, n_theta, r, r) on AnnulusGrid
    B: np.ndarray              # (n, r, r) or (n_t, n_theta, r, r), self-adjoint points
    C: np.ndarray              # same shape as B, skew points
    angular: Optional[np.ndarray] = None  # (n_t,) a(t) of the circle term, annulus only

    @cached_property
    def nonzero_parts(self) -> tuple:
        """(B, C), None for a part that is identically zero: found on first use,
        as the stored parts never change, so a zero part is never multiplied."""
        return tuple(M if M.any() else None for M in (self.B, self.C))

    @cached_property
    def generator(self) -> Optional[np.ndarray]:
        """B + C, formed on first use; None when both parts are zero."""
        return self.B + self.C if any(M is not None for M in self.nonzero_parts) else None

    def _circle(self, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        """a(t) D_theta (x) i sigma_3 applied to annulus values w (..., n_t, n_theta, 2)."""
        h = 2.0 * np.pi / self.grid.n_theta
        out = np.empty(w.shape, dtype=complex)
        # w[o+1] - w[o-1] on the flat values (2 per point), then the wrap-around
        flat, w_flat = out.reshape(-1), w.reshape(-1)
        np.subtract(w_flat[4:], w_flat[:-4], out=flat[2:-2])
        np.subtract(w[..., 1, :], w[..., -1, :], out=out[..., 0, :])
        np.subtract(w[..., 0, :], w[..., -2, :], out=out[..., -1, :])
        out *= 1j * (1.0 / (2.0 * h))
        rows = out.reshape(out.shape[:-2] + (-1,))
        rows *= a[:, None]
        np.negative(out[..., 1], out=out[..., 1])  # i sigma_3 = diag(i, -i)
        return out

    def _tangential(self, M, a, w: np.ndarray):
        """M w + a(t) D_theta (x) i sigma_3 w, leaving out a part that is None."""
        if a is None:
            return np.zeros_like(w) if M is None else _fiber_apply(M, w)
        out = self._circle(a, w)
        if M is not None:
            out += _fiber_apply(M, w)
        return out

    def apply_B(self, w: np.ndarray) -> np.ndarray:
        return self._tangential(self.nonzero_parts[0], self.angular, w)

    def apply_C(self, w: np.ndarray) -> np.ndarray:
        return self._tangential(self.nonzero_parts[1], None, w)

    @cached_property
    def _B_prime(self) -> tuple:
        """dB/dt and da/dt by the time_derivative stencil (None for a zero B or
        no a), formed on first use: the stored B and a(t) never change."""
        h = self.grid.spacing
        return tuple(None if c is None else time_derivative(c, h)
                     for c in (self.nonzero_parts[0], self.angular))

    def apply_B_prime(self, w: np.ndarray) -> np.ndarray:
        """dB/dt on both parts of B."""
        return self._tangential(*self._B_prime, w)

    def apply_cl_dt(self, w: np.ndarray) -> np.ndarray:
        """Pointwise Clifford multiplication by cl(dt); a constant (r, r) one is a matmul."""
        return w @ self.cl_dt.T if self.cl_dt.ndim == 2 else _fiber_apply(self.cl_dt, w)


def slice_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint of per-slice matrices under the uniform slice weights."""
    return np.conj(np.swapaxes(M, -1, -2))


def dirac_apply(op: DiracOperator, u: SpinorField) -> SpinorField:
    """cl(dt)(d/dt + B_t + C_t) u with the 2nd-order time stencil."""
    same_grid(op.grid, u.grid)
    w = time_derivative(u.values, op.grid.spacing)
    if op.generator is not None or op.angular is not None:
        w += op._tangential(op.generator, op.angular, u.values)
    return SpinorField(u.grid, op.apply_cl_dt(w))


def absorb_homomorphism(op: DiracOperator, R: np.ndarray) -> DiracOperator:
    """Product form of (D + R) for a pointwise fiber homomorphism R.

    R has shape (n, r, r) on Grid1D or (n_t, n_theta, r, r) on AnnulusGrid.
    """
    R = np.asarray(R, dtype=complex)
    if R.shape != op.B.shape:
        raise DomainMismatchError(f"homomorphism shape {R.shape} mismatch")
    S = np.einsum("...ji,...jk->...ik", np.conj(op.cl_dt), R)
    adj = slice_adjoint(S)
    return DiracOperator(op.grid, op.cl_dt, op.B + 0.5 * (S + adj),
                         op.C + 0.5 * (S - adj), op.angular)


# ---------------------------------------------------------------------------
# shipped model operators


def model_operator_1d(grid: Grid1D) -> DiracOperator:
    """1D model operator J(d/dt + B_t + C_t) with smooth slice coefficients
    B_t = 0.6 cos(2 pi t/T) sigma_3 + 0.4 sigma_1, C_t = 0.5 sin(2 pi t/T) J,
    whose operator norms stay <= 1."""
    phase = 2.0 * np.pi * grid.t / float(grid.t[-1] - grid.t[0])
    B = 0.6 * np.cos(phase)[:, None, None] * SIGMA[2] + 0.4 * SIGMA[0]
    C = 0.5 * np.sin(phase)[:, None, None] * J
    return DiracOperator(grid, J, B, C)


def constant_operator_1d(grid: Grid1D) -> DiracOperator:
    """Constant-coefficient 1D operator with C = 0 (appendix reference case)."""
    B = np.tile(np.array([[0.7, 0.2], [0.2, -0.5]], dtype=complex), (grid.n, 1, 1))
    return DiracOperator(grid, J, B, np.zeros_like(B))


def annulus_operator(grid: AnnulusGrid) -> DiracOperator:
    """Euclidean Dirac operator on the annulus in product form.

    In polar coordinates D = cl(dr)(d/dr + B_r) with the tangential part
    obtained by splitting cl(dr)^{-1} D restricted to circles; for the flat
    metric this is the Hermitian circle term (1/r) D_theta (x) i sigma_3,
    with no pointwise part.
    """
    g1, g2 = frame(2)
    theta = grid.theta
    cl_dr = (np.cos(theta)[:, None, None] * g1 + np.sin(theta)[:, None, None] * g2)
    # stored at full shape: a contiguous operand keeps the fiber einsum fast
    cl_dr = np.broadcast_to(cl_dr, (grid.n,) + cl_dr.shape).copy()
    B, C = (np.zeros(grid.shape + (2, 2), dtype=complex) for _ in range(2))
    return DiracOperator(grid, cl_dr, B, C, angular=1.0 / grid.radii())
