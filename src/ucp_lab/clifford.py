"""Clifford frames: skew-Hermitian generators acting on a rank-2 spinor fiber.

Convention: cl(e_j)^2 = -I and <g s, s'> = -<s, g s'> for the Hermitian
fiber product.  Fiber inner products throughout the package are linear in
the first slot, conjugated in the second.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# dim 1 uses the real rotation J; dims 2 and 3 use i*sigma_j.
_J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class CliffordFrame:
    dimension: int
    generators: tuple

    @property
    def fiber_rank(self) -> int:
        return self.generators[0].shape[0]

    def generator(self, j: int) -> np.ndarray:
        if not 0 <= j < self.dimension:
            raise IndexError(f"generator index {j} out of range for dimension {self.dimension}")
        return self.generators[j]


def frame(dimension: int) -> CliffordFrame:
    """Shipped frame for dimension 1, 2 or 3 (fiber rank 2)."""
    if dimension == 1:
        gens = (_J.copy(),)
    elif dimension in (2, 3):
        gens = tuple(1j * _SIGMA[j] for j in range(dimension))
    else:
        raise ValueError(f"no shipped frame for dimension {dimension}")
    return CliffordFrame(dimension, gens)


def cl_apply(fr: CliffordFrame, j: int, s: np.ndarray) -> np.ndarray:
    """Apply the j-th generator to a fiber vector (or batch, fiber axis last)."""
    g = fr.generator(j)
    s = np.asarray(s, dtype=complex)
    if s.shape[-1] != fr.fiber_rank:
        raise ValueError(f"fiber vector has length {s.shape[-1]}, expected {fr.fiber_rank}")
    return s @ g.T


def cl_form(fr: CliffordFrame, coeffs) -> np.ndarray:
    """Clifford multiplication by a covector with the given (complex) coefficients.

    coeffs may be scalars (returns a fiber matrix) or fields with leading
    component axis (returns pointwise fiber matrices, shape coeffs.shape[1:] + (r, r)).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[0] != fr.dimension:
        raise ValueError("one coefficient per generator required")
    gens = np.stack(fr.generators)
    return np.tensordot(np.moveaxis(coeffs, 0, -1), gens, axes=([-1], [0]))


def fiber_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise Hermitian product over the trailing fiber axis (linear in x)."""
    return np.einsum("...i,...i->...", x, np.conj(y))
