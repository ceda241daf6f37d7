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


def fiber_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise Hermitian product over the trailing fiber axis (linear in x)."""
    return np.einsum("...i,...i->...", x, np.conj(y))
