"""The package's Clifford convention, stated once: the Pauli matrices SIGMA,
the real rotation J and the skew-Hermitian generators built from them.

Convention: cl(e_j)^2 = -I and <g s, s'> = -<s, g s'> for the Hermitian
fiber product.  Fiber inner products throughout the package are linear in
the first slot, conjugated in the second.  No other module writes these
matrices out; an operator's fiber rank is that of its cl(dt).
"""
from __future__ import annotations

from functools import reduce

import numpy as np

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# dim 1 uses the real rotation J; dims 2 and 3 use i*sigma_j.
J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)

# read-only: operators store J itself as their cl(dt)
SIGMA.setflags(write=False)
J.setflags(write=False)


def frame(dimension: int) -> np.ndarray:
    """Shipped generators cl(e_j) for dimension 1, 2 or 3: a (dimension, 2, 2)
    array."""
    if dimension == 1:
        return J[None].copy()
    if dimension in (2, 3):
        return 1j * SIGMA[:dimension]
    raise ValueError(f"no shipped frame for dimension {dimension}")


def fiber_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise Hermitian product over the trailing fiber axis (linear in x)."""
    return np.einsum("...i,...i->...", x, np.conj(y))


def fiber_inner_real(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re fiber_inner(x, y) bit for bit, from (re, im) pairs: no conjugated copy."""
    p = (np.ascontiguousarray(x, dtype=complex).view(float)
         * np.ascontiguousarray(y, dtype=complex).view(float))
    return reduce(np.add, (p[..., j] + p[..., j + 1] for j in range(0, p.shape[-1], 2)), 0.0)
