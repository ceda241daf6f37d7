"""Grids and sampled spinor fields for the 1D interval and 2D annulus models.

A grid is a field carrier: it declares shape, the value shape of a field
without its fiber axis, and quad_weights(), quadrature weights that
broadcast against shape.  TorusLattice is a carrier too."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clifford import fiber_inner, fiber_inner_real
from .errors import DomainMismatchError


def fiber_norm2(x: np.ndarray) -> np.ndarray:
    """Pointwise |x|^2 over the trailing fiber axis."""
    return fiber_inner_real(x, x)


def trapezoid_weights(t: np.ndarray) -> np.ndarray:
    h = t[1] - t[0]
    w = np.full(t.shape, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True, eq=False)
class _SliceGrid:
    """Uniform normal coordinate t; a field on the grid has values of shape
    shape + (fiber rank,)."""

    t: np.ndarray

    def __post_init__(self):
        t = self.t
        if t.ndim != 1 or t.size < 3:
            raise ValueError("grid needs a 1-D t of at least 3 samples")
        steps = np.diff(t)
        if not (steps[0] > 0 and np.all(np.abs(steps - steps[0]) <= 1e-9 * steps[0])):
            raise ValueError("grid t must be increasing and uniform")

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def spacing(self) -> float:
        return float(self.t[1] - self.t[0])

    def zeros(self) -> "SpinorField":
        return SpinorField(self, np.zeros(self.shape + (2,), dtype=complex))

    def quad_weights(self) -> np.ndarray:
        """Quadrature weights, formed on first use; read-only, as callers share them."""
        if "_w" not in self.__dict__:
            object.__setattr__(self, "_w", self._weights())
            self._w.setflags(write=False)
        return self._w


@dataclass(frozen=True, eq=False)
class Grid1D(_SliceGrid):
    """Uniform grid on [t[0], t[-1]]; slices are single points."""

    def __eq__(self, other):
        return isinstance(other, Grid1D) and np.array_equal(self.t, other.t)

    @classmethod
    def uniform(cls, t_max: float, n: int) -> "Grid1D":
        return cls(np.linspace(0.0, t_max, n))

    @property
    def shape(self) -> tuple:
        return (self.n,)

    def _weights(self) -> np.ndarray:
        return trapezoid_weights(self.t)


@dataclass(frozen=True, eq=False)
class AnnulusGrid(_SliceGrid):
    """Polar annulus: normal coordinate t in [0, T], circles of radius r0 + t."""

    n_theta: int
    r0: float

    def __post_init__(self):
        super().__post_init__()
        if self.n_theta < 1:
            raise ValueError("annulus needs n_theta >= 1")
        if self.r0 <= 0:
            raise ValueError("inner radius must be positive")

    def __eq__(self, other):
        return (isinstance(other, AnnulusGrid) and self.n_theta == other.n_theta
                and self.r0 == other.r0 and np.array_equal(self.t, other.t))

    @classmethod
    def uniform(cls, t_max: float, n_t: int, n_theta: int) -> "AnnulusGrid":
        """Uniform annulus with inner radius 1."""
        return cls(np.linspace(0.0, t_max, n_t), n_theta, 1.0)

    @property
    def shape(self) -> tuple:
        return (self.n, self.n_theta)

    @property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_theta) * (2.0 * np.pi / self.n_theta)

    def radii(self) -> np.ndarray:
        return self.r0 + self.t

    def _weights(self) -> np.ndarray:
        wt = trapezoid_weights(self.t)
        return wt[:, None] * (self.radii()[:, None] * (2.0 * np.pi / self.n_theta))


@dataclass(eq=False)
class SpinorField:
    """Complex multi-component field sampled on a carrier (fiber axis last)."""

    grid: object
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[:-1] != self.grid.shape:
            raise DomainMismatchError(f"value array shape {self.values.shape} does "
                                      f"not match grid shape {self.grid.shape}")

    def fiber_abs(self) -> np.ndarray:
        return np.sqrt(fiber_norm2(self.values))

    def sup_norm(self) -> float:
        return float(np.sqrt(np.max(fiber_norm2(self.values), initial=0.0)))

    def __add__(self, other: "SpinorField") -> "SpinorField":
        same_grid(self.grid, other.grid)
        return SpinorField(self.grid, self.values + other.values)

    def __mul__(self, c) -> "SpinorField":
        return SpinorField(self.grid, self.values * c)

    __rmul__ = __mul__


def same_grid(a, b) -> None:
    """Raise DomainMismatchError unless carriers a and b are the same grid;
    identity is tested first, so a shared carrier skips the comparison."""
    if a is not b and a != b:
        raise DomainMismatchError("field lives on a different grid")


def l2_inner(u: SpinorField, v: SpinorField) -> complex:
    """Domain L2 product, linear in u, conjugated in v."""
    same_grid(u.grid, v.grid)
    w = u.grid.quad_weights()
    return complex(np.sum(w * fiber_inner(u.values, v.values)))
