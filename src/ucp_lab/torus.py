"""Spectral monopole laboratory on the flat 3-torus [0, 2pi)^3.

Storage conventions (see CONVENTIONS.md):
  * imaginary-valued 1-forms and scalars are stored as their real
    imaginary parts: the connection offset is a = i * alpha with alpha a
    real (3, n, n, n) array;
  * spinors are complex (2, n, n, n) arrays, inner products are linear in
    the first slot and conjugated in the second;
  * the spinor covariant derivative carries the half charge forced by the
    determinant-line gauge action (A, psi) -> (A - 2 u^{-1}du, u psi):
        d_A psi = sum_j cl(e_j)(d_j + alpha_j i/2) psi,
    and the eta dressing uses exp(-G d*(A - A_0)/2) for the same reason;
  * grad_csd is the exact gradient of csd for the discrete real L2 metric
    Re<.,.>; relative to the conventional printed form the spinor block
    carries a factor 2 and the perturbation couplings enter with the sign
    induced by adding the perturbation to the functional.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .clifford import SIGMA
from .errors import DomainMismatchError, FlowInstabilityError
from .fields import SpinorField
from .perturbations import Perturbation

_GEN = 1j * SIGMA  # (3, 2, 2), g_j = cl(e_j) = i sigma_j
_GEN_ENTRIES = [(j, a, b, _GEN[j, a, b]) for j, a, b in np.argwhere(_GEN)]  # the 6 nonzero
_GEN_ROWS = _GEN.transpose(1, 0, 2).reshape(2, 6)  # row a holds g_j[a, b] over (j, b)

M_TANH = 1.6  # sup |tanh| on the unit strip around the real axis (Cauchy bound)

# Smallest admissible |1 - dt^2|k|^2| and |1 - 4 dt^2|k|^2| in the
# semi-implicit step; nearer resonance a mode is amplified by ~1/margin.
RESONANCE_MARGIN = 1e-6


def _float_view(f):
    """A complex field's (re, im) float view, or a real field as floats."""
    return (np.ascontiguousarray(f, dtype=complex).view(float) if np.iscomplexobj(f)
            else np.asarray(f, dtype=float))


def _curl_of(d):
    """curl f from the partials d[j] = d_j f of a 3-component field f."""
    out = np.empty(d.shape[1:], d.dtype)
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(d[j, k], d[k, j], out=out[i])
    return out


class TorusLattice:
    """Fourier lattice with modes |k_j| <= N on the 2pi-periodic grid (n = 2N+1).

    Derivatives are real matmuls with the spectral derivative matrix D along
    each axis; every other Fourier operator is a multiplier of |k|^2, applied
    by multiply in the real orthonormal basis V of each axis.  x, D, V, k2 and
    green are built on first use, so a loaded lattice never pays for them.  As
    a field carrier it has shape (n, n, n) and the volume element as weight."""

    def __init__(self, N: int):
        if not float(N).is_integer() or N < 1:  # int() would truncate 2.7 to 2
            raise ValueError(f"need an integer N >= 1, got {N!r}")
        self.N = int(N)
        self.n = 2 * self.N + 1
        self.shape = (self.n,) * 3
        self.volume_element = (2.0 * np.pi / self.n) ** 3
        self.volume = (2.0 * np.pi) ** 3

    def quad_weights(self) -> np.ndarray:
        return np.full(self.shape, self.volume_element)

    @functools.cached_property
    def x(self):
        x1 = np.arange(self.n) * (2.0 * np.pi / self.n)
        return np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))

    @functools.cached_property
    def D(self):
        """Spectral derivative on one axis, D[j, l] = c_{j-l mod n}, c_0 = 0 and
        c_m = (-1)^m / (2 sin(pi m / n)) = -c_{n-m}, so that D = -D.T bit for bit."""
        m, j = np.arange(1, self.N + 1), np.arange(self.n)
        c = np.zeros(self.n)
        c[1:self.N + 1] = (-1.0) ** m / (2.0 * np.sin(np.pi * m / self.n))
        c[self.N + 1:] = -c[self.N:0:-1]
        return c[(j[:, None] - j) % self.n]

    @functools.cached_property
    def V(self):
        """Orthonormal basis of one axis, the eigenvectors of D^2: 1/sqrt(n), then
        sqrt(2/n) cos(m x) and sqrt(2/n) sin(m x) in columns 2m - 1 and 2m."""
        j, m = np.arange(self.n), np.arange(1, self.N + 1)
        mx = (2.0 * np.pi / self.n) * (np.outer(j, m) % self.n)
        V = np.full((self.n, self.n), math.sqrt(1.0 / self.n))
        V[:, 1::2], V[:, 2::2] = np.cos(mx), np.sin(mx)
        V[:, 1:] *= math.sqrt(2.0 / self.n)
        return V

    @functools.cached_property
    def k2(self):
        """|k|^2 of each product basis function: column c of V has |k| = (c + 1) // 2."""
        m2 = ((np.arange(self.n) + 1) // 2).astype(float) ** 2
        return m2[:, None, None] + m2[:, None] + m2

    @functools.cached_property
    def green(self):
        """The inverse Laplacian's multiplier G = 1/|k|^2, 0 on the constants."""
        return np.divide(1.0, self.k2, out=np.zeros(self.shape), where=self.k2 > 0)

    @functools.cached_property
    def _last_complex(self):
        """kron(D.T, I_2) and kron(V, I_2): D and V along the last axis of a
        complex field's float view."""
        return np.kron(self.D.T, np.eye(2)), np.kron(self.V, np.eye(2))

    def _along_axes(self, g, left, right):
        """left along lattice axes -3 and -2 of the float array g, right along its last."""
        outer = g.shape[:-3] + (self.n, -1)
        g = left @ (left @ g.reshape(outer)).reshape(g.shape)
        return (g.reshape(-1, g.shape[-1]) @ right).reshape(g.shape)

    def multiply(self, f, m):
        """The multiplier m, an (n, n, n) array on k2, applied to a real or complex
        (..., n, n, n) field: V.T along each lattice axis, the product with m on
        the basis coefficients, V back, as real matmuls on its float view."""
        cplx = np.iscomplexobj(f)
        V, last = self.V, self._last_complex[1] if cplx else self.V
        h = self._along_axes(_float_view(f), V.T, last)
        h.reshape(h.shape[:-1] + (self.n, -1))[...] *= m[..., None]  # (re, im) pairs last
        out = self._along_axes(h, V, last.T)
        return out.view(complex) if cplx else out

    def partials(self, f):
        """(d_0 f, d_1 f, d_2 f) of a real or complex (..., n, n, n) field as one
        (3, ..., n, n, n) array, one real matmul with D per lattice axis on the
        field or its (re, im) float view."""
        cplx = np.iscomplexobj(f)
        g = _float_view(f)
        D, out = self.D, np.empty((3,) + g.shape)
        outer = g.shape[:-3] + (self.n, -1)
        np.matmul(D, g.reshape(outer), out=out[0].reshape(outer))
        np.matmul(D, g, out=out[1])
        rows = (-1, g.shape[-1])
        np.matmul(g.reshape(rows), self._last_complex[0] if cplx else D.T, out=out[2].reshape(rows))
        return out.view(complex) if cplx else out

    def divergence(self, vec):
        return self.partials(vec).trace()

    def curl(self, vec):
        return _curl_of(self.partials(vec))

    def __eq__(self, other):
        return isinstance(other, TorusLattice) and other.N == self.N


@dataclass(eq=False)
class SWConfiguration:
    """Connection offset (imaginary part alpha, real) and spinor on the lattice."""

    lattice: TorusLattice
    alpha: np.ndarray           # real (3, n, n, n)
    psi: np.ndarray             # complex (2, n, n, n)

    def __post_init__(self):
        n = self.lattice.n
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.alpha.shape != (3, n, n, n) or self.psi.shape != (2, n, n, n):
            raise DomainMismatchError("field shapes do not match the lattice")

    @classmethod
    def zero(cls, lattice: TorusLattice) -> "SWConfiguration":
        n = lattice.n
        return cls(lattice, np.zeros((3, n, n, n)), np.zeros((2, n, n, n), dtype=complex))

    def shifted(self, tangent: "Tangent", scale: float) -> "SWConfiguration":
        return SWConfiguration(self.lattice,
                               self.alpha + scale * tangent.alpha,
                               self.psi + scale * tangent.phi)

    def sup_psi_sq(self) -> float:
        return float(np.max(np.sum(np.abs(self.psi) ** 2, axis=0)))


@dataclass(eq=False)
class Tangent:
    alpha: np.ndarray           # real (3, n, n, n): imaginary part of the 1-form
    phi: np.ndarray             # complex (2, n, n, n)


def tangent_inner(x: Tangent, y: Tangent, lattice: TorusLattice) -> float:
    """Real L2 pairing on tangents."""
    a = float(np.sum(x.alpha * y.alpha))
    s = float(np.sum(x.phi * np.conj(y.phi)).real)
    return (a + s) * lattice.volume_element


# ---------------------------------------------------------------------------
# smooth perturbation-function families


def _tanh_sup(k: int, lo: float, hi: float) -> float:
    if k >= 4:  # Cauchy estimate on the unit strip
        return math.factorial(k) * M_TANH
    t = np.tanh(np.linspace(lo, hi, 257))
    s = 1.0 - t ** 2
    return float(np.max(np.abs((s, -2.0 * t * s, s * (6.0 * t ** 2 - 2.0))[k - 1])))


# per kind: the profile f of the terms c f(w x + b), its derivative f', and
# sup |f^(k)| over [lo, hi] for k >= 1
_TERM_KINDS = {
    "sin": (np.sin, np.cos, lambda k, lo, hi: 1.0),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2, _tanh_sup),
}


@dataclass
class SeparableFunction:
    """Finite sum of single-slot terms c sin(w x + b) and c tanh(w x + b),
    evaluated term by term."""

    dim: int
    terms: List[tuple]          # (kind, slot, c, w, b), kept as given

    def __post_init__(self):
        unknown = {t[0] for t in self.terms} - _TERM_KINDS.keys()
        if unknown:
            raise ValueError(f"unknown term kinds {sorted(unknown)!r}")

    def value(self, x: np.ndarray) -> float:
        return float(sum(c * _TERM_KINDS[kind][0](w * x[slot] + b)
                         for kind, slot, c, w, b in self.terms))

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(self.dim)
        for kind, slot, c, w, b in self.terms:
            g[slot] += c * w * _TERM_KINDS[kind][1](w * x[slot] + b)
        return g

    def deriv_sup(self, k: int) -> float:
        """Sup of the k-th derivative tensor over the box [-3, 3]^dim
        (max-entry norm; the tensor is slot-diagonal for separable sums).
        k = 0: with each slot's profile g_s on 257 points of [-3, 3], the
        sup of |sum_s g_s| over their product grid, max(sum_s max g_s,
        -sum_s min g_s).  k >= 1: the largest slot sum of |c| |w|^k sup|f^(k)|
        over the slot's terms."""
        lo, hi = -3.0, 3.0
        if k == 0:
            xs = np.linspace(lo, hi, 257)
            g = np.zeros((self.dim, xs.size))
            for kind, slot, c, w, b in self.terms:
                g[slot] += c * _TERM_KINDS[kind][0](w * xs + b)
            return float(max(np.sum(g.max(axis=1)), -np.sum(g.min(axis=1))))
        sums = np.zeros(self.dim)
        for kind, slot, c, w, b in self.terms:
            sup = _TERM_KINDS[kind][2](k, w * lo + b, w * hi + b)
            sums[slot] += abs(c) * abs(w) ** k * sup
        return float(np.max(sums)) if self.dim else 0.0


# ---------------------------------------------------------------------------
# perturbation parameter data


@dataclass(eq=False)
class PerturbationParams:
    mus: np.ndarray             # (N_tau, 3, n, n, n) real storage of co-closed forms
    nus: np.ndarray             # (K, 3, n, n, n)
    spinor_basis: np.ndarray    # (L, 2, n, n, n) eigenspinors of the base Dirac operator
    eigenvalues: np.ndarray     # (L,)
    p1: SeparableFunction       # of tau
    p2: SeparableFunction       # of zeta
    p3: SeparableFunction       # of s_l = |eta_l|^2, so invariant under phase rotations
    epsilons: np.ndarray        # Floer weight sequence, index = derivative order
    winding_shift: float        # shift of tau_j under a unit winding

    @property
    def n_tau(self) -> int:
        return self.mus.shape[0]

    @property
    def n_zeta(self) -> int:
        return self.nus.shape[0]

    @property
    def n_eta(self) -> int:
        return self.spinor_basis.shape[0]


def _eigenspinors(lattice: TorusLattice):
    """The first four eigenspinors of the flat Dirac operator, plane waves
    ordered by |k|^2, then k lexicographically: the two constant spinors
    (eigenvalue 0), then the eigh pair of the mode k = (-1, 0, 0)
    (eigenvalues -1 and 1), each phase fixed by its largest entry."""
    k = np.array([-1.0, 0.0, 0.0])
    vals, vecs = np.linalg.eigh(-np.tensordot(k, SIGMA, axes=(0, 0)))
    vecs = np.stack([v * np.exp(-1j * np.angle(v[int(np.argmax(np.abs(v)))]))
                     for v in vecs.T])
    wave = np.exp(1j * np.tensordot(k, lattice.x, axes=(0, 0)))
    inv_sqrt_vol = 1.0 / math.sqrt(lattice.volume)
    basis = np.zeros((4, 2) + lattice.shape, dtype=complex)
    basis[0, 0] = basis[1, 1] = inv_sqrt_vol
    basis[2:] = vecs[:, :, None, None, None] * wave[None, None] * inv_sqrt_vol
    return basis, np.concatenate([[0.0, 0.0], vals])


def default_params(lattice: TorusLattice) -> PerturbationParams:
    """Shipped perturbation data: tanh/trig function families of 5 tau, 3 zeta
    and 4 eta observables, with the translation invariance of p1 enforced by
    2pi-periodic dependence on the first three slots after rescaling by the
    winding shift 2 vol.  The tau forms are co-closed: the harmonic frame
    forms dx_0, dx_1, dx_2, then cos(x_0) dx_2 and cos(x_1) dx_0; the zeta
    forms are dx_0, cos(x_0) dx_1 and sin(x_1) dx_2."""
    n_tau, n_zeta, n_eta = 5, 3, 4
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7])))
    x = lattice.x
    mus = np.zeros((n_tau, 3) + lattice.shape)
    mus[0, 0] = mus[1, 1] = mus[2, 2] = 1.0
    mus[3, 2], mus[4, 0] = np.cos(x[0]), np.cos(x[1])
    nus = np.zeros((n_zeta, 3) + lattice.shape)
    nus[0, 0] = 1.0
    nus[1, 1], nus[2, 2] = np.cos(x[0]), np.sin(x[1])
    basis, lambdas = _eigenspinors(lattice)

    # the winding (1, 0, 0) moves alpha_0 by -2, so tau_0 = -int alpha_0 dv by 2 vol
    shift = 2.0 * lattice.volume
    p1_terms = []
    for slot in range(3):
        c = float(rng.uniform(0.1, 0.25))
        p1_terms.append(("sin", slot, c, 2.0 * np.pi / shift, float(rng.uniform(0, np.pi))))
    for slot in range(3, n_tau):
        p1_terms.append(("tanh", slot, float(rng.uniform(0.1, 0.3)), 0.5, 0.0))
    p1 = SeparableFunction(n_tau, p1_terms)

    p2_terms = [("tanh", slot, float(rng.uniform(0.1, 0.3)), 0.7, float(rng.uniform(-0.2, 0.2)))
                for slot in range(n_zeta)]
    p2 = SeparableFunction(n_zeta, p2_terms)

    p3 = SeparableFunction(n_eta, [("tanh", slot, float(c), 1.0, 0.0)
                                   for slot, c in enumerate(rng.uniform(0.1, 0.3, size=n_eta))])
    epsilons = np.array([4.0 ** (-k) / math.factorial(k) for k in range(7)])  # 4^-k / k!, k <= 6
    return PerturbationParams(mus, nus, basis, lambdas, p1, p2, p3, epsilons, shift)


# ---------------------------------------------------------------------------
# core operators and observables


def _cl(form: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Clifford multiplication cl(i form) psi = sum_j form_j i cl(e_j) psi,
    entry by entry over the nonzero entries of the generators."""
    out = np.zeros(psi.shape, dtype=complex)
    for j, a, b, g in _GEN_ENTRIES:
        out[a] += 1j * g * form[j] * psi[b]
    return out


def _dirac0(lat: TorusLattice, psi: np.ndarray) -> np.ndarray:
    """Flat Dirac operator sum_j cl(e_j) d_j psi: _GEN_ROWS times psi's partials."""
    return (_GEN_ROWS @ lat.partials(psi).reshape(6, -1)).reshape(psi.shape)


def dirac3(config: SWConfiguration) -> np.ndarray:
    """Twisted Dirac operator sum_j cl(e_j)(d_j + alpha_j i/2) psi, i.e.
    sum_j cl(e_j) d_j psi + cl(i alpha) psi / 2."""
    return _dirac0(config.lattice, config.psi) + 0.5 * _cl(config.alpha, config.psi)


def sigma_polarized(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Symmetric polarization: (i/2) Im <cl(e_j)psi, phi> (real storage);
    sigma_polarized(psi, psi) is the quadratic term sigma(psi, psi).  In real
    arithmetic over the nonzero entries g, each real or imaginary, of the
    generators: Im(g q) = Re g Im q + Im g Re q, q = psi_b conj(phi_a)."""
    re, im, phi_re, phi_im = psi.real, psi.imag, phi.real, phi.imag
    sigma = np.zeros((3,) + psi.shape[1:])
    for j, a, b, g in _GEN_ENTRIES:
        sigma[j] += 0.5 * (g.real * (im[b] * phi_re[a] - re[b] * phi_im[a]) if g.real
                           else g.imag * (re[b] * phi_re[a] + im[b] * phi_im[a]))
    return sigma


def _dressing(lat: TorusLattice, div_alpha: np.ndarray) -> np.ndarray:
    """The eta dressing exp(-G d*(A - A_0)/2) = exp(i G(div alpha)/2), a
    unit-modulus scalar: G by one scalar multiply, then its cos and sin
    written into the real and imaginary parts."""
    theta = 0.5 * lat.multiply(div_alpha, lat.green)
    out = np.empty(theta.shape, complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _taus(config: SWConfiguration, mus: np.ndarray) -> np.ndarray:
    # int a wedge *mu_j with both forms imaginary: -(alpha . m_j) integrated
    return -np.tensordot(mus, config.alpha, axes=4) * config.lattice.volume_element


def zeta_pairings(config: SWConfiguration, nus: np.ndarray) -> np.ndarray:
    """Raw complex values of int <cl(nu_j) psi, psi> (real up to rounding)."""
    psi = config.psi
    return np.array([complex(np.sum(_cl(m, psi) * np.conj(psi)))
                     * config.lattice.volume_element for m in nus])


def _zetas(sigma: np.ndarray, nus: np.ndarray, lattice: TorusLattice) -> np.ndarray:
    """zeta_j = Re int <cl(nu_j) psi, psi> = -2 <nu_j, sigma(psi, psi)> dv."""
    return -2.0 * np.tensordot(nus, sigma, axes=4) * lattice.volume_element


def _etas(config: SWConfiguration, params: PerturbationParams,
          dressing: np.ndarray) -> np.ndarray:
    return (np.tensordot(params.spinor_basis, dressing[None] * np.conj(config.psi), axes=4)
            * config.lattice.volume_element)


@dataclass(eq=False)
class Observables:
    tau: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray


def observables(config: SWConfiguration, params: PerturbationParams) -> Observables:
    lat = config.lattice
    sigma = sigma_polarized(config.psi, config.psi)
    return Observables(_taus(config, params.mus), _zetas(sigma, params.nus, lat),
                       _etas(config, params, _dressing(lat, lat.divergence(config.alpha))))


@dataclass(eq=False)
class FloerNormResult:
    value: float
    remainder_bound: float
    per_order: np.ndarray


def floer_norm(params: PerturbationParams) -> FloerNormResult:
    """sum_k eps_k (sup|grad^k p1| + sup|grad^k p2| + sup|grad^k p3|) over
    [-3, 3]^dim, the whole perturbation, truncated at the last order K of the
    epsilon sequence (each sup as deriv_sup gives it).  The remainder bound
    sums M_TANH |c| q^K / (1 - q), q = |w| / 4, over every term c f(w x + b):
    the geometric tail of eps_k |c| |w|^k sup|f^(k)| <= M_TANH |c| q^k for
    eps_k = 4^-k / k!, which needs every |w| below 4."""
    eps, functions = params.epsilons, (params.p1, params.p2, params.p3)
    per_order = np.array([eps[k] * sum(fn.deriv_sup(k) for fn in functions)
                          for k in range(eps.size)])
    remainder = 0.0
    for _, _, c, w, _ in (t for fn in functions for t in fn.terms):
        q = abs(w) / 4.0
        if q >= 1.0:
            raise ValueError("tail bound needs term frequency below 4")
        remainder += M_TANH * abs(c) * q ** eps.size / (1.0 - q)
    return FloerNormResult(float(np.sum(per_order)), float(remainder), per_order)


# ---------------------------------------------------------------------------
# functional, gradient, flow

_CASES = ("unperturbed", "case1", "case2")


@dataclass(eq=False)
class Evaluation:
    value: float                        # csd
    gradient: Optional[Tangent]         # grad_csd; this and residuals are None in csd
    residuals: Optional[Tuple[float, float]]    # L2 norms of the curvature, Dirac rows


def evaluate(config: SWConfiguration, params: Optional[PerturbationParams],
             case: str) -> Evaluation:
    """csd, its exact L2 gradient and the unperturbed residual norms, all in
    physical space.  Curvature row curl alpha - sigma(psi, psi), Dirac row
    D psi, unperturbed gradient (curvature row, 2 D psi), value 1/2 <alpha,
    curl alpha> + Re<psi, D psi>; the perturbed cases add the functions of the
    observables and their couplings."""
    return _evaluate(config, params, case, True)


def _evaluate(config: SWConfiguration, params, case: str, with_gradient: bool) -> Evaluation:
    """evaluate, or without with_gradient its value alone: no Fourier
    multiplier but case2's Green operator G."""
    if case not in _CASES:
        raise ValueError(f"case must be one of {_CASES}")
    if case != "unperturbed" and params is None:
        raise ValueError("perturbed cases need params")
    lat, alpha, psi = config.lattice, config.alpha, config.psi
    dv = lat.volume_element
    d_alpha = lat.partials(alpha)
    curl, d0_psi = _curl_of(d_alpha), _dirac0(lat, psi)
    sigma = sigma_polarized(psi, psi)
    # Re<psi, cl(alpha) psi / 2> = -<alpha, sigma~(psi, psi)>, as in _zetas
    value = float((0.5 * np.vdot(alpha, curl) + np.vdot(d0_psi, psi).real
                   - np.vdot(alpha, sigma)) * dv)

    if case != "unperturbed":
        tau, zeta = _taus(config, params.mus), _zetas(sigma, params.nus, lat)
        value += params.p1.value(tau)
        value += params.p2.value(zeta)
    if case == "case2":
        X = _dressing(lat, d_alpha.trace())
        eta = _etas(config, params, X)
        s = np.abs(eta) ** 2    # p3 is a function of s_l = |eta_l|^2
        value += params.p3.value(s)
    if not with_gradient:
        return Evaluation(value, None, None)
    dp = d0_psi + 0.5 * _cl(alpha, psi)    # dirac3(config)
    ga, gp = curl - sigma, 2.0 * dp
    residuals = (math.sqrt(float(np.vdot(ga, ga)) * dv),
                 math.sqrt(float(np.vdot(dp, dp).real) * dv))
    if case != "unperturbed":
        ga -= np.tensordot(params.p1.grad(tau), params.mus, axes=1)
        gp += 2.0 * _cl(np.tensordot(params.p2.grad(zeta), params.nus, axes=1), psi)
    if case == "case2":
        wirtinger = params.p3.grad(s) * np.conj(eta)    # dp3/deta_l = dp3/ds_l conj(eta_l)
        dressed = X[None] * np.tensordot(wirtinger, params.spinor_basis, axes=1)
        gp += 2.0 * dressed
        W = np.imag(np.sum(dressed * np.conj(psi), axis=0))
        ga += lat.partials(lat.multiply(W, lat.green))

    return Evaluation(value, Tangent(ga, gp), residuals)


def csd(config: SWConfiguration, params: Optional[PerturbationParams], case: str) -> float:
    """Chern-Simons-Dirac value: -1/2 int a ^ (F_A + F_{A_0}) + int <psi, d_A psi>
    plus the selected perturbation functions of the observables (no gradient)."""
    return _evaluate(config, params, case, False).value


def grad_csd(config: SWConfiguration, params: Optional[PerturbationParams],
             case: str) -> Tangent:
    """Exact discrete L2 gradient of csd."""
    return evaluate(config, params, case).gradient


@dataclass
class FlowRecord:
    step: int
    time: float
    csd: float
    residual_curvature: float
    residual_dirac: float
    sup_psi: float


@dataclass(eq=False)
class FlowResult:
    config: SWConfiguration
    trajectory: List[FlowRecord]
    converged: bool


def run_flow(config: SWConfiguration, params: Optional[PerturbationParams],
             case: str, dt: float, steps: int, scheme: str,
             residual_target: Optional[float] = None) -> FlowResult:
    """At most steps steps of the downward flow d/dt (A, psi) = -grad csd, one
    record per configuration; a non-finite record raises FlowInstabilityError.
    Each configuration is evaluated once, for its record and the next step.

    'explicit' raises FlowInstabilityError if a step raises csd by more than
    1e-10 (1 + |csd|).  'semi-implicit' treats L = (curl, 2 D_0) implicitly,
    x_new = x - dt (I + dt L)^-1 grad csd(x), by the closed-form resolvents
        (I + 2 dt D_0)^-1 = (I - 2 dt D_0) / (1 - 4 dt^2 |k|^2),
        (I + dt curl)^-1 = (I - dt curl + dt^2 grad div) / (1 - dt^2 |k|^2),
    numerators by partials, each denominator by one multiply with its
    reciprocal, formed once per run.  Its fixed points are exactly the
    critical points.  A dt within RESONANCE_MARGIN of a pole, or whose
    4 dt^2 |k|^2 overflows (FlowInstabilityError), a non-positive dt and an
    unknown scheme (ValueError) are refused before the first record."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if scheme not in ("explicit", "semi-implicit"):
        raise ValueError("scheme must be 'explicit' or 'semi-implicit'")
    lat = config.lattice
    if scheme == "semi-implicit":
        if math.isinf(4.0 * dt * dt * 3 * lat.N ** 2):  # at the largest |k|^2 = 3 N^2
            raise FlowInstabilityError(f"semi-implicit step dt={dt!r} overflows the "
                                       f"denominator 1 - 4 dt^2 |k|^2")
        den_a, den_p = 1.0 - dt ** 2 * lat.k2, 1.0 - 4.0 * dt ** 2 * lat.k2
        for den in (den_a, den_p):
            i = int(np.argmin(np.abs(den)))
            if abs(den.flat[i]) < RESONANCE_MARGIN:
                raise FlowInstabilityError(
                    f"semi-implicit step dt={dt!r} is resonant at |k| = "
                    f"{math.sqrt(lat.k2.flat[i]):.6g}: denominator {den.flat[i]:.3e} "
                    f"is below the margin {RESONANCE_MARGIN:g}")
        inv_a, inv_p = 1.0 / den_a, 1.0 / den_p

    current, ev, records, i = config, evaluate(config, params, case), [], 0
    while True:
        value, (r1, r2) = ev.value, ev.residuals
        if not all(map(math.isfinite, (value, r1, r2))):
            raise FlowInstabilityError(
                f"flow diverged by step {i}: csd {value}, residuals {r1}, {r2}")
        records.append(FlowRecord(i, i * dt, value, r1, r2, math.sqrt(current.sup_psi_sq())))
        converged = residual_target is not None and max(r1, r2) < residual_target
        if converged or i >= steps:
            return FlowResult(current, records, converged)
        g, i = ev.gradient, i + 1
        if scheme == "explicit":
            current = SWConfiguration(lat, current.alpha - dt * g.alpha, current.psi - dt * g.phi)
            ev = evaluate(current, params, case)
            if ev.value > value + 1e-10 * (1.0 + abs(value)):
                raise FlowInstabilityError(
                    f"functional increased by {ev.value - value:.3e} in an explicit step")
        else:
            d = lat.partials(g.alpha)
            curl_step = g.alpha - dt * _curl_of(d) + dt ** 2 * lat.partials(d.trace())
            dirac_step = g.phi - 2.0 * dt * _dirac0(lat, g.phi)
            current = SWConfiguration(lat, current.alpha - dt * lat.multiply(curl_step, inv_a),
                                      current.psi - dt * lat.multiply(dirac_step, inv_p))
            ev = evaluate(current, params, case)


# ---------------------------------------------------------------------------
# linearization at a configuration


@dataclass(eq=False)
class SystemTriple:
    """Output of the gauge-fixed linearized system (imaginary parts stored real)."""

    scalar: np.ndarray          # real (n, n, n)
    one_form: np.ndarray        # real (3, n, n, n)
    spinor: np.ndarray          # complex (2, n, n, n)


class SWLinearization:
    """Gauge-fixing row, linearized curvature row and linearized Dirac row,
    with the exact discrete adjoint, and the pure-spinor-block perturbations
    of the linearized system: the mixed term phi -> cl(alpha) psi / 2, whose
    only witness is the inhomogeneous mixed_coefficient, and case1, the
    zeroth-order bundle map of the p2 family, built from params on first use."""

    def __init__(self, config: SWConfiguration, params: Optional[PerturbationParams]):
        self.config, self.params, self.lattice = config, params, config.lattice

    def apply(self, t: Tangent) -> SystemTriple:
        lat, psi = self.lattice, self.config.psi
        d = lat.partials(t.alpha)   # one call for -div and curl
        scalar = np.imag(np.sum(psi * np.conj(t.phi), axis=0)) - d.trace()
        one_form = _curl_of(d) - 2.0 * sigma_polarized(psi, t.phi)
        dphi = dirac3(SWConfiguration(lat, self.config.alpha, t.phi))
        spinor = dphi + 0.5 * _cl(t.alpha, psi)
        return SystemTriple(scalar, one_form, spinor)

    def adjoint(self, y: SystemTriple) -> Tangent:
        lat, psi = self.lattice, self.config.psi
        d = lat.partials(np.concatenate([y.scalar[None], y.one_form]))   # grad and curl
        alpha = d[:, 0] + _curl_of(d[:, 1:]) - sigma_polarized(psi, y.spinor)
        phi = dirac3(SWConfiguration(lat, self.config.alpha, y.spinor))
        phi = phi - 1j * y.scalar[None] * psi
        phi = phi + _cl(y.one_form, psi)
        return Tangent(alpha, phi)

    def pairing_out(self, a: SystemTriple, b: SystemTriple) -> float:
        v = (np.sum(a.scalar * b.scalar) + np.sum(a.one_form * b.one_form)
             + np.sum(a.spinor * np.conj(b.spinor)).real)
        return float(v) * self.lattice.volume_element

    @property
    def mixed_coefficient(self) -> float:
        """sup|cl(alpha) psi|/2 per unit sup|alpha|, sup|psi|/2 (not admissible in phi alone)."""
        return 0.5 * math.sqrt(self.config.sup_psi_sq())

    @functools.cached_property
    def _case1(self) -> Tuple[Perturbation, float]:
        """The matrix field of -cl(i sum_k c_k nu_k), c_k = dp2/dzeta_k at config,
        on a zero lattice carrier, and its witness sum_k |c_k| sup|nu_k|."""
        if self.params is None:
            raise ValueError("case1 needs params, and this linearization has params=None")
        lat, psi, nus = self.lattice, self.config.psi, self.params.nus
        coeffs = self.params.p2.grad(_zetas(sigma_polarized(psi, psi), nus, lat))
        M = -1j * np.einsum("jab,jxyz->xyzab", _GEN, np.tensordot(coeffs, nus, axes=1))
        witness = sum((abs(c) * float(np.max(np.sqrt(np.sum(nu ** 2, axis=0))))
                       for c, nu in zip(coeffs, nus)), 0.0)
        carrier = SpinorField(lat, np.zeros(lat.shape + (2,), dtype=complex))
        return Perturbation.matrix_field(carrier, M), witness

    @property
    def case1(self) -> Perturbation:
        return self._case1[0]

    @property
    def case1_witness_c0(self) -> float:
        return self._case1[1]

    def case1_field(self, phi: np.ndarray) -> SpinorField:
        """A (2, n, n, n) spinor as a fiber-last lattice field."""
        return SpinorField(self.lattice, np.moveaxis(phi, 0, -1))


def linearize(config: SWConfiguration,
              params: Optional[PerturbationParams]) -> SWLinearization:
    """Linearization at config.  Its rows are those of the unperturbed
    equations; params, which may be None, gives case1 and its witness."""
    return SWLinearization(config, params)


# ---------------------------------------------------------------------------
# gauge action


def gauge_apply(config: SWConfiguration, f: np.ndarray,
                winding: Sequence[int] = (0, 0, 0)) -> SWConfiguration:
    """Gauge transformation u = exp(i(f + w.x)): a -> a - 2i d(f + w.x),
    psi -> u psi.  Only an integer winding keeps u single-valued, so any
    other raises ValueError; an f or winding of the wrong shape raises
    DomainMismatchError."""
    lat = config.lattice
    w = np.asarray(winding, dtype=float)
    f = np.asarray(f, dtype=float)
    if w.shape != (3,) or f.shape != lat.shape:
        raise DomainMismatchError(f"gauge_apply needs a winding of shape (3,) and f of "
                                  f"shape {lat.shape}, got {w.shape} and {f.shape}")
    if not np.all(np.isfinite(w) & (w == np.trunc(w))):
        raise ValueError(f"winding {winding!r} is not integral, so exp(i w.x) is not "
                         f"single-valued on the torus")
    phase = np.tensordot(w, lat.x, axes=(0, 0)) + f
    shift = 2.0 * (lat.partials(f) + w[:, None, None, None])
    return SWConfiguration(lat, config.alpha - shift, np.exp(1j * phase)[None] * config.psi)


# ---------------------------------------------------------------------------
# random data


def random_config(lattice: TorusLattice, rng: np.random.Generator,
                  amplitude: float) -> SWConfiguration:
    n = lattice.n
    alpha = amplitude * rng.standard_normal((3, n, n, n))
    psi = amplitude * (rng.standard_normal((2, n, n, n))
                       + 1j * rng.standard_normal((2, n, n, n)))
    return SWConfiguration(lattice, alpha, psi)


def random_tangent(lattice: TorusLattice, rng: np.random.Generator) -> Tangent:
    n = lattice.n
    return Tangent(rng.standard_normal((3, n, n, n)),
                   rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal((2, n, n, n)))
