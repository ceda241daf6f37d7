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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .clifford import frame
from .errors import DomainMismatchError, FlowInstabilityError
from .fields import FlatDomain, SpinorField
from .perturbations import Perturbation

_FRAME3 = frame(3)
_GEN = np.stack(_FRAME3.generators)          # (3, 2, 2), g_j = i sigma_j
_SIGMA = np.stack([-1j * g for g in _GEN])   # recover sigma_j

M_TANH = 1.6  # sup |tanh| on the unit strip around the real axis (Cauchy bound)

# Smallest admissible |1 - dt^2|k|^2| and |1 - 4 dt^2|k|^2| in the
# semi-implicit step; nearer resonance a mode is amplified by ~1/margin.
RESONANCE_MARGIN = 1e-6


class TorusLattice:
    """Fourier lattice with modes |k_j| <= N on the 2pi-periodic grid (n = 2N+1)."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("need N >= 1")
        self.N = int(N)
        self.n = 2 * self.N + 1
        n = self.n
        k1 = np.fft.fftfreq(n, 1.0 / n)
        self.k = np.stack(np.meshgrid(k1, k1, k1, indexing="ij"))
        self.k2 = np.sum(self.k ** 2, axis=0)
        x1 = np.arange(n) * (2.0 * np.pi / n)
        self.x = np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))
        self.volume_element = (2.0 * np.pi / n) ** 3
        self.volume = (2.0 * np.pi) ** 3
        inv = np.zeros_like(self.k2)
        nz = self.k2 > 0
        inv[nz] = 1.0 / self.k2[nz]
        self._green_mult = inv

    # -- spectral primitives ------------------------------------------------
    def fft(self, f):
        return np.fft.fftn(f, axes=(-3, -2, -1))

    def ifft(self, f):
        return np.fft.ifftn(f, axes=(-3, -2, -1))

    def spectral(self, f, symbol):
        """ifft(symbol(fft(f))): one forward and one inverse transform of the
        whole stacked input; real input gives real output."""
        out = self.ifft(symbol(self.fft(f)))
        return out.real if np.isrealobj(f) else out

    def divergence(self, vec):
        return self.spectral(vec, lambda h: np.sum(1j * self.k * h, axis=0))

    def curl(self, vec):
        return self.spectral(vec, lambda h: np.cross(1j * self.k, h, axis=0))

    def gradient(self, f):
        return self.spectral(f, lambda h: 1j * self.k * h)

    def green(self, f):
        """Inverse of the positive Laplacian; the mean mode is annihilated."""
        return self.spectral(f, lambda h: self._green_mult * h)

    def integral(self, f) -> complex:
        return complex(np.sum(f) * self.volume_element)

    def mode_count(self) -> int:
        return self.n ** 3

    def __eq__(self, other):
        return isinstance(other, TorusLattice) and other.N == self.N

    def __hash__(self):
        return hash(("TorusLattice", self.N))


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

    def copy(self) -> "SWConfiguration":
        return SWConfiguration(self.lattice, self.alpha.copy(), self.psi.copy())

    def shifted(self, tangent: "Tangent", scale: float = 1.0) -> "SWConfiguration":
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


@dataclass
class SeparableFunction:
    """Finite sum of single-slot terms: c sin(w x + b), c tanh(w x + b) and
    the linear c (w x + b)."""

    dim: int
    terms: List[tuple]          # (kind, slot, c, w, b)

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        out = 0.0
        for kind, slot, c, w, b in self.terms:
            z = w * x[slot] + b
            if kind == "sin":
                out += c * math.sin(z)
            elif kind == "tanh":
                out += c * math.tanh(z)
            elif kind == "linear":
                out += c * z
            else:
                raise ValueError(f"unknown term kind {kind!r}")
        return out

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.zeros(self.dim)
        for kind, slot, c, w, b in self.terms:
            z = w * x[slot] + b
            if kind == "sin":
                g[slot] += c * w * math.cos(z)
            elif kind == "tanh":
                g[slot] += c * w * (1.0 - math.tanh(z) ** 2)
            elif kind == "linear":
                g[slot] += c * w
            else:
                raise ValueError(f"unknown term kind {kind!r}")
        return g

    def _term_deriv_sup(self, kind, c, w, b, k: int, lo: float, hi: float) -> float:
        if kind == "sin":
            return abs(c) * w ** k
        if kind == "linear":
            if k == 0:
                return abs(c) * max(abs(w * lo + b), abs(w * hi + b))
            return abs(c * w) if k == 1 else 0.0
        if kind != "tanh":
            raise ValueError(f"derivative order unavailable for term kind {kind!r}")
        zs = np.linspace(w * lo + b, w * hi + b, 257)
        t = np.tanh(zs)
        if k == 0:
            return float(abs(c) * np.max(np.abs(t)))
        if k == 1:
            prof = 1.0 - t ** 2
        elif k == 2:
            prof = -2.0 * t * (1.0 - t ** 2)
        elif k == 3:
            prof = (1.0 - t ** 2) * (6.0 * t ** 2 - 2.0)
        else:
            # Cauchy estimate on the unit strip
            return abs(c) * w ** k * math.factorial(k) * M_TANH
        return float(abs(c) * w ** k * np.max(np.abs(prof)))

    def deriv_sup(self, k: int, box: Tuple[float, float] = (-3.0, 3.0)) -> float:
        """Sup of the k-th derivative tensor over the box (max-entry norm;
        the tensor is slot-diagonal for separable sums)."""
        lo, hi = box
        if k == 0:
            xs = np.linspace(lo, hi, 257)
            per_slot = np.zeros((self.dim, xs.size))
            for kind, slot, c, w, b in self.terms:
                z = w * xs + b
                if kind == "sin":
                    per_slot[slot] += c * np.sin(z)
                elif kind == "tanh":
                    per_slot[slot] += c * np.tanh(z)
                else:
                    per_slot[slot] += c * z
            return float(np.max(np.abs(np.sum(per_slot, axis=0))))
        sums = np.zeros(self.dim)
        for kind, slot, c, w, b in self.terms:
            sums[slot] += self._term_deriv_sup(kind, c, w, b, k, lo, hi)
        return float(np.max(sums)) if self.dim else 0.0

    def tail_coefficients(self) -> List[tuple]:
        """(|c|, w) pairs for the geometric truncation remainder; terms with
        terminating derivatives contribute nothing."""
        return [(abs(c), w) for kind, _, c, w, _ in self.terms if kind != "linear"]


@dataclass(eq=False)
class EtaFunction:
    """p3(eta) = sum_l c_l tanh(|eta_l|^2); invariant under phase rotations."""

    coeffs: np.ndarray

    def value(self, eta: np.ndarray) -> float:
        return float(np.sum(self.coeffs * np.tanh(np.abs(eta) ** 2)))

    def wirtinger(self, eta: np.ndarray) -> np.ndarray:
        sech2 = 1.0 - np.tanh(np.abs(eta) ** 2) ** 2
        return self.coeffs * sech2 * np.conj(eta)


# ---------------------------------------------------------------------------
# perturbation parameter data


@dataclass(eq=False)
class PerturbationParams:
    mus: np.ndarray             # (N_tau, 3, n, n, n) real storage of co-closed forms
    nus: np.ndarray             # (K, 3, n, n, n)
    spinor_basis: np.ndarray    # (L, 2, n, n, n) eigenspinors of the base Dirac operator
    eigenvalues: np.ndarray     # (L,)
    p1: SeparableFunction
    p2: SeparableFunction
    p3: EtaFunction
    epsilons: np.ndarray        # Floer weight sequence, index = derivative order
    winding_shift: float        # measured shift of tau_j under a unit winding

    @property
    def n_tau(self) -> int:
        return self.mus.shape[0]

    @property
    def n_zeta(self) -> int:
        return self.nus.shape[0]

    @property
    def n_eta(self) -> int:
        return self.spinor_basis.shape[0]


def eigenspinor_basis(lattice: TorusLattice, count: int):
    """First eigenspinors of the flat Dirac operator, plane waves ordered by
    |k|^2 then lexicographically; deterministic eigenvector phases."""
    N = lattice.N
    ks = [(i, j, l) for i in range(-N, N + 1) for j in range(-N, N + 1)
          for l in range(-N, N + 1)]
    ks.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2 + k[2] ** 2, k))
    fields, lambdas = [], []
    inv_sqrt_vol = 1.0 / math.sqrt(lattice.volume)
    for kvec in ks:
        if len(fields) >= count:
            break
        k = np.array(kvec, dtype=float)
        phase = np.exp(1j * np.tensordot(k, lattice.x, axes=(0, 0)))
        if np.allclose(k, 0.0):
            vecs = [np.array([1.0, 0.0], dtype=complex),
                    np.array([0.0, 1.0], dtype=complex)]
            vals = [0.0, 0.0]
        else:
            symbol = -np.tensordot(k, _SIGMA, axes=(0, 0))
            vals, vecs_mat = np.linalg.eigh(symbol)
            vecs = []
            for c in range(2):
                v = vecs_mat[:, c]
                pivot = int(np.argmax(np.abs(v)))
                v = v * np.exp(-1j * np.angle(v[pivot]))
                vecs.append(v)
        for lam, v in zip(vals, vecs):
            if len(fields) >= count:
                break
            fields.append(v[:, None, None, None] * phase[None] * inv_sqrt_vol)
            lambdas.append(float(lam))
    return np.stack(fields), np.array(lambdas)


def _coclosed_forms(lattice: TorusLattice, count: int) -> np.ndarray:
    """Harmonic frame forms first, then simple divergence-free trig forms."""
    n = lattice.n
    forms = []
    for j in range(3):
        m = np.zeros((3, n, n, n))
        m[j] = 1.0
        forms.append(m)
    extras = [(2, 0, np.cos), (0, 1, np.cos), (1, 2, np.cos),
              (2, 0, np.sin), (0, 1, np.sin), (1, 2, np.sin)]
    for comp, axis, fn in extras:
        if len(forms) >= count:
            break
        m = np.zeros((3, n, n, n))
        m[comp] = fn(lattice.x[axis])
        forms.append(m)
    if len(forms) < count:
        raise ValueError("not enough shipped co-closed forms")
    return np.stack(forms[:count])


def _generic_forms(lattice: TorusLattice, count: int) -> np.ndarray:
    specs = [(0, None, None), (1, 0, np.cos), (2, 1, np.sin), (0, 2, np.cos),
             (1, 1, np.cos), (2, 0, np.sin)]
    n = lattice.n
    forms = []
    for comp, axis, fn in specs:
        if len(forms) >= count:
            break
        m = np.zeros((3, n, n, n))
        m[comp] = 1.0 if axis is None else fn(lattice.x[axis])
        forms.append(m)
    return np.stack(forms[:count])


def default_epsilons(k_max: int = 6) -> np.ndarray:
    return np.array([4.0 ** (-k) / math.factorial(k) for k in range(k_max + 1)])


def default_params(lattice: TorusLattice, n_tau: int = 5, n_zeta: int = 3,
                   n_eta: int = 4, seed: int = 7) -> PerturbationParams:
    """Shipped perturbation data: tanh/trig function families with the
    translation invariance of p1 enforced by 2pi-periodic dependence on the
    first three slots after rescaling by the measured winding shift."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    mus = _coclosed_forms(lattice, n_tau)
    nus = _generic_forms(lattice, n_zeta)
    basis, lambdas = eigenspinor_basis(lattice, n_eta)

    shift = _measure_winding_shift(lattice, mus)
    p1_terms = []
    for slot in range(min(3, n_tau)):
        c = float(rng.uniform(0.1, 0.25))
        p1_terms.append(("sin", slot, c, 2.0 * np.pi / shift, float(rng.uniform(0, np.pi))))
    for slot in range(3, n_tau):
        p1_terms.append(("tanh", slot, float(rng.uniform(0.1, 0.3)), 0.5, 0.0))
    p1 = SeparableFunction(n_tau, p1_terms)

    p2_terms = [("tanh", slot, float(rng.uniform(0.1, 0.3)), 0.7, float(rng.uniform(-0.2, 0.2)))
                for slot in range(n_zeta)]
    p2 = SeparableFunction(n_zeta, p2_terms)

    p3 = EtaFunction(rng.uniform(0.1, 0.3, size=n_eta))
    return PerturbationParams(mus, nus, basis, lambdas, p1, p2, p3,
                              default_epsilons(), shift)


def _measure_winding_shift(lattice: TorusLattice, mus: np.ndarray) -> float:
    base = SWConfiguration.zero(lattice)
    wound = gauge_apply(base, winding=(1, 0, 0))
    tau0 = _taus(base, mus)
    tau1 = _taus(wound, mus)
    return float(tau1[0] - tau0[0])


# ---------------------------------------------------------------------------
# core operators and observables


def cl_imaginary_form(alpha: np.ndarray) -> np.ndarray:
    """Pointwise fiber matrices of Clifford multiplication by i*alpha."""
    return 1j * np.tensordot(_GEN, alpha, axes=(0, 0)).transpose(2, 3, 4, 0, 1)


def _cl(form: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Clifford multiplication cl(i form) psi = sum_j form_j i cl(e_j) psi."""
    return 1j * np.einsum("jab,jxyz,bxyz->axyz", _GEN, form, psi)


def dirac3(config: SWConfiguration) -> np.ndarray:
    """Twisted Dirac operator sum_j cl(e_j)(d_j + alpha_j i/2) psi, i.e.
    ifft(cl(i k) fft(psi)) + cl(i alpha) psi / 2."""
    lat = config.lattice
    return (lat.spectral(config.psi, lambda h: _cl(lat.k, h))
            + 0.5 * _cl(config.alpha, config.psi))


def sigma_polarized(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Symmetric polarization: (i/2) Im <cl(e_j)psi, phi> (real storage);
    sigma_polarized(psi, psi) is the quadratic term sigma(psi, psi)."""
    return 0.5 * np.imag(np.einsum("jab,bxyz,axyz->jxyz", _GEN, psi, np.conj(phi)))


def sw_residual(config: SWConfiguration) -> Tuple[float, float]:
    """L2 norms of the curvature row *F_A - sigma(psi, psi) and the Dirac row."""
    lat = config.lattice
    curv = lat.curl(config.alpha) - sigma_polarized(config.psi, config.psi)
    r1 = math.sqrt(float(np.sum(curv ** 2)) * lat.volume_element)
    dp = dirac3(config)
    r2 = math.sqrt(float(np.sum(np.abs(dp) ** 2)) * lat.volume_element)
    return r1, r2


def eta_dressing(config: SWConfiguration) -> np.ndarray:
    """Unit-modulus scalar exp(-G d*(A - A_0)/2) = exp(i G(div alpha)/2)."""
    lat = config.lattice
    phase = 0.5 * lat.green(lat.divergence(config.alpha))
    return np.exp(1j * phase)


def _taus(config: SWConfiguration, mus: np.ndarray) -> np.ndarray:
    lat = config.lattice
    # int a wedge *mu_j with both forms imaginary: -(alpha . m_j) integrated
    return np.array([-float(np.sum(config.alpha * m)) * lat.volume_element
                     for m in mus])


def zeta_pairings(config: SWConfiguration, nus: np.ndarray) -> np.ndarray:
    """Raw complex values of int <cl(nu_j) psi, psi> (real up to rounding)."""
    psi = config.psi
    return np.array([complex(np.sum(_cl(m, psi) * np.conj(psi)))
                     * config.lattice.volume_element for m in nus])


def _zetas(config: SWConfiguration, nus: np.ndarray) -> np.ndarray:
    return zeta_pairings(config, nus).real


def _etas(config: SWConfiguration, params: PerturbationParams,
          dressing: Optional[np.ndarray] = None) -> np.ndarray:
    lat = config.lattice
    X = eta_dressing(config) if dressing is None else dressing
    out = []
    for chi in params.spinor_basis:
        out.append(complex(np.sum((X[None] * chi) * np.conj(config.psi))
                           * lat.volume_element))
    return np.array(out)


@dataclass(eq=False)
class Observables:
    tau: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray


def observables(config: SWConfiguration, params: PerturbationParams) -> Observables:
    return Observables(_taus(config, params.mus), _zetas(config, params.nus),
                       _etas(config, params))


@dataclass(eq=False)
class FloerNormResult:
    value: float
    remainder_bound: float
    per_order: np.ndarray


def floer_norm(params: PerturbationParams, box: Tuple[float, float] = (-3.0, 3.0),
               k_max: Optional[int] = None) -> FloerNormResult:
    """sum_k eps_k (sup|grad^k p1| + sup|grad^k p2|) truncated at k_max, with
    a closed-form geometric bound on the truncation remainder."""
    eps = params.epsilons
    if k_max is None:
        k_max = eps.size - 1
    if k_max >= eps.size:
        raise ValueError("epsilon sequence shorter than requested truncation")
    per_order = np.array([
        eps[k] * (params.p1.deriv_sup(k, box) + params.p2.deriv_sup(k, box))
        for k in range(k_max + 1)
    ])
    remainder = 0.0
    for fn in (params.p1, params.p2):
        for c_abs, w in fn.tail_coefficients():
            q = w / 4.0
            if q >= 1.0:
                raise ValueError("tail bound needs term frequency below 4")
            remainder += M_TANH * c_abs * q ** (k_max + 1) / (1.0 - q)
    return FloerNormResult(float(np.sum(per_order)), float(remainder), per_order)


# ---------------------------------------------------------------------------
# functional, gradient, flow

_CASES = ("unperturbed", "case1", "case2")


def _check_case(case: str):
    if case not in _CASES:
        raise ValueError(f"case must be one of {_CASES}")


def csd(config: SWConfiguration, params: Optional[PerturbationParams] = None,
        case: str = "unperturbed") -> float:
    """Chern-Simons-Dirac value: -1/2 int a ^ (F_A + F_{A_0}) + int <psi, d_A psi>
    plus the selected perturbation functions of the observables."""
    _check_case(case)
    lat = config.lattice
    cs = 0.5 * float(np.sum(config.alpha * lat.curl(config.alpha))) * lat.volume_element
    dp = dirac3(config)
    dirac_term = float(np.sum(config.psi * np.conj(dp)).real) * lat.volume_element
    total = cs + dirac_term
    if case in ("case1", "case2"):
        if params is None:
            raise ValueError("perturbed cases need params")
        total += params.p1.value(_taus(config, params.mus))
        total += params.p2.value(_zetas(config, params.nus))
    if case == "case2":
        total += params.p3.value(_etas(config, params))
    return total


def grad_csd(config: SWConfiguration, params: Optional[PerturbationParams] = None,
             case: str = "unperturbed") -> Tangent:
    """Exact discrete L2 gradient of csd (finite-difference oracle fixes all
    signs; see module docstring for the relation to the printed form)."""
    _check_case(case)
    lat = config.lattice
    ga = lat.curl(config.alpha) - sigma_polarized(config.psi, config.psi)
    gp = 2.0 * dirac3(config)

    if case in ("case1", "case2"):
        if params is None:
            raise ValueError("perturbed cases need params")
        dp1 = params.p1.grad(_taus(config, params.mus))
        ga -= np.tensordot(dp1, params.mus, axes=1)
        dp2 = params.p2.grad(_zetas(config, params.nus))
        gp += 2.0 * _cl(np.tensordot(dp2, params.nus, axes=1), config.psi)

    if case == "case2":
        X = eta_dressing(config)
        wirt = params.p3.wirtinger(_etas(config, params, dressing=X))
        dressed = X[None] * np.tensordot(wirt, params.spinor_basis, axes=1)
        gp += 2.0 * dressed
        W = np.sum(dressed * np.conj(config.psi), axis=0)
        ga += lat.gradient(lat.green(np.imag(W)))

    return Tangent(ga, gp)


def flow_step(config: SWConfiguration, params: Optional[PerturbationParams] = None,
              case: str = "unperturbed", dt: float = 1e-2,
              scheme: str = "explicit", energy_tol: float = 1e-10) -> SWConfiguration:
    """One step of the downward flow d/dt (A, psi) = -grad csd.

    'explicit' checks that the functional did not increase beyond tolerance
    and raises FlowInstabilityError otherwise.  'semi-implicit' treats the
    linear part L = (curl, 2 D_0) implicitly, x_new = x - dt (I + dt L)^-1
    grad csd(x), with the closed-form per-mode resolvents (S = cl(i k),
    C = i k x, C^2 = |k|^2 P_perp):
        (I + 2 dt S)^-1 = (I - 2 dt S) / (1 - 4 dt^2 |k|^2),
        (I + dt C)^-1 = P_par + (I - dt C) P_perp / (1 - dt^2 |k|^2).
    Its fixed points are exactly the critical points; a dt within
    RESONANCE_MARGIN of a pole raises FlowInstabilityError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lat = config.lattice
    g = grad_csd(config, params, case)
    if scheme == "explicit":
        before = csd(config, params, case)
        new = SWConfiguration(lat, config.alpha - dt * g.alpha, config.psi - dt * g.phi)
        after = csd(new, params, case)
        if after > before + energy_tol * (1.0 + abs(before)):
            raise FlowInstabilityError(
                f"functional increased by {after - before:.3e} in an explicit step")
        return new
    if scheme != "semi-implicit":
        raise ValueError("scheme must be 'explicit' or 'semi-implicit'")

    k, k2 = lat.k, lat.k2
    den_a, den_p = 1.0 - dt ** 2 * k2, 1.0 - 4.0 * dt ** 2 * k2
    for den in (den_a, den_p):
        i = int(np.argmin(np.abs(den)))
        if abs(den.flat[i]) < RESONANCE_MARGIN:
            raise FlowInstabilityError(
                f"semi-implicit step dt={dt!r} is resonant at |k| = "
                f"{math.sqrt(k2.flat[i]):.6g}: denominator {den.flat[i]:.3e} "
                f"is below the margin {RESONANCE_MARGIN:g}")

    def curl_resolvent(h):
        par = k * (lat._green_mult * np.sum(k * h, axis=0))
        return par + (h - par - dt * np.cross(1j * k, h, axis=0)) / den_a

    def dirac_resolvent(h):
        return (h - 2.0 * dt * _cl(k, h)) / den_p

    return SWConfiguration(lat, config.alpha - dt * lat.spectral(g.alpha, curl_resolvent),
                           config.psi - dt * lat.spectral(g.phi, dirac_resolvent))


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


def run_flow(config: SWConfiguration, params: Optional[PerturbationParams] = None,
             case: str = "unperturbed", dt: float = 3.0, steps: int = 200,
             scheme: str = "semi-implicit", residual_target: Optional[float] = None,
             record_every: int = 1) -> FlowResult:
    """Finite-horizon flow integration with trajectory records; a non-finite
    recorded value raises FlowInstabilityError."""
    current = config
    records = []

    def record(i):
        r1, r2 = sw_residual(current)
        value = csd(current, params, case)
        if not all(map(math.isfinite, (value, r1, r2))):
            raise FlowInstabilityError(
                f"flow diverged by step {i}: csd {value}, residuals {r1}, {r2}")
        records.append(FlowRecord(i, i * dt, value, r1, r2,
                                  math.sqrt(current.sup_psi_sq())))
        return max(r1, r2)

    res = record(0)
    converged = residual_target is not None and res < residual_target
    i = 0
    while i < steps and not converged:
        current = flow_step(current, params, case, dt, scheme)
        i += 1
        if i % record_every == 0 or i == steps:
            res = record(i)
            if residual_target is not None and res < residual_target:
                converged = True
    return FlowResult(current, records, converged)


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
    with the exact discrete adjoint."""

    def __init__(self, config: SWConfiguration):
        self.config = config
        self.lattice = config.lattice

    def apply(self, t: Tangent) -> SystemTriple:
        lat, psi = self.lattice, self.config.psi
        scalar = -lat.divergence(t.alpha) + np.imag(np.sum(psi * np.conj(t.phi), axis=0))
        one_form = lat.curl(t.alpha) - 2.0 * sigma_polarized(psi, t.phi)
        cfg = self.config
        dphi = dirac3(SWConfiguration(lat, cfg.alpha, t.phi))
        spinor = dphi + 0.5 * _cl(t.alpha, psi)
        return SystemTriple(scalar, one_form, spinor)

    def adjoint(self, y: SystemTriple) -> Tangent:
        lat, psi = self.lattice, self.config.psi
        alpha = (lat.gradient(y.scalar) + lat.curl(y.one_form)
                 - sigma_polarized(psi, y.spinor))
        cfg = self.config
        phi = dirac3(SWConfiguration(lat, cfg.alpha, y.spinor))
        phi = phi - 1j * y.scalar[None] * psi
        phi = phi + _cl(y.one_form, psi)
        return Tangent(alpha, phi)

    def pairing_out(self, a: SystemTriple, b: SystemTriple) -> float:
        v = (np.sum(a.scalar * b.scalar) + np.sum(a.one_form * b.one_form)
             + np.sum(a.spinor * np.conj(b.spinor)).real)
        return float(v) * self.lattice.volume_element


def linearize(config: SWConfiguration,
              params: Optional[PerturbationParams] = None) -> SWLinearization:
    """Linearization at config; params is accepted but unused, since the
    rows are those of the unperturbed equations."""
    return SWLinearization(config)


# ---------------------------------------------------------------------------
# gauge action


def gauge_apply(config: SWConfiguration, f: Optional[np.ndarray] = None,
                winding: Sequence[int] = (0, 0, 0)) -> SWConfiguration:
    """Gauge transformation u = exp(i(f + w.x)): a -> a - 2i d(f + w.x),
    psi -> u psi.  Integer winding keeps u single-valued."""
    lat = config.lattice
    w = np.asarray(winding, dtype=int)
    phase = np.tensordot(w.astype(float), lat.x, axes=(0, 0))
    shift = np.zeros_like(config.alpha)
    for j in range(3):
        shift[j] = 2.0 * float(w[j])
    if f is not None:
        f = np.asarray(f, dtype=float)
        phase = phase + f
        shift = shift + 2.0 * lat.gradient(f)
    u = np.exp(1j * phase)
    return SWConfiguration(lat, config.alpha - shift, u[None] * config.psi)


# ---------------------------------------------------------------------------
# flat-torus bound and linearization bookkeeping


@dataclass
class BoundVerdict:
    status: str                 # "pass" | "fail" | "inconclusive"
    sup_psi_sq: float
    residual: float


def scalar_bound_check(config: SWConfiguration, residual_tol: float = 1e-6,
                       bound_tol: float = 1e-6) -> BoundVerdict:
    """On the flat torus the curvature-scalar bound forces sup|psi|^2 <= 0,
    checked to tolerance for configurations that solve the equations."""
    r = max(sw_residual(config))
    sup_sq = config.sup_psi_sq()
    if r >= residual_tol:
        return BoundVerdict("inconclusive", sup_sq, r)
    status = "pass" if sup_sq <= bound_tol else "fail"
    return BoundVerdict(status, sup_sq, r)


@dataclass(eq=False)
class LinearizationUcpRecord:
    mixed_coefficient: float            # sup|cl(alpha) psi|/2 per unit sup|alpha|
    mixed_admissible_in_phi: bool
    case1: Perturbation
    case1_witness_c0: float
    case2_dressed_sups: np.ndarray      # sup norms of the dressed basis spinors

    def case1_field(self, phi: np.ndarray) -> SpinorField:
        flat = phi.reshape(phi.shape[0], -1).T
        return SpinorField(self.case1.a.grid, flat)


def linearization_ucp_setup(config: SWConfiguration,
                            params: Optional[PerturbationParams] = None
                            ) -> LinearizationUcpRecord:
    """Extract the pure-spinor-block perturbations of the linearized system.

    The mixed term phi -> cl(alpha) psi / 2 admits only the inhomogeneous
    witness sup|psi|/2 per unit sup|alpha| (not admissible in phi alone).
    The zeroth-order term coming from the first perturbation family is a
    pointwise bundle map, packaged for the admissibility machinery with its
    recorded witness constant.
    """
    lat = config.lattice
    sup_psi = math.sqrt(config.sup_psi_sq())
    mixed_coefficient = 0.5 * sup_psi

    n_pts = lat.mode_count()
    weights = np.full(n_pts, lat.volume_element)
    carrier = FlatDomain(weights).zeros(rank=2)

    if params is not None:
        coeffs = params.p2.grad(_zetas(config, params.nus))
        M = np.zeros((lat.n, lat.n, lat.n, 2, 2), dtype=complex)
        witness = 0.0
        for c, nu in zip(coeffs, params.nus):
            M -= c * cl_imaginary_form(nu)
            witness += abs(c) * float(np.max(np.sqrt(np.sum(nu ** 2, axis=0))))
        dressed = eta_dressing(config)[None] * params.spinor_basis
        dressed_sups = np.array([float(np.max(np.sqrt(np.sum(np.abs(d) ** 2, axis=0))))
                                 for d in dressed])
    else:
        M = np.zeros((lat.n, lat.n, lat.n, 2, 2), dtype=complex)
        witness = 0.0
        dressed_sups = np.zeros(0)

    pert = Perturbation.matrix_field(carrier, M.reshape(n_pts, 2, 2))
    return LinearizationUcpRecord(mixed_coefficient, False, pert, witness, dressed_sups)


# ---------------------------------------------------------------------------
# random data


def random_config(lattice: TorusLattice, rng: np.random.Generator,
                  amplitude: float = 1e-4) -> SWConfiguration:
    n = lattice.n
    alpha = amplitude * rng.standard_normal((3, n, n, n))
    psi = amplitude * (rng.standard_normal((2, n, n, n))
                       + 1j * rng.standard_normal((2, n, n, n)))
    return SWConfiguration(lattice, alpha, psi)


def random_tangent(lattice: TorusLattice, rng: np.random.Generator,
                   amplitude: float = 1.0) -> Tangent:
    n = lattice.n
    return Tangent(amplitude * rng.standard_normal((3, n, n, n)),
                   amplitude * (rng.standard_normal((2, n, n, n))
                                + 1j * rng.standard_normal((2, n, n, n))))
