"""Carleman-weighted norms, inequality ratio sweeps, the continuation decay
bound, and the substituted-variable J-term decomposition.

The weight is exp(R(T-t)^2).  All weighted integrals are evaluated in
log-space (shifted exponentials) so ratios stay finite for large R.
Quadrature is trapezoid in the normal coordinate times the slice measure.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import NonAdmissibleError, PreconditionError, SupportConditionError
from .clifford import fiber_inner_real
from .fields import AnnulusGrid, Grid1D, SpinorField, fiber_norm2, same_grid
from .operators import DiracOperator, dirac_apply, time_derivative
from .perturbations import Perturbation, admissibility_bound, eval_perturbation

SUPPORT_TOL = 1e-12
R_SUFFICIENT = 10.0  # smallest R of the large-parameter regime a sweep is judged in
MEASURED_FLOOR = 1e-20  # solver noise floor below which a measured mass counts as zero
# The cutoff falls from 1 to 0 over [0.8T, 0.9T].  The decay factor
# exp(-21 R T^2 / 100) of ucp_decay_check holds for this plateau only:
# 21/100 = 1/4 - (1 - 0.8)^2.
PLATEAU = (0.8, 0.9)


def smoothstep(x):
    """Quintic smoothstep: 0 for x <= 0, 1 for x >= 1, C^2 at the junctions."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def smoothstep_derivative(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    x = np.clip(x, 0.0, 1.0)
    return np.where(inside, 30.0 * x * x * (1.0 - x) ** 2, 0.0)


@dataclass(frozen=True)
class CarlemanGeometry:
    """Annular region [0, T] with its slice measure."""

    grid: object

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        object.__setattr__(self, "_profile_sq", (self.T - self.grid.t) ** 2)  # exponent / R
        object.__setattr__(self, "_tail", self.grid.t > 0.95 * self.T)  # last 5% of slices

    @classmethod
    def interval(cls, T: float, n: int) -> "CarlemanGeometry":
        return cls(Grid1D.uniform(T, n))

    @classmethod
    def annulus(cls, T: float, n_t: int, n_theta: int) -> "CarlemanGeometry":
        return cls(AnnulusGrid.uniform(T, n_t, n_theta))

    @property
    def T(self) -> float:
        return float(self.grid.t[-1])

    def normal_profile(self, values_ndim: int) -> np.ndarray:
        """T - t broadcast against a value array of the given ndim."""
        prof = self.T - self.grid.t
        return prof.reshape((self.grid.n,) + (1,) * (values_ndim - 1))


def bump_cutoff(geom: CarlemanGeometry, t):
    """Cutoff phi: 1 up to 0.8T, 0 from 0.9T, quintic smoothstep between."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-15) or np.any(t > geom.T * (1 + 1e-15)):
        raise ValueError("normal coordinate outside [0, T]")
    lo, hi = PLATEAU
    return 1.0 - smoothstep((t - lo * geom.T) / ((hi - lo) * geom.T))


def bump_cutoff_derivative(geom: CarlemanGeometry, t):
    t = np.asarray(t, dtype=float)
    lo, hi = PLATEAU
    width = (hi - lo) * geom.T
    return -smoothstep_derivative((t - lo * geom.T) / width) / width


def log_weighted_l2(v: SpinorField, R: float, geom: CarlemanGeometry) -> float:
    """log of int exp(R(T-t)^2) |v|^2 dy dt  (-inf for v = 0)."""
    same_grid(geom.grid, v.grid)
    return _log_weighted_mass(fiber_norm2(v.values), R, geom)


def _log_weighted_mass(mag2: np.ndarray, R: float, geom: CarlemanGeometry) -> float:
    if R < 0:
        raise ValueError("weight parameter R must be nonnegative")
    dens = geom.grid.quad_weights() * mag2
    # the weight depends on t only: log-sum-exp of slice masses (scipy's arithmetic)
    mass = dens.sum(axis=tuple(range(1, dens.ndim)))  # method sums: same bits, less overhead
    support = np.flatnonzero(mass > 0.0)
    if not support.size:
        return -math.inf
    a, b = R * geom._profile_sq[support], mass[support]
    if R > 0.0 and (a.size == 1 or a[1] < a[0]):  # (T - t)^2 falls: a lone maximum is first
        a_max, at_max, m = a[0], 0, b[0]
    else:
        a_max = a.max()
        at_max = a == a_max
        m = (b * at_max).sum()
    terms = b * np.exp(a - a_max)
    terms[at_max] = 0.0
    return float(np.log1p(terms.sum() / m) + np.log(m) + a_max)


@dataclass
class CarlemanReport:
    R: float
    log_lhs: float               # log of the weighted mass of v; -inf for v = 0
    log_rhs: float               # log of the weighted mass of D v + P(v)
    ratio: float                 # R exp(log_lhs - log_rhs); inf: a violation; nan: both 0
    c0: Optional[float]          # admissibility constant of P; None for the zero P


def _support_check(v: SpinorField, geom: CarlemanGeometry) -> np.ndarray:
    """|v|^2, once |v| is seen to vanish (to tolerance) on the last 5% of slices."""
    mag2 = fiber_norm2(v.values)
    sup = math.sqrt(mag2.max(initial=0.0))
    tail_sup = math.sqrt(mag2[geom._tail].max(initial=0.0))
    if sup > 0.0 and tail_sup >= SUPPORT_TOL * sup:
        raise SupportConditionError(f"field magnitude {tail_sup:.3e} on the last 5% of "
                                    f"slices exceeds {SUPPORT_TOL:.0e} x sup|v|")
    return mag2


def _perturbed_apply(op: DiracOperator, P: Perturbation, v: SpinorField) -> tuple:
    """D v + P(v) and the sampled C0 of an admissible P on v; D v and None for P = 0."""
    dv = dirac_apply(op, v)
    if P.is_zero:
        return dv, None
    adm = admissibility_bound(P, v)
    if not adm:
        raise NonAdmissibleError(f"perturbation not admissible on the region: {adm.reason}")
    return dv + eval_perturbation(P, v), adm.c0


def carleman_ratio(op: DiracOperator, P: Perturbation, v: SpinorField, R: float,
                   geom: CarlemanGeometry) -> CarlemanReport:
    """R ||v||_w^2 / ||D v + P(v)||_w^2, both weighted masses in log space."""
    same_grid(geom.grid, v.grid)
    mag2 = _support_check(v, geom)
    dv, c0 = _perturbed_apply(op, P, v)
    log_lhs = _log_weighted_mass(mag2, R, geom)
    log_rhs = log_weighted_l2(dv, R, geom)
    if log_rhs == -math.inf:
        ratio = math.nan if log_lhs == -math.inf else math.inf
    else:
        ratio = R * math.exp(log_lhs - log_rhs)
    return CarlemanReport(R, log_lhs, log_rhs, ratio, c0)


# ---------------------------------------------------------------------------
# samplers and sweeps


def cutoff_bump_sampler(geom: CarlemanGeometry) -> Callable:
    """One to three random smooth bumps, cutoff on the outer side and collared
    to vanish at the inner slice (the class the inequality quantifies over),
    valued in the rank-2 fiber of every shipped frame."""
    grid = geom.grid
    T = geom.T
    t = grid.t
    envelope = bump_cutoff(geom, t) * smoothstep(t / (0.15 * T))  # cutoff times collar

    def sample(rng: np.random.Generator) -> SpinorField:
        profile = np.zeros(grid.n)
        for _ in range(int(rng.integers(1, 4))):
            mu = rng.uniform(0.25 * T, 0.65 * T)
            sig = rng.uniform(T / 14.0, T / 7.0)
            profile += rng.uniform(0.3, 1.0) * np.exp(-((t - mu) ** 2) / (2.0 * sig ** 2))
        profile *= envelope
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        if isinstance(grid, AnnulusGrid):
            m = int(rng.integers(0, 4))
            angular = np.exp(1j * m * grid.theta)
            values = profile[:, None, None] * angular[None, :, None] * direction
        else:
            # the bits of multiply.outer(profile, direction), without its loop over a
            # length-2 inner axis
            values = np.ascontiguousarray(np.multiply.outer(direction, profile).T)
        return SpinorField(grid, values)

    return sample


@dataclass(eq=False)
class SweepResult:
    """Per R, the report of the sample with the largest finite ratio and that
    ratio as the estimate; with no finite ratio, the first sample's report
    and a nan estimate.  An estimate is conclusive when it is finite and its
    R is at least R_SUFFICIENT."""

    R_grid: np.ndarray
    reports: List[CarlemanReport]
    estimates: np.ndarray

    @property
    def degenerate(self) -> bool:
        """Every sampled ratio undefined."""
        return not np.isfinite(self.estimates).any()

    @property
    def conclusive(self) -> np.ndarray:
        return (self.R_grid >= R_SUFFICIENT) & np.isfinite(self.estimates)

    @property
    def spread(self) -> float:
        """max/min of the conclusive estimates; nan with none, or with a
        smallest one that is not positive."""
        vals = self.estimates[self.conclusive]
        if vals.size == 0 or np.min(vals) <= 0:
            return math.nan
        return float(np.max(vals)) / float(np.min(vals))

    @property
    def bounded(self) -> bool:
        """Spread at most 2, the factor of the boundedness clause."""
        s = self.spread
        return bool(np.isfinite(s) and s <= 2.0)


def constant_sweep(op: DiracOperator, sampler: Callable, R_grid: Sequence[float],
                   geom: CarlemanGeometry, n_samples: int, seed: int,
                   perturbation: Perturbation = Perturbation.zero()) -> SweepResult:
    """Per-R constant estimate: max ratio over sampled fields.  Sample
    (i_r, i_s) draws from the Philox stream keyed (seed, i_r, i_s)."""
    R_grid = np.asarray(list(R_grid), dtype=float)
    if n_samples < 1:
        raise ValueError("empty sample set")

    def one(i_r: int, i_s: int) -> CarlemanReport:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i_r, i_s])))
        return carleman_ratio(op, perturbation, sampler(rng), float(R_grid[i_r]), geom)

    reports, estimates = [], []
    for i_r in range(R_grid.size):
        group = [one(i_r, i_s) for i_s in range(n_samples)]
        ratios = np.array([g.ratio for g in group])
        finite = np.isfinite(ratios)
        best = group[int(np.argmax(np.where(finite, ratios, -np.inf)))]
        reports.append(best)
        estimates.append(best.ratio if finite.any() else math.nan)
    return SweepResult(R_grid, reports, np.array(estimates))


# ---------------------------------------------------------------------------
# continuation decay bound


@dataclass
class DecayRow:
    R: float
    log_bound: float
    conclusive: bool
    passed: bool


@dataclass
class DecayReport:
    rows: List[DecayRow]
    constant: float
    c0: float
    crossover: float
    measured: float
    cutoff_integral: float
    slope: float
    analytic_slope: float
    passed: bool
    inconclusive: bool

    @property
    def slope_rel_dev(self) -> float:
        if not np.isfinite(self.slope):
            return math.nan
        return abs(self.slope - self.analytic_slope) / abs(self.analytic_slope)


def ucp_decay_check(op: DiracOperator, P: Perturbation, u: SpinorField,
                    R_grid: Sequence[float], geom: CarlemanGeometry,
                    seed: int) -> DecayReport:
    """Decay bound from the cutoff contradiction argument.

    Absorbing |P v| <= C0 |v| through (a + b)^2 <= 2a^2 + 2b^2 gives
    (R - 2 C C0^2) ||v||^2 <= 2 C ||(D + P) v||^2, so a row is conclusive
    past the crossover 2 C C0^2, with the bound factor
    (2C/(R - 2 C C0^2)) exp(-21RT^2/100) times the cutoff-collar integral
    of |cl(dt) phi' u|^2; the measured quantity is the solution mass on
    [0, T/2].  Both sides are compared in log space; a measured mass below
    the solver noise floor counts as zero.
    """
    same_grid(geom.grid, u.grid)
    residual, c0 = _perturbed_apply(op, P, u)
    res_sup = residual.sup_norm()
    if not res_sup < 1e-8:  # a NaN residual fails too
        raise PreconditionError(f"solution residual {res_sup:.3e} exceeds 1e-8")
    first_slice = float(np.max(u.fiber_abs()[0])) if u.values.size else 0.0
    if first_slice >= 1e-8:
        raise PreconditionError(
            f"inner-side data {first_slice:.3e} not vanishing (>= 1e-8)")

    sweep = constant_sweep(op, cutoff_bump_sampler(geom), np.logspace(1, 3, 5), geom,
                           n_samples=8, seed=seed)
    finite = sweep.estimates[np.isfinite(sweep.estimates)]
    constant = float(np.max(finite)) if finite.size else 1.0
    c0 = c0 or 0.0  # the zero P absorbs nothing
    crossover = 2.0 * constant * c0 ** 2

    T = geom.T
    t = geom.grid.t
    phi_prime = bump_cutoff_derivative(geom, t).reshape(
        (geom.grid.n,) + (1,) * (u.values.ndim - 1))
    collar_term = op.apply_cl_dt(phi_prime * u.values)
    w = geom.grid.quad_weights()
    cutoff_integral = float(np.sum(w * fiber_norm2(collar_term)))

    measured = float(np.sum(np.where(t <= 0.5 * T, w, 0.0) * fiber_norm2(u.values)))

    log_measured = math.log(measured) if measured > 0 else -math.inf
    log_cut = math.log(cutoff_integral) if cutoff_integral > 0 else -math.inf

    rows = []
    for R in np.asarray(list(R_grid), dtype=float):
        conclusive = R > crossover
        if not conclusive:
            rows.append(DecayRow(float(R), math.nan, False, False))
            continue
        log_bound = (math.log(2.0 * constant) - math.log(R - crossover)
                     - 0.21 * T * T * R + log_cut)
        ok = (measured < MEASURED_FLOOR) or (log_measured <= log_bound + 1e-12)
        rows.append(DecayRow(float(R), log_bound, True, bool(ok)))

    concl = [r for r in rows if r.conclusive]
    if len({r.R for r in concl}) >= 2:  # one repeated R carries no slope
        Rs = np.array([r.R for r in concl])
        f = (math.log(2.0 * constant) - np.log(Rs - crossover) - 0.21 * T * T * Rs)
        dR = Rs - Rs.mean()  # the least-squares line in closed form
        slope = float(dR @ (f - f.mean()) / (dR @ dR))
    else:
        slope = math.nan

    inconclusive = not concl
    passed = bool(concl) and all(r.passed for r in concl)
    return DecayReport(rows, constant, c0, crossover, measured, cutoff_integral,
                       slope, -0.21 * T * T, passed, inconclusive)


# ---------------------------------------------------------------------------
# substituted-variable decomposition


@dataclass
class JTermRecord:
    R: float
    j0: float
    j1: float
    j_skew: float
    j_sym: float
    j_mix: float
    j3: float
    j_skew_pert: float
    j_sym_pert: float
    j_err: float

    @property
    def identity_defect(self) -> float:
        scale = max(abs(self.j1), self.j_skew + self.j_sym + abs(self.j_mix), 1e-300)
        return abs(self.j1 - (self.j_skew + self.j_sym + self.j_mix)) / scale

    @property
    def mix_residual(self) -> float:
        """j_mix - R j0 - j_skew_pert; equals j3 up to O(h^2) for fields
        vanishing at both ends."""
        return self.j_mix - self.R * self.j0 - self.j_skew_pert


@np.errstate(over="ignore", invalid="ignore")
def appendix_decomposition(op: DiracOperator, P: Perturbation, v: SpinorField,
                           R: float, geom: CarlemanGeometry) -> JTermRecord:
    """J-terms of the identity |L v0|^2 = J_skew + J_sym + J_mix after the
    substitution v = exp(-R(T-t)^2/2) v0, with the error term
    J_err = int |v0|^2 (R - 4 |P v|^2 / |v|^2).  Direct exponentials: intended
    for moderate R; a J-term that overflows raises PreconditionError."""
    same_grid(geom.grid, v.grid)
    mag2_v = _support_check(v, geom)
    w = geom.grid.quad_weights()
    prof = geom.normal_profile(v.values.ndim)   # T - t
    E = np.exp(0.5 * R * geom._profile_sq.reshape(prof.shape))

    v0 = E * v.values
    h = geom.grid.spacing

    def wip(x, y) -> float:
        return float(np.sum(w * fiber_inner_real(x, y)))

    symB = op.apply_B(v0)  # B v0 until J3 is formed, then B v0 + R (T - t) v0
    skew = time_derivative(v0, h)
    j3_vec = -op.apply_B_prime(v0)
    if op.nonzero_parts[1] is not None:  # [B, C] = 0 when C = 0
        Cv0 = op.apply_C(v0)
        skew += Cv0
        j3_vec += op.apply_B(Cv0)
        j3_vec -= op.apply_C(symB)
    j3 = wip(v0, j3_vec)
    del j3_vec  # one full-size array fewer at the peak below
    symB += R * prof * v0
    sym, j_skew_pert, j_sym_pert, quot2 = symB, 0.0, 0.0, 0.0
    if not P.is_zero:  # zero adds no term
        pv = eval_perturbation(P, v).values
        pert = -E * op.apply_cl_dt(pv)   # cl(dt)^-1 P v, reduced for d/dt + Bcal
        sym = symB + pert
        j_skew_pert = 2.0 * wip(skew, pert)
        j_sym_pert = 2.0 * wip(symB, pert)
        mag2_p = fiber_norm2(pv)
        quot2 = np.divide(mag2_p, mag2_v, out=np.zeros_like(mag2_p), where=mag2_v > 0)

    j_skew = wip(skew, skew)
    j_sym = wip(sym, sym)
    j_mix = 2.0 * wip(skew, sym)
    total = skew + sym
    j1 = wip(total, total)
    mag2_v0 = fiber_norm2(v0)
    j0 = float(np.sum(w * mag2_v0))
    j_err = float(np.sum(w * mag2_v0 * (R - 4.0 * quot2)))

    rec = JTermRecord(R, j0, j1, j_skew, j_sym, j_mix, j3,
                      j_skew_pert, j_sym_pert, j_err)
    if not all(map(math.isfinite, astuple(rec))):
        raise PreconditionError(
            f"J-terms overflow at R T^2 = {R * geom.T ** 2:.4g}: lower R or T")
    return rec
