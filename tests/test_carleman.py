import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ucp_lab
from ucp_lab.carleman import (CarlemanGeometry, appendix_decomposition, bump_cutoff,
                              carleman_ratio, constant_sweep, cutoff_bump_sampler,
                              log_weighted_l2, smoothstep, ucp_decay_check,
                              _log_weighted_mass)
from ucp_lab.errors import (NonAdmissibleError, PreconditionError,
                            SupportConditionError)
from ucp_lab.fields import AnnulusGrid, SpinorField, fiber_norm2
from ucp_lab.operators import (DiracOperator, annulus_operator, constant_operator_1d,
                               dirac_apply, model_operator_1d)
from ucp_lab.perturbations import Perturbation, integrate_zero_data


def interval_geom(T=0.1, n=1025):
    return CarlemanGeometry.interval(T, n)


def unit_pointwise(geom):
    grid = geom.grid
    a = np.zeros((grid.n, 2), dtype=complex)
    a[:, 0] = 1.0
    return Perturbation.pointwise(SpinorField(grid, a))


def test_bump_cutoff_values():
    geom = interval_geom()
    T = geom.T
    assert bump_cutoff(geom, 0.5 * T) == 1.0
    assert bump_cutoff(geom, 0.95 * T) == 0.0
    assert abs(bump_cutoff(geom, 0.85 * T) - 0.5) < 1e-14
    with pytest.raises(ValueError):
        bump_cutoff(geom, 1.1 * T)
    with pytest.raises(ValueError):
        bump_cutoff(geom, -0.01 * T)


def weighted_l2(v, R, geom):
    return math.exp(log_weighted_l2(v, R, geom))


def test_weighted_l2_zero_and_constant():
    geom = interval_geom()
    assert log_weighted_l2(geom.grid.zeros(), 10.0, geom) == -math.inf
    ones = SpinorField(geom.grid, np.ones((geom.grid.n, 1), dtype=complex))
    # R = 0: plain L2 mass = T for a unit 1-component field
    assert abs(weighted_l2(ones, 0.0, geom) - geom.T) < 1e-12
    with pytest.raises(ValueError):
        log_weighted_l2(ones, -1.0, geom)


def test_weighted_l2_against_refined_quadrature():
    T = 0.1

    def gaussian(grid):
        vals = np.zeros((grid.n, 2), dtype=complex)
        vals[:, 0] = np.exp(-((grid.t - 0.4 * T) ** 2) / (2 * (T / 10) ** 2))
        return SpinorField(grid, vals)

    coarse = CarlemanGeometry.interval(T, 2049)
    fine = CarlemanGeometry.interval(T, 8193)
    val = weighted_l2(gaussian(coarse.grid), 10.0, coarse)
    oracle = weighted_l2(gaussian(fine.grid), 10.0, fine)
    assert abs(val - oracle) / oracle < 1e-6


def test_weighted_l2_monotone_in_weight_parameter():
    geom = interval_geom()
    v = cutoff_bump_sampler(geom)(np.random.default_rng(0))
    vals = [weighted_l2(v, R, geom) for R in (0.0, 5.0, 50.0, 500.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_large_parameter_stays_finite_in_log_space():
    geom = interval_geom()
    v = cutoff_bump_sampler(geom)(np.random.default_rng(1))
    lg = log_weighted_l2(v, 1e8, geom)
    assert np.isfinite(lg)  # exp would overflow; log-space value must not


def test_ratio_zero_field_contract():
    geom = interval_geom()
    op = model_operator_1d(geom.grid)
    rep = carleman_ratio(op, Perturbation.zero(), geom.grid.zeros(), 10.0, geom)
    assert rep.log_lhs == rep.log_rhs == -math.inf
    assert math.isnan(rep.ratio)


def test_log_weighted_l2_matches_scipy_logsumexp():
    # the log-sum-exp runs over the slice masses, with scipy's arithmetic
    special = pytest.importorskip("scipy.special")
    for geom in (interval_geom(), CarlemanGeometry.annulus(0.5, 33, 16)):
        sampler = cutoff_bump_sampler(geom)
        for i, R in enumerate((0.0, 10.0, 1e4, 1e8)):
            v = sampler(np.random.default_rng(i))
            dens = geom.grid.quad_weights() * fiber_norm2(v.values)
            mass = dens.reshape(geom.grid.n, -1).sum(axis=1)
            mask = mass > 0.0
            expo = R * (geom.T - geom.grid.t) ** 2
            want = float(special.logsumexp(expo[mask], b=mass[mask]))
            assert log_weighted_l2(v, R, geom) == want


def per_point_log_weighted_l2(v, R, geom):
    """The per-point formula: log-sum-exp over every grid point's density."""
    special = pytest.importorskip("scipy.special")
    dens = geom.grid.quad_weights() * np.sum(np.abs(v.values) ** 2, axis=-1)
    expo = np.broadcast_to(R * geom.normal_profile(dens.ndim) ** 2, dens.shape)
    mask = dens > 0.0
    return float(special.logsumexp(expo[mask], b=dens[mask])) if mask.any() else -math.inf


def test_log_weighted_l2_matches_per_point_formula():
    rng = np.random.default_rng(7)
    for geom in (interval_geom(), CarlemanGeometry.annulus(0.5, 33, 16)):
        grid = geom.grid
        noise = rng.standard_normal(grid.zeros().values.shape)
        patchy = noise * (np.arange(grid.n) % 3 == 1).reshape((-1,) + (1,) * (noise.ndim - 1))
        if isinstance(grid, AnnulusGrid):
            patchy[1, ::2] = 0.0       # a slice that vanishes only in part
        fields = [cutoff_bump_sampler(geom)(np.random.default_rng(i)) for i in range(3)]
        fields.append(SpinorField(grid, patchy))   # zero on two slices in three
        for v in fields:
            for R in (0.0, 10.0, 1e4, 1e8):
                want = per_point_log_weighted_l2(v, R, geom)
                got = log_weighted_l2(v, R, geom)
                assert abs(got - want) <= 1e-14 * abs(want), (R, got, want)
        for R in (0.0, 10.0, 1e4, 1e8):
            assert log_weighted_l2(grid.zeros(), R, geom) == -math.inf
            assert per_point_log_weighted_l2(grid.zeros(), R, geom) == -math.inf


def old_log_weighted_mass(mag2, R, geom):
    """Oracle: the weighted mass with its largest exponent found by np.max and
    the slices at it by a mask, as before the lone-first-maximum shortcut."""
    dens = geom.grid.quad_weights() * mag2
    mass = np.sum(dens, axis=tuple(range(1, dens.ndim)))
    mask = mass > 0.0
    if not mask.any():
        return -math.inf
    a, b = R * ((geom.T - geom.grid.t) ** 2)[mask], mass[mask]
    a_max = np.max(a)
    at_max = a == a_max
    m = np.sum(b * at_max)
    terms = b * np.exp(a - a_max)
    terms[at_max] = 0.0
    return float(np.log1p(np.sum(terms) / m) + np.log(m) + a_max)


def old_sampler(geom, outer=False):
    """Oracle: the sampler body with the 1-D field formed by broadcasting, or
    with outer by np.multiply.outer(profile, direction)."""
    grid, T, t = geom.grid, geom.T, geom.grid.t
    envelope = bump_cutoff(geom, t) * smoothstep(t / (0.15 * T))

    def sample(rng):
        profile = np.zeros(grid.n)
        for _ in range(int(rng.integers(1, 4))):
            mu = rng.uniform(0.25 * T, 0.65 * T)
            sig = rng.uniform(T / 14.0, T / 7.0)
            profile += rng.uniform(0.3, 1.0) * np.exp(-((t - mu) ** 2) / (2.0 * sig ** 2))
        profile *= envelope
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        if isinstance(grid, AnnulusGrid):
            angular = np.exp(1j * int(rng.integers(0, 4)) * grid.theta)
            return profile[:, None, None] * angular[None, :, None] * direction
        return np.multiply.outer(profile, direction) if outer else profile[:, None] * direction

    return sample


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


ORACLE_GEOMS = ((0.1, 257, None), (0.1, 2049, None), (0.5, 129, 64))


@pytest.mark.parametrize("T,n_t,n_theta", ORACLE_GEOMS)
def test_sampler_and_weighted_mass_keep_the_old_bits(T, n_t, n_theta):
    """The transposed outer-product field, C-contiguous, and the one-pass mass
    equal the old forms (broadcasting, and multiply.outer(profile, direction))
    bit for bit, at every R of the sweeps and at R = 0."""
    geom = (CarlemanGeometry.interval(T, n_t) if n_theta is None
            else CarlemanGeometry.annulus(T, n_t, n_theta))
    new, olds = cutoff_bump_sampler(geom), (old_sampler(geom), old_sampler(geom, outer=True))
    for i_s in range(6):
        key = np.random.SeedSequence([3, 1, i_s])
        v = new(np.random.Generator(np.random.Philox(key)))
        assert v.values.flags.c_contiguous
        for old in olds:
            want = old(np.random.Generator(np.random.Philox(key)))
            assert np.array_equal(bits(v.values.view(float)), bits(want.view(float)))
        mag2 = fiber_norm2(v.values)
        for R in (0.0, 5e-324, 10.0, 100.0, 1e3, 1e5, 1e7, 1e8):
            got = log_weighted_l2(v, R, geom)
            assert bits(got) == bits(old_log_weighted_mass(mag2, R, geom)), R


@pytest.mark.parametrize("T,n_t,n_theta", ORACLE_GEOMS)
def test_weighted_mass_edge_supports_keep_the_old_bits(T, n_t, n_theta):
    """All zero (-inf), R = 0 and a subnormal R (every exponent tied), a
    support that starts mid-grid, and a single slice."""
    geom = (CarlemanGeometry.interval(T, n_t) if n_theta is None
            else CarlemanGeometry.annulus(T, n_t, n_theta))
    rng = np.random.default_rng(n_t)
    shape = geom.grid.shape
    zero = np.zeros(shape)
    mid = rng.uniform(0.1, 2.0, shape)
    mid[:n_t // 2 + 1] = 0.0
    single = np.zeros(shape)
    single[n_t // 3] = rng.uniform(0.1, 2.0, shape[1:])
    last = np.zeros(shape)
    last[-1] = 1.0                     # the one slice where the exponent is 0
    for R in (0.0, 5e-324, 10.0, 1e5, 1e8):
        assert _log_weighted_mass(zero, R, geom) == -math.inf
        for mag2 in (mid, single, last):
            got = _log_weighted_mass(mag2, R, geom)
            assert bits(got) == bits(old_log_weighted_mass(mag2, R, geom)), R


def test_import_leaves_scipy_special_unloaded():
    src = str(Path(ucp_lab.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import ucp_lab; "
             "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_ratio_support_violation():
    geom = interval_geom()
    op = model_operator_1d(geom.grid)
    vals = np.ones((geom.grid.n, 2), dtype=complex)
    with pytest.raises(SupportConditionError):
        carleman_ratio(op, Perturbation.zero(), SpinorField(geom.grid, vals), 10.0, geom)


def test_ratio_bounded_for_cutoff_gaussian_across_R():
    geom = interval_geom(n=2049)
    op = model_operator_1d(geom.grid)
    grid = geom.grid
    T = geom.T
    # cutoff Gaussian, collared so the field vanishes at the inner slice too
    from ucp_lab.carleman import smoothstep
    prof = (np.exp(-((grid.t - 0.45 * T) ** 2) / (2 * (T / 9) ** 2))
            * bump_cutoff(geom, grid.t) * smoothstep(grid.t / (0.15 * T)))
    vals = np.zeros((grid.n, 2), dtype=complex)
    vals[:, 0] = prof
    v = SpinorField(grid, vals)
    ratios = [carleman_ratio(op, Perturbation.zero(), v, R, geom).ratio
              for R in (10.0, 100.0, 1000.0)]
    assert all(np.isfinite(r) for r in ratios)
    assert max(ratios) < 1.0  # bounded above by an R-independent constant


def test_ratio_invariant_under_unit_modulus_scaling():
    geom = interval_geom()
    op = model_operator_1d(geom.grid)
    v = cutoff_bump_sampler(geom)(np.random.default_rng(3))
    r1 = carleman_ratio(op, Perturbation.zero(), v, 50.0, geom).ratio
    r2 = carleman_ratio(op, Perturbation.zero(), v * np.exp(0.7j), 50.0, geom).ratio
    assert abs(r1 - r2) <= 1e-14 * abs(r1)


def test_violation_flagged_never_silently_passed():
    """An operator with cl(dt) = 0 has D v = 0: the ratio of a nonzero field
    is inf, with a finite weighted mass of v."""
    geom = interval_geom()
    op = model_operator_1d(geom.grid)
    flat = DiracOperator(geom.grid, np.zeros_like(op.cl_dt), op.B, op.C)
    v = cutoff_bump_sampler(geom)(np.random.default_rng(4))
    rep = carleman_ratio(flat, Perturbation.zero(), v, 10.0, geom)
    assert rep.ratio == math.inf and math.isfinite(rep.log_lhs)
    assert rep.log_rhs == -math.inf


def test_perturbed_ratio_zero_kind_matches_unperturbed():
    geom = interval_geom()
    op = model_operator_1d(geom.grid)
    v = cutoff_bump_sampler(geom)(np.random.default_rng(5))
    rep = carleman_ratio(op, Perturbation.zero(), v, 100.0, geom)
    assert rep.log_rhs == log_weighted_l2(dirac_apply(op, v), 100.0, geom)
    assert rep.c0 is None  # no admissibility call for the zero kind


@pytest.mark.parametrize("R", [10.0, 1e3])
@pytest.mark.parametrize("shape", ["interval", "annulus"])
def test_zero_perturbation_ratio_is_the_unperturbed_quotient(shape, R):
    """With P = 0 the ratio is R exp(log||v||_w^2 - log||D v||_w^2) bit for
    bit, on the interval and on the 129 x 64 annulus."""
    if shape == "interval":
        geom = interval_geom(n=2049)
        op = model_operator_1d(geom.grid)
    else:
        geom = CarlemanGeometry.annulus(0.5, 129, 64)
        op = annulus_operator(geom.grid)
    v = cutoff_bump_sampler(geom)(np.random.default_rng(12))
    rep = carleman_ratio(op, Perturbation.zero(), v, R, geom)
    expected = R * math.exp(log_weighted_l2(v, R, geom)
                            - log_weighted_l2(dirac_apply(op, v), R, geom))
    assert math.isfinite(expected)
    assert rep.ratio == expected and rep.c0 is None


def test_perturbed_ratio_pointwise_bounded_over_sweep():
    geom = interval_geom()
    op = model_operator_1d(geom.grid)
    P = unit_pointwise(geom)
    v = cutoff_bump_sampler(geom)(np.random.default_rng(6))
    ratios = [carleman_ratio(op, P, v, R, geom).ratio
              for R in (10.0, 100.0, 1000.0)]
    assert all(np.isfinite(r) for r in ratios) and max(ratios) < 1.0


def test_perturbed_ratio_rank_one_without_conditions_raises():
    geom = interval_geom()
    op = model_operator_1d(geom.grid)
    grid = geom.grid
    a = np.zeros((grid.n, 2), dtype=complex)
    a[:, 0] = 1.0  # supported everywhere, in particular where samples vanish
    P = Perturbation.rank_one(SpinorField(grid, a))
    v = cutoff_bump_sampler(geom)(np.random.default_rng(7))
    with pytest.raises(NonAdmissibleError):
        carleman_ratio(op, P, v, 100.0, geom)


def test_constant_sweep_determinism():
    geom = interval_geom(n=513)
    op = model_operator_1d(geom.grid)
    sampler = cutoff_bump_sampler(geom)
    grid_R = np.logspace(1, 3, 4)
    one = constant_sweep(op, sampler, grid_R, geom, n_samples=4, seed=9)
    two = constant_sweep(op, sampler, grid_R, geom, n_samples=4, seed=9)
    assert np.array_equal(one.estimates, two.estimates)
    # each estimate is the ratio of the report kept for its R
    for est, rep in zip(one.estimates, one.reports):
        assert not np.isfinite(est) or est == rep.ratio


def test_constant_sweep_empty_samples():
    geom = interval_geom(n=257)
    op = model_operator_1d(geom.grid)
    sampler = cutoff_bump_sampler(geom)
    with pytest.raises(ValueError):
        constant_sweep(op, sampler, [10.0, 100.0, 1000.0], geom, n_samples=0, seed=0)


def test_constant_sweep_degenerate_flag():
    geom = interval_geom(n=257)
    op = model_operator_1d(geom.grid)
    zero_sampler = lambda rng: geom.grid.zeros()
    sweep = constant_sweep(op, zero_sampler, np.logspace(1, 3, 3), geom, n_samples=3,
                           seed=0)
    assert sweep.degenerate
    assert math.isnan(sweep.spread)


def test_annulus_ratio_and_sweep():
    geom = CarlemanGeometry.annulus(0.1, 65, 16)
    op = annulus_operator(geom.grid)
    sampler = cutoff_bump_sampler(geom)
    v = sampler(np.random.default_rng(8))
    rep = carleman_ratio(op, Perturbation.zero(), v, 100.0, geom)
    assert np.isfinite(rep.ratio) and rep.ratio > 0.0
    sweep = constant_sweep(op, sampler, np.logspace(1, 3, 3), geom, n_samples=4,
                           seed=2)
    assert np.all(np.isfinite(sweep.estimates))


def test_annulus_operator_memory_and_large_sweep():
    """Structured storage is O(n_t n_theta); a 513 x 256 sweep completes."""
    n_t, n_theta = 257, 128
    op = annulus_operator(CarlemanGeometry.annulus(0.5, n_t, n_theta).grid)
    assert op.B.nbytes + op.C.nbytes <= 2 * n_t * n_theta * 4 * 16

    geom = CarlemanGeometry.annulus(0.5, 513, 256)
    op = annulus_operator(geom.grid)
    sweep = constant_sweep(op, cutoff_bump_sampler(geom), np.logspace(1, 3, 3), geom,
                           n_samples=1, seed=0)
    assert np.all(np.isfinite(sweep.estimates)) and np.all(sweep.estimates > 0.0)


def test_constant_sweep_double_horizon_still_finite():
    geom = CarlemanGeometry.interval(0.2, 1025)
    op = model_operator_1d(geom.grid)
    sampler = cutoff_bump_sampler(geom)
    sweep = constant_sweep(op, sampler, np.logspace(1, 3, 4), geom, n_samples=6, seed=1)
    assert np.all(np.isfinite(sweep.estimates))


# ---------------------------------------------------------------------------
# decay bound


def test_decay_zero_solution_trivially_passes():
    geom = interval_geom(n=2049)
    op = model_operator_1d(geom.grid)
    u = geom.grid.zeros()
    rep = ucp_decay_check(op, Perturbation.zero(), u, np.logspace(5, 7, 5), geom, seed=0)
    assert rep.passed and rep.measured == 0.0


def test_decay_seeded_solution_slope_and_bound():
    geom = interval_geom(n=2049)
    op = model_operator_1d(geom.grid)
    u = integrate_zero_data(op, Perturbation.zero(),
                            u0=np.array([1e-12, 0.0], dtype=complex))
    rep = ucp_decay_check(op, Perturbation.zero(), u, np.logspace(5, 7, 7), geom, seed=0)
    assert rep.cutoff_integral > 0.0
    assert rep.measured < 1e-20
    assert rep.passed
    assert rep.slope_rel_dev < 0.01
    assert abs(rep.analytic_slope + 0.21 * geom.T ** 2) < 1e-15


def test_decay_precondition_errors():
    geom = interval_geom(n=513)
    op = model_operator_1d(geom.grid)
    bad = SpinorField(geom.grid, np.ones((geom.grid.n, 2), dtype=complex))
    with pytest.raises(PreconditionError):
        ucp_decay_check(op, Perturbation.zero(), bad, [1e5, 1e6], geom, seed=0)
    # a NaN residual is not below 1e-8 either: no report of NaN constants
    nan = np.zeros((geom.grid.n, 2), dtype=complex)
    nan[5:, 0] = np.nan
    with pytest.raises(PreconditionError, match="residual nan"):
        ucp_decay_check(op, Perturbation.zero(), SpinorField(geom.grid, nan), [1e5, 1e6], geom,
                        seed=0)


def test_decay_inconclusive_below_crossover():
    geom = interval_geom(n=513)
    op = model_operator_1d(geom.grid)
    u = geom.grid.zeros()
    rep = ucp_decay_check(op, unit_pointwise(geom), u, [10.0, 20.0, 40.0], geom, seed=0)
    # crossover = 2 C C0^2 with C0 = 0 for the zero field keeps rows conclusive;
    # an empty grid leaves no conclusive row
    assert rep.crossover == 0.0
    assert all(r.conclusive for r in rep.rows)
    rep2 = ucp_decay_check(op, Perturbation.zero(), u, [], geom, seed=0)
    assert rep2.inconclusive


def test_decay_crossover_absorbs_c0_squared():
    """Absorbing |P v| <= c0 |v| through (a + b)^2 <= 2a^2 + 2b^2 gives
    (R - 2 C c0^2) ||v||^2 <= 2 C ||(D + P) v||^2: a row is conclusive
    exactly when R > 2 C c0^2."""
    geom = interval_geom(n=513)
    op = model_operator_1d(geom.grid)
    P = Perturbation.matrix_field(geom.grid.zeros(),
                                  30.0 * np.broadcast_to(np.eye(2), (geom.grid.n, 2, 2)))
    u = integrate_zero_data(op, P, u0=np.array([1e-12, 0.0], dtype=complex))
    rep = ucp_decay_check(op, P, u, np.logspace(1, 5, 9), geom, seed=1)
    assert abs(rep.c0 - 30.0) < 1e-9
    assert [r.conclusive for r in rep.rows] == [
        r.R > 2.0 * rep.constant * rep.c0 ** 2 for r in rep.rows]
    assert not rep.rows[0].conclusive and rep.rows[-1].conclusive


# ---------------------------------------------------------------------------
# J-term decomposition


def test_appendix_zero_field():
    geom = interval_geom(n=257)
    op = model_operator_1d(geom.grid)
    rec = appendix_decomposition(op, Perturbation.zero(), geom.grid.zeros(), 50.0, geom)
    assert rec.j0 == rec.j1 == rec.j_skew == rec.j_sym == rec.j_mix == 0.0
    assert rec.j3 == 0.0 and rec.j_err == 0.0


def test_appendix_identity_on_random_inputs():
    geom = interval_geom(n=1025)
    op = model_operator_1d(geom.grid)
    sampler = cutoff_bump_sampler(geom)
    P = unit_pointwise(geom)
    rng = np.random.default_rng(12)
    for _ in range(10):
        v = sampler(rng)
        R = float(rng.uniform(10.0, 200.0))
        rec = appendix_decomposition(op, P, v, R, geom)
        assert rec.identity_defect < 1e-10


def test_appendix_constant_coefficient_mix_residual_converges():
    defects, hs = [], []
    v_rng_seed = 21
    for n in (257, 513, 1025, 2049):
        geom = CarlemanGeometry.interval(0.1, n)
        op = constant_operator_1d(geom.grid)
        v = cutoff_bump_sampler(geom)(np.random.default_rng(v_rng_seed))
        rec = appendix_decomposition(op, Perturbation.zero(), v, 50.0, geom)
        assert rec.j3 == 0.0  # dB/dt = 0 and [B, C] = 0 exactly
        defects.append(abs(rec.mix_residual))
        hs.append(geom.grid.spacing)
    slope = np.polyfit(np.log(hs), np.log(defects), 1)[0]
    assert slope >= 1.9


def test_appendix_overflow_raises_typed_error():
    """At T = 0.1 the direct exponentials overflow the J-terms between
    R = 7e4 (finite, identity holds) and R = 1e5 (j1 = inf)."""
    geom = interval_geom(n=1025)
    op = model_operator_1d(geom.grid)
    v = cutoff_bump_sampler(geom)(np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = appendix_decomposition(op, Perturbation.zero(), v, 7e4, geom)
        assert rec.identity_defect <= 1e-10
        with pytest.raises(PreconditionError, match=r"R T\^2"):
            appendix_decomposition(op, Perturbation.zero(), v, 1e5, geom)


def test_appendix_identity_on_annulus_operator():
    geom = CarlemanGeometry.annulus(0.1, 33, 12)
    from ucp_lab.operators import annulus_operator
    op = annulus_operator(geom.grid)
    v = cutoff_bump_sampler(geom)(np.random.default_rng(6))
    rec = appendix_decomposition(op, Perturbation.zero(), v, 50.0, geom)
    assert rec.identity_defect < 1e-10
    assert rec.j0 > 0.0
