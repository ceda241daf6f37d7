import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucp_lab import torus as tw
from ucp_lab.checkpoint import load_checkpoint, save_checkpoint
from ucp_lab.errors import DomainMismatchError, FlowInstabilityError
from ucp_lab.fields import l2_inner
from ucp_lab.perturbations import admissibility_bound


@pytest.fixture(scope="module")
def lat2():
    return tw.TorusLattice(2)


@pytest.fixture(scope="module")
def params2(lat2):
    return tw.default_params(lat2)


def rng_for(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def flat_params(lat, n_tau=2, n_zeta=2, n_eta=2):
    """Perturbation data whose functions vanish with zero gradient at 0."""
    shipped = tw.default_params(lat)
    p1 = tw.SeparableFunction(n_tau, [])
    p2 = tw.SeparableFunction(n_zeta, [])
    p3 = tw.SeparableFunction(n_eta, [])
    return tw.PerturbationParams(shipped.mus[:n_tau], shipped.nus[:n_zeta],
                                 shipped.spinor_basis[:n_eta], shipped.eigenvalues[:n_eta],
                                 p1, p2, p3, shipped.epsilons, shipped.winding_shift)


# ---------------------------------------------------------------------------
# Dirac operator


def test_dirac_flat_kernel(lat2):
    cfg = tw.SWConfiguration.zero(lat2)
    cfg.psi[0] = 1.0  # constant spinor
    assert np.max(np.abs(tw.dirac3(cfg))) < 1e-14


def test_dirac_plane_wave_eigenrelation(lat2):
    k = np.array([1.0, -2.0, 0.0])
    symbol = -sum(k[j] * (-1j * tw._GEN[j]) for j in range(3))
    vals, vecs = np.linalg.eigh(symbol)
    phase = np.exp(1j * np.tensordot(k, lat2.x, axes=(0, 0)))
    for which in (0, 1):
        s = vecs[:, which]
        cfg = tw.SWConfiguration(lat2, np.zeros((3,) + (lat2.n,) * 3),
                                 s[:, None, None, None] * phase[None])
        out = tw.dirac3(cfg)
        assert np.max(np.abs(out - vals[which] * cfg.psi)) < 1e-10
        assert abs(abs(vals[which]) - np.linalg.norm(k)) < 1e-12


def test_dirac_self_adjoint_for_imaginary_connection(lat2):
    rng = rng_for(1)
    cfg = tw.random_config(lat2, rng, amplitude=0.7)
    psi2 = (rng.standard_normal(cfg.psi.shape)
            + 1j * rng.standard_normal(cfg.psi.shape))
    d1 = tw.dirac3(cfg)
    cfg2 = tw.SWConfiguration(lat2, cfg.alpha, psi2)
    d2 = tw.dirac3(cfg2)
    lhs = np.sum(d1 * np.conj(psi2)) * lat2.volume_element
    rhs = np.sum(cfg.psi * np.conj(d2)) * lat2.volume_element
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# residual against an independent dense spectral assembly


def _dense_derivative(lat, axis):
    """DFT-based dense derivative matrix on the flattened grid (oracle path)."""
    n = lat.n
    F = np.fft.fft(np.eye(n), axis=0)
    Finv = np.fft.ifft(np.eye(n), axis=0)
    k = np.fft.fftfreq(n, 1.0 / n)
    D1 = Finv @ (1j * np.diag(k)) @ F
    mats = [np.eye(n)] * 3
    mats[axis] = D1
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


def test_sw_residual_zero_and_dense_oracle(lat2):
    zero = tw.SWConfiguration.zero(lat2)
    assert tw.evaluate(zero, None, "unperturbed").residuals == (0.0, 0.0)

    rng = rng_for(2)
    cfg = tw.random_config(lat2, rng, amplitude=0.4)
    D = [_dense_derivative(lat2, ax) for ax in range(3)]
    flat_a = cfg.alpha.reshape(3, -1)
    curl_flat = np.stack([
        (D[1] @ flat_a[2] - D[2] @ flat_a[1]).real,
        (D[2] @ flat_a[0] - D[0] @ flat_a[2]).real,
        (D[0] @ flat_a[1] - D[1] @ flat_a[0]).real,
    ])
    sig = tw.sigma_polarized(cfg.psi, cfg.psi).reshape(3, -1)
    r1_oracle = math.sqrt(np.sum((curl_flat - sig) ** 2) * lat2.volume_element)

    flat_psi = cfg.psi.reshape(2, -1)
    dpsi = np.zeros_like(flat_psi)
    diag_a = [cfg.alpha[j].reshape(-1) for j in range(3)]
    for j in range(3):
        v = (D[j] @ flat_psi.T).T + 0.5j * diag_a[j][None, :] * flat_psi
        dpsi += tw._GEN[j] @ v
    r2_oracle = math.sqrt(np.sum(np.abs(dpsi) ** 2) * lat2.volume_element)

    r1, r2 = tw.evaluate(cfg, None, "unperturbed").residuals
    assert abs(r1 - r1_oracle) < 1e-10 * max(1.0, r1_oracle)
    assert abs(r2 - r2_oracle) < 1e-10 * max(1.0, r2_oracle)


# ---------------------------------------------------------------------------
# observables and gauge behaviour


def test_observables_vanish_at_zero(lat2, params2):
    obs = tw.observables(tw.SWConfiguration.zero(lat2), params2)
    assert np.all(obs.tau == 0.0) and np.all(obs.zeta == 0.0)
    assert np.all(obs.eta == 0.0)


def test_tau_constant_form_quadrature_oracle(lat2, params2):
    c = 0.37
    cfg = tw.SWConfiguration.zero(lat2)
    cfg.alpha[0] += c
    obs = tw.observables(cfg, params2)
    # direct position-space quadrature of -(alpha . m_1)
    oracle = -np.sum(cfg.alpha * params2.mus[0]) * lat2.volume_element
    assert abs(obs.tau[0] - oracle) < 1e-12
    assert abs(obs.tau[0] + c * (2 * np.pi) ** 3) < 1e-9


def test_taus_match_the_per_form_loop(lat2, params2):
    for amplitude in (0.1, 1.0, 10.0):
        cfg = tw.random_config(lat2, rng_for(42, int(amplitude)), amplitude)
        want = np.array([-float(np.sum(cfg.alpha * m)) * lat2.volume_element
                         for m in params2.mus])
        got = tw.observables(cfg, params2).tau
        assert np.all(np.abs(got - want) <= 1e-14 * np.max(np.abs(want)))


def test_zeta_real_valued(lat2, params2):
    cfg = tw.random_config(lat2, rng_for(3), amplitude=0.8)
    raw = tw.zeta_pairings(cfg, params2.nus)
    assert np.max(np.abs(raw.imag)) < 1e-12


def test_gauge_identity(lat2):
    cfg = tw.random_config(lat2, rng_for(4), amplitude=0.5)
    same = tw.gauge_apply(cfg, np.zeros(lat2.shape))
    assert np.array_equal(same.alpha, cfg.alpha)
    assert np.array_equal(same.psi, cfg.psi)


def test_gauge_invariances_and_winding_shift(lat2, params2):
    rng = rng_for(5)
    cfg = tw.random_config(lat2, rng, amplitude=0.5)
    obs = tw.observables(cfg, params2)

    f = rng.standard_normal((lat2.n,) * 3)
    f -= f.mean()
    full = tw.gauge_apply(cfg, f=f, winding=(1, 0, 0))
    obs_full = tw.observables(full, params2)
    assert np.max(np.abs(obs_full.zeta - obs.zeta)) < 1e-10

    meanzero = tw.gauge_apply(cfg, f=f)
    obs_h = tw.observables(meanzero, params2)
    assert np.max(np.abs(obs_h.eta - obs.eta)) < 1e-8

    shift = obs_full.tau - obs.tau
    oracle = np.array([2.0 * np.sum(m[0]) * lat2.volume_element for m in params2.mus])
    assert np.max(np.abs(shift - oracle)) < 1e-8
    assert abs(shift[0] - params2.winding_shift) < 1e-8


@pytest.mark.parametrize("winding", [(1.5, 0, 0), (0, 0, -1e-9), (np.inf, 0, 0)])
def test_gauge_refuses_non_integral_winding(lat2, winding):
    """exp(i w.x) is single-valued only for integer w: 1.5 is not truncated to 1."""
    cfg = tw.random_config(lat2, rng_for(41), amplitude=0.5)
    with pytest.raises(ValueError, match="not integral"):
        tw.gauge_apply(cfg, np.zeros(lat2.shape), winding)


@pytest.mark.parametrize("f_shape, winding", [((5, 5, 5), (1, 0)), ((5, 5, 5), (1, 0, 0, 0)),
                                              ((2, 5, 5), (1, 0, 0)), ((), (1, 0, 0))],
                         ids=["winding-2", "winding-4", "f-short", "f-scalar"])
def test_gauge_refuses_wrong_shapes_by_type(lat2, f_shape, winding):
    cfg = tw.random_config(lat2, rng_for(42), amplitude=0.5)
    with pytest.raises(DomainMismatchError, match="gauge_apply"):
        tw.gauge_apply(cfg, np.zeros(f_shape), winding)


@pytest.mark.parametrize("N", [2.7, 0, -1, 1.0 + 1e-12, np.nan, np.inf])
def test_lattice_refuses_non_integral_or_small_N(N):
    """TorusLattice(2.7) would otherwise build N = 2."""
    with pytest.raises(ValueError, match="integer N >= 1"):
        tw.TorusLattice(N)
    assert tw.TorusLattice(2.0).N == 2 and tw.TorusLattice(np.int64(3)).n == 7


def test_csd_gauge_invariant_without_winding():
    # gauge products must stay inside the resolved band: fields band-limited
    # with enough margin for the harmonics of exp(i f)
    lat = tw.TorusLattice(12)
    rng = rng_for(6)
    cfg = tw.random_config(lat, rng, amplitude=0.4)

    keep = np.abs(np.fft.fftfreq(lat.n, 1.0 / lat.n)) <= 2
    mask, axes = keep[:, None, None] & keep[:, None] & keep, (-3, -2, -1)

    def bandlimit(field):
        out = np.fft.ifftn(np.fft.fftn(field, axes=axes) * mask, axes=axes)
        return out.real if np.isrealobj(field) else out

    cfg = tw.SWConfiguration(lat, bandlimit(cfg.alpha), bandlimit(cfg.psi))
    f = 0.3 * np.cos(lat.x[0]) + 0.15 * np.sin(lat.x[1])
    base = tw.csd(cfg, None, "unperturbed")
    gauged = tw.csd(tw.gauge_apply(cfg, f=f), None, "unperturbed")
    assert abs(base - gauged) < 1e-10 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# functional values


def test_csd_zero_and_harmonic(lat2):
    assert tw.csd(tw.SWConfiguration.zero(lat2), None, "unperturbed") == 0.0
    cfg = tw.SWConfiguration.zero(lat2)
    cfg.alpha[1] += 0.9  # harmonic: curl-free, psi = 0
    assert abs(tw.csd(cfg, None, "unperturbed")) < 1e-13


def test_csd_real_and_matches_dense_quadrature(lat2, params2):
    cfg = tw.random_config(lat2, rng_for(7), amplitude=0.4)
    D = [_dense_derivative(lat2, ax) for ax in range(3)]
    flat_a = cfg.alpha.reshape(3, -1)
    curl_flat = np.stack([
        (D[1] @ flat_a[2] - D[2] @ flat_a[1]).real,
        (D[2] @ flat_a[0] - D[0] @ flat_a[2]).real,
        (D[0] @ flat_a[1] - D[1] @ flat_a[0]).real,
    ])
    cs = 0.5 * np.sum(flat_a * curl_flat) * lat2.volume_element
    flat_psi = cfg.psi.reshape(2, -1)
    dpsi = np.zeros_like(flat_psi)
    for j in range(3):
        v = (D[j] @ flat_psi.T).T + 0.5j * cfg.alpha[j].reshape(-1)[None, :] * flat_psi
        dpsi += tw._GEN[j] @ v
    dirac_term = np.sum(flat_psi * np.conj(dpsi)).real * lat2.volume_element
    oracle = cs + dirac_term
    assert abs(tw.csd(cfg, None, "unperturbed") - oracle) < 1e-10 * max(1.0, abs(oracle))


def _physical_rows_value(cfg, params, case):
    """Oracle: the value from the physical rows, 1/2 <alpha, curl alpha> +
    Re<psi, D psi>, plus the perturbation functions of the observables."""
    lat, dv = cfg.lattice, cfg.lattice.volume_element
    dp = tw.dirac3(cfg)
    value = (0.5 * float(np.vdot(cfg.alpha, lat.curl(cfg.alpha))) * dv
             + float(np.vdot(dp, cfg.psi).real) * dv)
    if case != "unperturbed":
        obs = tw.observables(cfg, params)
        value += params.p1.value(obs.tau) + params.p2.value(obs.zeta)
        if case == "case2":
            value += params.p3.value(np.abs(obs.eta) ** 2)
    return value


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("case", tw._CASES)
def test_parseval_value_matches_the_physical_rows(N, case):
    """csd's value, which reads Re<psi, cl(alpha) psi / 2> as -<alpha, sigma>,
    against the value summed from the rows dirac3 and curl."""
    lat = tw.TorusLattice(N)
    params = tw.default_params(lat)
    assert tw.csd(tw.SWConfiguration.zero(lat), None, "unperturbed") == 0.0
    for amplitude in (0.05, 0.3, 1.0):
        cfg = tw.random_config(lat, rng_for(41, N, int(100 * amplitude)), amplitude)
        want = _physical_rows_value(cfg, params, case)
        assert abs(tw.csd(cfg, params, case) - want) <= 1e-13 * abs(want)


# ---------------------------------------------------------------------------
# gradients


def test_grad_zero_config_with_flat_functions(lat2):
    params = flat_params(lat2)
    for case in ("unperturbed", "case1", "case2"):
        g = tw.grad_csd(tw.SWConfiguration.zero(lat2), params, case)
        assert np.max(np.abs(g.alpha)) == 0.0
        assert np.max(np.abs(g.phi)) == 0.0


@pytest.mark.parametrize("case", ["unperturbed", "case1", "case2"])
def test_gradient_finite_difference_orders(lat2, params2, case):
    hs = np.array([1e-2, 1e-3, 1e-4])
    for i in range(3):
        rng = rng_for(8, i)
        cfg = tw.random_config(lat2, rng, amplitude=0.3)
        direction = tw.random_tangent(lat2, rng)
        pair = tw.tangent_inner(tw.grad_csd(cfg, params2, case), direction, lat2)
        errs = []
        for h in hs:
            num = (tw.csd(cfg.shifted(direction, h), params2, case)
                   - tw.csd(cfg.shifted(direction, -h), params2, case)) / (2 * h)
            errs.append(abs(num - pair) / max(abs(pair), 1e-30))
        order = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]
        assert order >= 1.9


def test_grad_linear_tau_slot_shifts_by_basis_form(lat2):
    params = flat_params(lat2, n_tau=3)
    p1 = tw.SeparableFunction(3, [("tanh", 0, 1.0, 0.05, 0.0)])   # tau_0 is about -27
    params_p1 = tw.PerturbationParams(params.mus, params.nus, params.spinor_basis,
                                      params.eigenvalues, p1, params.p2,
                                      params.p3, params.epsilons,
                                      params.winding_shift)
    cfg = tw.random_config(lat2, rng_for(9), amplitude=0.4)
    base = tw.grad_csd(cfg, params, "case1")
    shifted = tw.grad_csd(cfg, params_p1, "case1")
    slope = p1.grad(tw.observables(cfg, params).tau)[0]
    assert 0.0 < slope < 1.0
    assert np.max(np.abs((shifted.alpha - base.alpha) + slope * params.mus[0])) < 1e-14
    assert np.max(np.abs(shifted.phi - base.phi)) == 0.0


# ---------------------------------------------------------------------------
# parameter data invariants


def test_basis_forms_are_coclosed(lat2, params2):
    for m in params2.mus:
        assert np.max(np.abs(lat2.divergence(m))) < 1e-12


def test_first_three_forms_harmonic(lat2, params2):
    for m in params2.mus[:3]:
        assert np.max(np.abs(lat2.curl(m))) < 1e-14
        assert np.max(np.abs(lat2.divergence(m))) < 1e-14


def test_eigenspinor_basis_invariants(lat2, params2):
    zero = tw.SWConfiguration.zero(lat2)
    for chi, lam in zip(params2.spinor_basis, params2.eigenvalues):
        cfg = tw.SWConfiguration(lat2, zero.alpha, chi)
        res = tw.dirac3(cfg) - lam * chi
        assert np.max(np.abs(res)) < 1e-12
    L = params2.spinor_basis.shape[0]
    for i in range(L):
        for j in range(L):
            inner = np.sum(params2.spinor_basis[i]
                           * np.conj(params2.spinor_basis[j])) * lat2.volume_element
            target = 1.0 if i == j else 0.0
            assert abs(inner - target) < 1e-12


def test_shipped_p3_is_tanh_of_eta_modulus_squared(params2):
    """p3 is the separable sum_l c_l tanh(s_l) of s_l = |eta_l|^2, its
    coefficients the stream draw that followed p1 and p2, and its Wirtinger
    derivative by the chain rule dp3/ds_l conj(eta_l) equals the closed form
    c_l sech^2(|eta_l|^2) conj(eta_l) bit for bit (sech^2 = 1 - tanh^2)."""
    p3 = params2.p3
    assert [t[:2] + t[3:] for t in p3.terms] == [("tanh", l, 1.0, 0.0) for l in range(4)]
    stream = np.random.Generator(np.random.Philox(np.random.SeedSequence([7])))
    stream.uniform(size=14)     # the draws of p1 (8) and p2 (6) before it
    c = np.array([t[2] for t in p3.terms])
    assert np.array_equal(c, stream.uniform(0.1, 0.3, size=4))
    rng = rng_for(33)
    for scale in (0.1, 1.0, 3.0):
        eta = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        s = np.abs(eta) ** 2
        assert p3.value(s) == float(np.sum(c * np.tanh(s)))
        want = c * (1.0 - np.tanh(s) ** 2) * np.conj(eta)
        got = p3.grad(s) * np.conj(eta)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_p1_periodic_under_measured_winding_shift(lat2, params2):
    rng = rng_for(10)
    tau = rng.standard_normal(params2.n_tau)
    for j in range(3):
        shifted = tau.copy()
        shifted[j] += params2.winding_shift
        assert abs(params2.p1.value(shifted) - params2.p1.value(tau)) < 1e-12


def _tensordot_cl(form, psi):
    """Oracle: Clifford multiplication by the complex symbol sum_j form_j cl(e_j)."""
    return 1j * np.einsum("abxyz,bxyz->axyz", np.tensordot(tw._GEN, form, axes=(0, 0)), psi)


@pytest.mark.parametrize("N", [1, 2, 4, 8])
def test_entrywise_clifford_product_keeps_the_symbol_bits(N):
    lat = tw.TorusLattice(N)
    rng = rng_for(43, N)
    for amplitude in (1e-3, 1.0, 1e3):
        cfg = tw.random_config(lat, rng, amplitude)
        form = amplitude * rng.standard_normal((3,) + lat.shape)
        got, want = tw._cl(form, cfg.psi), _tensordot_cl(form, cfg.psi)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _tensordot_sigma(psi, phi):
    """Oracle: (1/2) Im <cl(e_j) psi, phi> through the complex product field."""
    return 0.5 * np.imag(np.tensordot(tw._GEN, psi[None] * np.conj(phi)[:, None], axes=2))


@pytest.mark.parametrize("N", [1, 2, 4, 8])
def test_entrywise_sigma_matches_the_tensordot_form(N):
    lat = tw.TorusLattice(N)
    rng = rng_for(44, N)
    for amplitude in (1e-3, 1.0, 1e3):
        psi, phi = (tw.random_config(lat, rng, amplitude).psi for _ in range(2))
        for a, b in ((psi, psi), (psi, phi)):
            got, want = tw.sigma_polarized(a, b), _tensordot_sigma(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Floer norm


def test_floer_norm_zero_functions(lat2):
    params = flat_params(lat2)
    res = tw.floer_norm(params)
    assert res.value == 0.0 and res.remainder_bound == 0.0


def test_floer_norm_reads_p3(lat2, params2):
    """The norm is that of the whole perturbation: doubling p3's coefficients
    adds p3's share once more, to the norm and to the tail bound."""
    p3 = params2.p3
    doubled = tw.SeparableFunction(p3.dim, [(kind, slot, 2.0 * c, w, b)
                                            for kind, slot, c, w, b in p3.terms])
    params = tw.PerturbationParams(params2.mus, params2.nus, params2.spinor_basis,
                                   params2.eigenvalues, params2.p1, params2.p2, doubled,
                                   params2.epsilons, params2.winding_shift)
    base, moved = tw.floer_norm(params2), tw.floer_norm(params)
    share = sum(params2.epsilons[k] * p3.deriv_sup(k) for k in range(params2.epsilons.size))
    assert share > 0.1
    assert abs(moved.value - base.value - share) <= 1e-12 * moved.value
    assert moved.remainder_bound > base.remainder_bound


def test_floer_norm_tail_reads_frequency_magnitude(lat2):
    """A negative frequency bounds the tail and the derivatives by |w|."""
    params = flat_params(lat2, n_tau=2)
    for w in (1.5, -1.5, 4.5, -4.5):
        p1 = tw.SeparableFunction(2, [("sin", 0, 0.5, w, 0.3)])
        assert p1.deriv_sup(3) == 0.5 * abs(w) ** 3
        with_p1 = tw.PerturbationParams(params.mus, params.nus, params.spinor_basis,
                                        params.eigenvalues, p1, params.p2, params.p3,
                                        params.epsilons, params.winding_shift)
        if abs(w) < 4.0:
            q = 1.5 / 4.0
            want = tw.M_TANH * 0.5 * q ** params.epsilons.size / (1.0 - q)
            assert tw.floer_norm(with_p1).remainder_bound == want
        else:
            with pytest.raises(ValueError, match="below 4"):
                tw.floer_norm(with_p1)


def test_floer_norm_tanh_against_finite_differences(lat2):
    params = flat_params(lat2, n_tau=2)
    c, w, b = 0.8, 1.3, 0.2
    p1 = tw.SeparableFunction(2, [("tanh", 0, c, w, b)])
    params = tw.PerturbationParams(params.mus, params.nus, params.spinor_basis,
                                   params.eigenvalues, p1, params.p2, params.p3,
                                   params.epsilons, params.winding_shift)
    xs = np.linspace(-3.0, 3.0, 2001)   # the fixed box of the Floer norm
    h = 1e-4
    f = lambda x: c * np.tanh(w * x + b)
    fd = {
        0: np.max(np.abs(f(xs))),
        1: np.max(np.abs((f(xs + h) - f(xs - h)) / (2 * h))),
        2: np.max(np.abs((f(xs + h) - 2 * f(xs) + f(xs - h)) / h ** 2)),
        3: np.max(np.abs((f(xs + 2 * h) - 2 * f(xs + h) + 2 * f(xs - h)
                          - f(xs - 2 * h)) / (2 * h ** 3))),
    }
    for k in (1, 2, 3):
        analytic = params.p1.deriv_sup(k)
        assert abs(analytic - fd[k]) < 0.05 * fd[k]
    res = tw.floer_norm(params)
    oracle = np.array([params.epsilons[k] * fd[k] for k in range(4)])
    assert np.all(np.abs(res.per_order[:4] - oracle) < 0.05 * oracle)


# ---------------------------------------------------------------------------
# linearization


def test_linearize_decouples_at_zero_spinor(lat2):
    cfg = tw.random_config(lat2, rng_for(11), amplitude=0.5)
    cfg = tw.SWConfiguration(lat2, cfg.alpha, np.zeros_like(cfg.psi))
    lin = tw.linearize(cfg, None)
    t = tw.random_tangent(lat2, rng_for(12))
    out = lin.apply(t)
    assert np.max(np.abs(out.scalar + lat2.divergence(t.alpha))) < 1e-12
    assert np.max(np.abs(out.one_form - lat2.curl(t.alpha))) < 1e-12
    dphi = tw.dirac3(tw.SWConfiguration(lat2, cfg.alpha, t.phi))
    assert np.max(np.abs(out.spinor - dphi)) < 1e-12


def test_linearize_matches_finite_difference_of_equation_map(lat2):
    cfg = tw.random_config(lat2, rng_for(13), amplitude=0.4)
    t = tw.random_tangent(lat2, rng_for(14))
    lin = tw.linearize(cfg, None).apply(t)

    def sw_map(c):
        return (lat2.curl(c.alpha) - tw.sigma_polarized(c.psi, c.psi),
                tw.dirac3(c))

    # the equation map is quadratic, so central differences are exact up to
    # rounding; the linearization rows must agree at that level
    for h in (1e-2, 1e-3):
        p1, p2 = sw_map(cfg.shifted(t, h))
        m1, m2 = sw_map(cfg.shifted(t, -h))
        fd_curv = (p1 - m1) / (2 * h)
        fd_dirac = (p2 - m2) / (2 * h)
        scale = max(np.max(np.abs(lin.one_form)), np.max(np.abs(lin.spinor)), 1.0)
        assert np.max(np.abs(fd_curv - lin.one_form)) < 1e-10 * scale / h
        assert np.max(np.abs(fd_dirac - lin.spinor)) < 1e-10 * scale / h


def test_adjoint_identity_random_pairs(lat2, params2):
    cfg = tw.random_config(lat2, rng_for(15), amplitude=0.6)
    lin = tw.linearize(cfg, params2)
    worst = 0.0
    for i in range(20):
        rng = rng_for(16, i)
        x = tw.random_tangent(lat2, rng)
        y = tw.SystemTriple(rng.standard_normal((lat2.n,) * 3),
                            rng.standard_normal((3,) + (lat2.n,) * 3),
                            rng.standard_normal((2,) + (lat2.n,) * 3)
                            + 1j * rng.standard_normal((2,) + (lat2.n,) * 3))
        lhs = lin.pairing_out(lin.apply(x), y)
        rhs = tw.tangent_inner(x, lin.adjoint(y), lat2)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-10


def test_adjoint_spinor_block_is_dirac_type(lat2):
    """The adjoint acting on pure spinor data is the Dirac operator plus a
    zeroth-order term: on plane waves the leftover carries no derivative
    growth (here it vanishes identically for pure spinor input)."""
    cfg = tw.random_config(lat2, rng_for(17), amplitude=0.5)
    lin = tw.linearize(cfg, None)
    defects = []
    for kvec in ((1, 0, 0), (2, -1, 0)):
        k = np.array(kvec, dtype=float)
        phase = np.exp(1j * np.tensordot(k, lat2.x, axes=(0, 0)))
        chi = np.stack([phase, 0.3 * phase])
        y = tw.SystemTriple(np.zeros((lat2.n,) * 3), np.zeros((3,) + (lat2.n,) * 3), chi)
        out = lin.adjoint(y)
        dirac_part = tw.dirac3(tw.SWConfiguration(lat2, cfg.alpha, chi))
        leftover = out.phi - dirac_part
        norm_chi = math.sqrt(np.sum(np.abs(chi) ** 2) * lat2.volume_element)
        defects.append(np.max(np.abs(leftover)) / norm_chi)
    assert max(defects) < 1e-10


# ---------------------------------------------------------------------------
# flow


def test_flow_fixed_point_at_flat_configuration(lat2):
    params = flat_params(lat2)
    zero = tw.SWConfiguration.zero(lat2)
    for scheme in ("explicit", "semi-implicit"):
        new = tw.run_flow(zero, params, "case1", dt=0.1, steps=1, scheme=scheme).config
        assert np.max(np.abs(new.alpha)) < 1e-14
        assert np.max(np.abs(new.psi)) < 1e-14


def test_flow_monotone_decrease_explicit(lat2):
    cfg = tw.random_config(lat2, rng_for(18), amplitude=1e-3)
    prev = tw.csd(cfg, None, "unperturbed")
    for _ in range(100):
        cfg = tw.run_flow(cfg, None, "unperturbed", dt=5e-3, steps=1, scheme="explicit").config
        val = tw.csd(cfg, None, "unperturbed")
        assert val <= prev + 1e-12 * (1 + abs(prev))
        prev = val


def beltrami_config(lat, amplitude):
    """Positive curl eigenfield: an oversized explicit step overshoots it
    upward, so the functional increase is guaranteed."""
    cfg = tw.SWConfiguration.zero(lat)
    cfg.alpha[1] = amplitude * np.cos(lat.x[0])
    cfg.alpha[2] = -amplitude * np.sin(lat.x[0])
    return cfg


def test_flow_oversized_step_raises(lat2):
    cfg = beltrami_config(lat2, 1e-3)
    with pytest.raises(FlowInstabilityError):
        tw.run_flow(cfg, None, "unperturbed", dt=1e3, steps=1, scheme="explicit")


def test_flow_semi_implicit_converges_to_critical_point(lat2):
    cfg = tw.random_config(lat2, rng_for(20), amplitude=1e-4)
    result = tw.run_flow(cfg, None, "unperturbed", dt=3.0, steps=200,
                         scheme="semi-implicit", residual_target=1e-6)
    assert result.converged
    assert max(result.trajectory[-1].residual_curvature,
               result.trajectory[-1].residual_dirac) < 1e-6
    assert result.config.sup_psi_sq() < 1e-4
    # the flat-torus curvature-scalar bound sup|psi|^2 <= 0, to 1e-6
    assert result.config.sup_psi_sq() <= 1e-6


# ---------------------------------------------------------------------------
# linearization continuation bookkeeping


def test_linearization_setup_zero_spinor(lat2, params2):
    lin = tw.linearize(tw.SWConfiguration.zero(lat2), params2)
    assert lin.mixed_coefficient == 0.0


def test_linearization_setup_case1_admissibility(lat2, params2):
    cfg = tw.random_config(lat2, rng_for(22), amplitude=0.5)
    lin = tw.linearize(cfg, params2)
    assert abs(lin.mixed_coefficient
               - 0.5 * math.sqrt(cfg.sup_psi_sq())) < 1e-14
    rng = rng_for(23)
    phi = (rng.standard_normal(cfg.psi.shape)
           + 1j * rng.standard_normal(cfg.psi.shape))
    adm = admissibility_bound(lin.case1, lin.case1_field(phi))
    assert adm.admissible
    assert adm.c0 <= lin.case1_witness_c0 * (1 + 1e-10)


def test_case1_matrix_field_lives_on_the_lattice(lat2, params2):
    cfg = tw.random_config(lat2, rng_for(22), amplitude=0.5)
    lin = tw.linearize(cfg, params2)
    assert lin.case1.a.grid == lat2
    rng = rng_for(29)
    x, y = (rng.standard_normal(cfg.psi.shape) + 1j * rng.standard_normal(cfg.psi.shape)
            for _ in range(2))
    u, v = lin.case1_field(x), lin.case1_field(y)
    assert u.values.shape == (lat2.n,) * 3 + (2,)
    oracle = np.sum(x * np.conj(y)) * lat2.volume_element
    assert abs(l2_inner(u, v) - oracle) <= 1e-13 * abs(oracle)


def test_linearization_without_params_has_no_case1(lat2):
    lin = tw.linearize(tw.random_config(lat2, rng_for(22), amplitude=0.5), None)
    assert lin.mixed_coefficient > 0.0
    with pytest.raises(ValueError, match="params"):
        lin.case1


def test_case1_is_built_on_first_use_and_kept(lat2, params2):
    """linearize, apply and adjoint build no bundle map; the first read of
    case1 builds it and a second read returns the same object."""
    cfg = tw.random_config(lat2, rng_for(22), amplitude=0.5)
    lin, t = tw.linearize(cfg, params2), tw.random_tangent(lat2, rng_for(23))
    lin.adjoint(lin.apply(t))
    assert "_case1" not in vars(lin)
    assert lin.case1 is lin.case1


@pytest.mark.parametrize("dt, k_norm", [(1.0, 1.0), (0.5, 2.0), (0.25, 4.0),
                                        (1.0 / math.sqrt(2.0), math.sqrt(2.0))])
def test_semi_implicit_resonant_dt_raises(dt, k_norm):
    """dt |k| = 1 or 2 dt |k| = 1 on some lattice mode makes the per-mode
    resolvent singular; the run refuses it before its first record, so even
    at steps = 0, and names the mode."""
    cfg = tw.random_config(tw.TorusLattice(4), rng_for(24), amplitude=1e-4)
    with pytest.raises(FlowInstabilityError) as err:
        tw.run_flow(cfg, None, "unperturbed", dt=dt, steps=0, scheme="semi-implicit")
    assert f"|k| = {k_norm:.6g}" in str(err.value)


def test_run_flow_divergence_raises():
    cfg = tw.random_config(tw.TorusLattice(3), rng_for(25), amplitude=50.0)
    with np.errstate(all="ignore"), pytest.raises(FlowInstabilityError):
        tw.run_flow(cfg, None, "unperturbed", dt=3.0, steps=200,
                    scheme="semi-implicit")


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("dt", [3.0, 0.01])
def test_semi_implicit_step_solves_its_linear_system(N, dt):
    """(x - x_new)/dt + L(x - x_new) = grad csd(x) with L = (curl, 2 D_0)."""
    lat = tw.TorusLattice(N)
    params = tw.default_params(lat)
    cfg = tw.random_config(lat, rng_for(26, N), amplitude=0.5)
    new = tw.run_flow(cfg, params, "case2", dt=dt, steps=1, scheme="semi-implicit").config
    g = tw.grad_csd(cfg, params, "case2")
    da, dp = cfg.alpha - new.alpha, cfg.psi - new.psi
    free_dirac = tw.dirac3(tw.SWConfiguration(lat, np.zeros_like(da), dp))
    res_a = da / dt + lat.curl(da) - g.alpha
    res_p = dp / dt + 2.0 * free_dirac - g.phi
    scale = max(np.max(np.abs(g.alpha)), np.max(np.abs(g.phi)))
    assert max(np.max(np.abs(res_a)), np.max(np.abs(res_p))) <= 1e-12 * scale


def test_spectral_transform_counts(lat2, params2, monkeypatch, tmp_path):
    """Derivatives make no Fourier transform: only case2's Green operator
    (one scalar multiply for the dressing, one for the W-term) and the
    semi-implicit resolvents (one multiply per field) apply a multiplier;
    checkpoints store physical-space fields and make none."""
    calls = []
    multiply = tw.TorusLattice.multiply

    def counted(*args, **kwargs):
        calls.append(args)
        return multiply(*args, **kwargs)

    monkeypatch.setattr(tw.TorusLattice, "multiply", counted)
    cfg = tw.random_config(lat2, rng_for(27), amplitude=0.3)
    lin, rng = tw.linearize(cfg, None), rng_for(28)
    t = tw.random_tangent(lat2, rng)
    triple = tw.SystemTriple(rng.standard_normal(lat2.shape), t.alpha, t.phi)
    free = [lambda: lin.apply(t), lambda: lin.adjoint(triple),
            lambda: tw.gauge_apply(cfg, rng.standard_normal(lat2.shape), (1, 0, 0)),
            lambda: save_checkpoint(cfg, tmp_path / "state.ckpt"),
            lambda: load_checkpoint(tmp_path / "state.ckpt")]
    for case in ("unperturbed", "case1"):
        free += [lambda case=case: tw.csd(cfg, params2, case),
                 lambda case=case: tw.evaluate(cfg, params2, case)]
    for fn in free:
        calls.clear()
        fn()
        assert calls == []
    for fn, limit in ((tw.csd, 1), (tw.evaluate, 2), (tw.grad_csd, 2)):
        calls.clear()
        fn(cfg, params2, "case2")
        assert 0 < len(calls) <= limit, fn.__name__
    calls.clear()
    tw.run_flow(cfg, None, "unperturbed", dt=3.0, steps=1, scheme="semi-implicit")
    assert 0 < len(calls) <= 2
    calls.clear()
    tw.run_flow(cfg, None, "unperturbed", dt=3.0, steps=2, scheme="semi-implicit")
    assert 0 < len(calls) <= 4


def _fft_k(lat):
    """numpy's integer wave vectors of the lattice, (3, n, n, n)."""
    k1 = np.fft.fftfreq(lat.n, 1.0 / lat.n)
    return np.stack(np.meshgrid(k1, k1, k1, indexing="ij"))


@pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("stack", [(3,), ()])
def test_spectral_primitives_match_numpy_fft(N, stack):
    """multiply(f, m) against irfftn(m rfftn f) and ifftn(m fftn z) with
    numpy's wave numbers, 1e-13 relative, on stacked and plain lattice
    fields, for the Green multiplier and the Dirac resolvent's
    1/(1 - 4 dt^2 |k|^2); the basis is orthonormal."""
    lat, axes, dt = tw.TorusLattice(N), (-3, -2, -1), 3.0
    assert np.max(np.abs(lat.V.T @ lat.V - np.eye(lat.n))) <= 1e-14
    k2 = np.sum(_fft_k(lat) ** 2, axis=0)
    green = np.divide(1.0, k2, out=np.zeros(lat.shape), where=k2 > 0)
    rng = rng_for(31, N, len(stack))
    x = rng.standard_normal(stack + lat.shape)
    z = x + 1j * rng.standard_normal(stack + lat.shape)
    for m, m_fft in ((lat.green, green),
                     (1.0 / (1.0 - 4.0 * dt ** 2 * lat.k2), 1.0 / (1.0 - 4.0 * dt ** 2 * k2))):
        want_x = np.fft.irfftn(m_fft[..., :N + 1] * np.fft.rfftn(x, axes=axes),
                               s=lat.shape, axes=axes)
        want_z = np.fft.ifftn(m_fft * np.fft.fftn(z, axes=axes), axes=axes)
        for got, want in ((lat.multiply(x, m), want_x), (lat.multiply(z, m), want_z)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), cplx=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_multiply_by_a_function_of_k2_commutes_with_partials_and_is_symmetric(N, cplx, seed):
    """What the closed-form resolvents and grad_csd's W-term rely on: for
    m = c[k2], multiply(., m) commutes with partials and is symmetric in
    the L2 pairing, 1e-13 relative.  A multiplier that is not a function of
    |k|^2 does not commute, so the check can tell them apart."""
    lat = tw.TorusLattice(N)
    rng = np.random.default_rng(seed)

    def field():
        f = rng.standard_normal(lat.shape)
        return f + 1j * rng.standard_normal(lat.shape) if cplx else f

    f, g = field(), field()
    m = rng.standard_normal(3 * N ** 2 + 1)[lat.k2.astype(int)]
    scale = np.max(np.abs(m)) * np.max(np.abs(lat.partials(f)))
    err = np.max(np.abs(lat.multiply(lat.partials(f), m) - lat.partials(lat.multiply(f, m))))
    assert err <= 1e-13 * scale
    lhs, rhs = np.vdot(g, lat.multiply(f, m)), np.vdot(lat.multiply(g, m), f)
    assert abs(lhs - rhs) <= 1e-13 * np.max(np.abs(m)) * np.linalg.norm(f) * np.linalg.norm(g)
    r = rng.standard_normal(lat.shape)
    off = np.max(np.abs(lat.multiply(lat.partials(f), r) - lat.partials(lat.multiply(f, r))))
    assert off > 1e-6 * np.max(np.abs(r)) * np.max(np.abs(lat.partials(f)))


@pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("stack", [(3,), ()])
def test_partials_match_numpy_fft(N, stack):
    """partials against the spectral derivatives irfftn(i k rfftn(f)) and
    ifftn(i k fftn(z)), 1e-13 relative, on real and complex, stacked and
    plain lattice fields, keeping each field's dtype."""
    lat, axes = tw.TorusLattice(N), (-3, -2, -1)
    k = _fft_k(lat)
    rng = rng_for(33, N, len(stack))
    x = rng.standard_normal(stack + lat.shape)
    z = x + 1j * rng.standard_normal(stack + lat.shape)
    h, zh = np.fft.rfftn(x, axes=axes), np.fft.fftn(z, axes=axes)
    for j in range(3):
        want_x = np.fft.irfftn(1j * k[j, ..., :N + 1] * h, s=lat.shape, axes=axes)
        want_z = np.fft.ifftn(1j * k[j] * zh, axes=axes)
        for got, want in ((lat.partials(x)[j], want_x), (lat.partials(z)[j], want_z)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [1, 2, 8])
def test_derivative_matrix_is_antisymmetric(N):
    """D = -D.T bit for bit, so gradient and -divergence are exact adjoints."""
    D = tw.TorusLattice(N).D
    assert np.array_equal(D, -D.T)


@pytest.mark.parametrize("case", tw._CASES)
def test_value_only_csd_equals_evaluation_value(lat2, params2, case):
    cfg = tw.random_config(lat2, rng_for(32), amplitude=0.3)
    assert tw.csd(cfg, params2, case) == tw.evaluate(cfg, params2, case).value


@pytest.mark.parametrize("scheme, dt", [("explicit", 5e-3), ("semi-implicit", 3.0)])
def test_flow_records_match_fresh_evaluations(lat2, params2, scheme, dt):
    """Records reuse the evaluation the next step consumes; each must equal a
    fresh csd and residual norms at the configuration run_flow reaches in
    that many steps."""
    cfg = tw.random_config(lat2, rng_for(28), amplitude=0.1)
    result = tw.run_flow(cfg, params2, "case2", dt=dt, steps=3, scheme=scheme)
    assert [r.step for r in result.trajectory] == [0, 1, 2, 3]
    for rec in result.trajectory:
        current = tw.run_flow(cfg, params2, "case2", dt=dt, steps=rec.step, scheme=scheme).config
        r1, r2 = tw.evaluate(current, None, "unperturbed").residuals
        for got, want in ((rec.csd, tw.csd(current, params2, "case2")),
                          (rec.residual_curvature, r1), (rec.residual_dirac, r2)):
            assert abs(got - want) <= 1e-12 * abs(want)
    assert np.array_equal(result.config.alpha, current.alpha)
    assert np.array_equal(result.config.psi, current.psi)


_PROFILES = {"sin": (math.sin, math.cos),
             "tanh": (math.tanh, lambda z: 1.0 - math.tanh(z) ** 2)}


def _separable_loop(terms, dim, x, k=None, box=(-3.0, 3.0)):
    """Scalar per-term reference for SeparableFunction (value and gradient,
    or the k-th derivative sup for k >= 1)."""
    if k is None:
        value, grad = 0.0, np.zeros(dim)
        for kind, slot, c, w, b in terms:
            f, df = _PROFILES[kind]
            value += c * f(w * x[slot] + b)
            grad[slot] += c * w * df(w * x[slot] + b)
        return value, grad
    sums = np.zeros(dim)
    for kind, slot, c, w, b in terms:
        if kind == "sin":
            sums[slot] += abs(c) * w ** k
        elif k >= 4:
            sums[slot] += abs(c) * w ** k * math.factorial(k) * tw.M_TANH
        else:
            t = np.tanh(np.linspace(w * box[0] + b, w * box[1] + b, 257))
            prof = [1 - t ** 2, -2 * t * (1 - t ** 2), (1 - t ** 2) * (6 * t ** 2 - 2)][k - 1]
            sums[slot] += abs(c) * w ** k * np.max(np.abs(prof))
    return float(np.max(sums))


def _box_sup(terms, dim, points=257):
    """max |f| over the product grid of `points` points per slot of [-3, 3]^dim,
    by brute force: each slot's profile from math, summed at every grid point."""
    xs = np.linspace(-3.0, 3.0, points)
    profiles = np.zeros((dim, points))
    for kind, slot, c, w, b in terms:
        profiles[slot] += [c * _PROFILES[kind][0](w * x + b) for x in xs]
    plane = profiles[-2][:, None] + profiles[-1]
    best = 0.0
    for head in itertools.product(*profiles[:-2]):
        best = max(best, float(np.max(np.abs(sum(head) + plane))))
    return best


def test_separable_function_matches_termwise_loop():
    terms = [("sin", 0, 0.3, 1.5, 0.2), ("tanh", 0, -0.4, 0.7, -0.1),
             ("sin", 1, 0.25, 2.0, 0.5), ("tanh", 2, 0.2, 1.1, 0.3),
             ("sin", 2, -0.15, 0.9, 1.0), ("tanh", 0, -0.5, 0.3, 0.0)]
    fn = tw.SeparableFunction(3, terms)
    for x in rng_for(29).standard_normal((5, 3)):
        value, grad = _separable_loop(terms, 3, x)
        assert abs(fn.value(x) - value) <= 1e-14
        assert np.max(np.abs(fn.grad(x) - grad)) <= 1e-14
    for k in range(1, 7):
        want = _separable_loop(terms, 3, None, k)
        assert abs(fn.deriv_sup(k) - want) <= 1e-13 * want
    assert abs(fn.deriv_sup(0) - _box_sup(terms, 3)) <= 1e-14
    with pytest.raises(ValueError):
        tw.SeparableFunction(1, [("cos", 0, 1.0, 1.0, 0.0)])
    with pytest.raises(ValueError):
        tw.SeparableFunction(1, [("linear", 0, 1.0, 1.0, 0.0)])


def test_deriv_sup_zero_is_the_box_sup_off_the_diagonal():
    """tanh(x_0) - tanh(x_1) vanishes on the diagonal x_0 = x_1, but its sup
    over [-3, 3]^2 is 2 tanh 3, at opposite corners."""
    fn = tw.SeparableFunction(2, [("tanh", 0, 1.0, 1.0, 0.0), ("tanh", 1, -1.0, 1.0, 0.0)])
    assert abs(fn.deriv_sup(0) - 2.0 * math.tanh(3.0)) <= 1e-15


_TERM = st.tuples(st.sampled_from(["sin", "tanh"]), st.integers(0, 1),
                  st.floats(-1.0, 1.0), st.floats(-3.9, 3.9), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(_TERM, max_size=4), x=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
def test_separable_function_property_on_two_slots(terms, x):
    """Random 2-slot sin/tanh sums: deriv_sup(0) is the max of |f| on the
    257 x 257 product grid, and value and grad are the per-term math loop."""
    fn = tw.SeparableFunction(2, terms)
    assert abs(fn.deriv_sup(0) - _box_sup(terms, 2)) <= 1e-12
    value, grad = _separable_loop(terms, 2, np.array(x))
    assert abs(fn.value(np.array(x)) - value) <= 1e-14
    assert np.max(np.abs(fn.grad(np.array(x)) - grad)) <= 1e-14


@pytest.mark.parametrize("amplitude", [5.0, 20.0])
def test_case2_large_configs_stay_finite(lat2, params2, amplitude):
    for s in range(5):
        config = tw.random_config(lat2, np.random.default_rng(s), amplitude=amplitude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = tw.grad_csd(config, params2, "case2")
            value = tw.csd(config, params2, "case2")
        assert math.isfinite(value)
        assert np.all(np.isfinite(grad.alpha)) and np.all(np.isfinite(grad.phi))
