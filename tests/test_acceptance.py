"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 assert the boundedness-spread clause exactly as stated
(factor <= 2 over R in [10, 1e3] at T = 0.1).  The measured spread exceeds
that by an order of magnitude for structural reasons (the sharp constant
grows roughly linearly in R until R clears the Dirichlet gap of the support
interval, about 1.1e3 at T = 0.1); the tests are kept faithful and red
rather than loosened.  See README.md for the analysis.
"""
import math
import time

import numpy as np

from ucp_lab import carleman as cl
from ucp_lab import counterexamples as cx
from ucp_lab import torus as tw
from ucp_lab.fields import Grid1D, SpinorField
from ucp_lab.operators import constant_operator_1d, model_operator_1d
from ucp_lab.perturbations import (Perturbation, admissibility_bound,
                                   integrate_zero_data, ucp_condition_check)

T_HORIZON = 0.1


def _verdict(name: str, checks: dict) -> None:
    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    print(f"\nCRITERION {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name}: {detail}"


def _geometry(n=2049):
    return cl.CarlemanGeometry.interval(T_HORIZON, n)


def _unit_pointwise(geom):
    grid = geom.grid
    a = np.zeros((grid.n, 2), dtype=complex)
    a[:, 0] = np.cos(np.pi * grid.t / geom.T)
    a[:, 1] = 1j * np.sin(np.pi * grid.t / geom.T)
    norm = np.max(np.sqrt(np.sum(np.abs(a) ** 2, axis=1)))
    return Perturbation.pointwise(SpinorField(grid, a / norm))


def test_criterion_1_carleman_boundedness():
    start = time.perf_counter()
    geom = _geometry()
    op = model_operator_1d(geom.grid)
    sweep = cl.constant_sweep(op, cl.cutoff_bump_sampler(geom),
                              np.logspace(1, 3, 7), geom, n_samples=20, seed=42)
    elapsed = time.perf_counter() - start
    spread = sweep.spread
    _verdict("1 (constant boundedness)", {
        f"spread {spread:.2f} <= 2": spread <= 2.0,
        f"runtime {elapsed:.1f}s < 10s": elapsed < 10.0,
    })


def test_criterion_2_perturbed_carleman():
    start = time.perf_counter()
    geom = _geometry()
    op = model_operator_1d(geom.grid)
    pert = _unit_pointwise(geom)
    sampler = cl.cutoff_bump_sampler(geom)
    sweep = cl.constant_sweep(op, sampler, np.logspace(1, 3, 7), geom,
                              n_samples=20, perturbation=pert, seed=42)
    worst_c0 = 0.0
    for i in range(5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, i])))
        v = sampler(rng)
        rep = cl.carleman_ratio(op, pert, v, 10.0, geom)
        # independent sampled bound: for the pointwise kind the quotient field
        # is |<v(x), a(x)>| wherever v does not vanish
        omega = np.abs(np.sum(v.values * np.conj(pert.a.values), axis=-1))
        mask = np.sqrt(np.sum(np.abs(v.values) ** 2, axis=-1)) > 0
        sampled = float(np.max(omega[mask]))
        worst_c0 = max(worst_c0, abs((rep.c0 or 0.0) - sampled))
    elapsed = time.perf_counter() - start
    _verdict("2 (perturbed boundedness)", {
        f"C0 consistency {worst_c0:.1e} <= 1e-10": worst_c0 <= 1e-10,
        f"spread {sweep.spread:.2f} <= 2": sweep.spread <= 2.0,
        f"runtime {elapsed:.1f}s < 10s": elapsed < 10.0,
    })


def test_criterion_3_decay_exponent():
    start = time.perf_counter()
    geom = _geometry(4097)
    op = model_operator_1d(geom.grid)
    u = integrate_zero_data(op, Perturbation.zero(),
                            u0=np.array([1e-12, 0.0], dtype=complex))
    report = cl.ucp_decay_check(op, Perturbation.zero(), u,
                                np.logspace(5, 7, 7), geom, seed=42)
    elapsed = time.perf_counter() - start
    _verdict("3 (decay exponent)", {
        f"slope dev {report.slope_rel_dev:.2e} <= 1%": report.slope_rel_dev <= 0.01,
        "measured below bound past crossover": report.passed,
        f"runtime {elapsed:.1f}s < 5s": elapsed < 5.0,
    })


def test_criterion_4_appendix_identity():
    geom = cl.CarlemanGeometry.interval(T_HORIZON, 1025)
    op = model_operator_1d(geom.grid)
    pert = _unit_pointwise(geom)
    sampler = cl.cutoff_bump_sampler(geom)
    worst = 0.0
    for i in range(50):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, i])))
        v = sampler(rng)
        R = float(rng.uniform(10.0, 200.0))
        rec = cl.appendix_decomposition(op, pert, v, R, geom)
        worst = max(worst, rec.identity_defect)

    defects, hs = [], []
    for n in (257, 513, 1025, 2049):
        g = cl.CarlemanGeometry.interval(T_HORIZON, n)
        cop = constant_operator_1d(g.grid)
        v = cl.cutoff_bump_sampler(g)(
            np.random.Generator(np.random.Philox(np.random.SeedSequence([9]))))
        rec = cl.appendix_decomposition(cop, Perturbation.zero(), v, 50.0, g)
        defects.append(abs(rec.mix_residual))
        hs.append(g.grid.spacing)
    order = float(np.polyfit(np.log(hs), np.log(defects), 1)[0])
    _verdict("4 (J-term identities)", {
        f"identity defect {worst:.1e} < 1e-10": worst < 1e-10,
        f"mix-residual order {order:.2f} >= 1.9": order >= 1.9,
    })


def test_criterion_5_counterexamples():
    checks = {}
    for case in ("sqrt", "two-thirds"):
        sol = cx.peano_branches(case, c=1.0, grid=Grid1D.uniform(4.0, 4097))
        checks[f"peano-{case} residual < 1e-6"] = max(sol.residual0,
                                                      sol.residual1) < 1e-6
    sol, a = cx.rank_one_counterexample(Grid1D.uniform(2.0, 16385))
    grid = sol.grid
    w = grid.quad_weights()
    pairing = float(np.sum(w * sol.u1 * a))
    checks["<u,a> = 1 +- 1e-8"] = abs(pairing - 1.0) <= 1e-8
    checks["u(2) = sqrt(2) +- 1e-8"] = abs(sol.u1[-1] - math.sqrt(2.0)) <= 1e-8
    checks["rank-one residual < 1e-6"] = sol.residual1 < 1e-6

    a_field = SpinorField(grid, a[:, None].astype(complex))
    trivial = SpinorField(grid, sol.u0[:, None].astype(complex))
    checks["rank-one data gives 'neither'"] = (
        ucp_condition_check(a_field, trivial).verdict == "neither")
    wave = np.exp(1j * 4.0 * grid.t)
    eig = SpinorField(grid, np.stack([wave, 0 * wave], axis=1))
    checks["eigenspinor gives condition (i)"] = (
        ucp_condition_check(eig, trivial).verdict == "condition-i")
    _verdict("5 (counterexamples)", checks)


def test_criterion_6_gradient_fidelity():
    start = time.perf_counter()
    lat = tw.TorusLattice(4)
    params = tw.default_params(lat)
    hs = np.array([1e-2, 1e-3, 1e-4])
    worst = math.inf
    for case in ("unperturbed", "case1", "case2"):
        for i in range(10):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence([42, 6, i])))
            cfg = tw.random_config(lat, rng, amplitude=0.3)
            direction = tw.random_tangent(lat, rng)
            pair = tw.tangent_inner(tw.grad_csd(cfg, params, case), direction, lat)
            errs = []
            for h in hs:
                num = (tw.csd(cfg.shifted(direction, h), params, case)
                       - tw.csd(cfg.shifted(direction, -h), params, case)) / (2 * h)
                errs.append(abs(num - pair) / max(abs(pair), 1e-30))
            order = float(np.polyfit(np.log(hs),
                                     np.log(np.maximum(errs, 1e-300)), 1)[0])
            worst = min(worst, order)
    elapsed = time.perf_counter() - start
    _verdict("6 (gradient fidelity)", {
        f"worst order {worst:.2f} >= 1.9": worst >= 1.9,
        f"runtime {elapsed:.1f}s < 60s": elapsed < 60.0,
    })


def test_criterion_7_gauge_properties():
    lat = tw.TorusLattice(4)
    params = tw.default_params(lat)
    worst_zeta = worst_eta = worst_tau = 0.0
    for i in range(5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, 7, i])))
        cfg = tw.random_config(lat, rng, amplitude=0.5)
        obs = tw.observables(cfg, params)
        f = rng.standard_normal((lat.n,) * 3)
        f -= f.mean()

        full = tw.gauge_apply(cfg, f=f, winding=(1, 0, 0))
        obs_full = tw.observables(full, params)
        worst_zeta = max(worst_zeta, float(np.max(np.abs(obs_full.zeta - obs.zeta))))

        mean_zero = tw.gauge_apply(cfg, f=f)
        obs_h = tw.observables(mean_zero, params)
        worst_eta = max(worst_eta, float(np.max(np.abs(obs_h.eta - obs.eta))))

        oracle = np.array([2.0 * np.sum(m[0]) * lat.volume_element
                           for m in params.mus])
        worst_tau = max(worst_tau, float(np.max(np.abs((obs_full.tau - obs.tau)
                                                       - oracle))))
    _verdict("7 (gauge properties)", {
        f"zeta invariance {worst_zeta:.1e} <= 1e-10": worst_zeta <= 1e-10,
        f"eta invariance {worst_eta:.1e} <= 1e-8": worst_eta <= 1e-8,
        f"tau winding shift {worst_tau:.1e} <= 1e-8": worst_tau <= 1e-8,
    })


def test_criterion_8_flat_torus_bound():
    start = time.perf_counter()
    lat = tw.TorusLattice(4)
    checks = {}
    for trial in range(5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, 8, trial])))
        cfg = tw.random_config(lat, rng, amplitude=1e-4)
        flow = tw.run_flow(cfg, None, "unperturbed", dt=3.0, steps=400,
                           scheme="semi-implicit", residual_target=1e-6)
        final = max(flow.trajectory[-1].residual_curvature,
                    flow.trajectory[-1].residual_dirac)
        checks[f"trial {trial} residual < 1e-6"] = final < 1e-6
        checks[f"trial {trial} sup|psi|^2 < 1e-4"] = flow.config.sup_psi_sq() < 1e-4
    elapsed = time.perf_counter() - start
    checks[f"runtime {elapsed:.1f}s < 120s"] = elapsed < 120.0
    _verdict("8 (flat-torus bound)", checks)


def test_criterion_9_adjoint_and_structure():
    lat = tw.TorusLattice(4)
    params = tw.default_params(lat)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, 9])))
    cfg = tw.random_config(lat, rng, amplitude=0.4)
    lin = tw.linearize(cfg, params)
    worst = 0.0
    for i in range(20):
        x = tw.random_tangent(lat, rng)
        y = tw.SystemTriple(rng.standard_normal((lat.n,) * 3),
                            rng.standard_normal((3,) + (lat.n,) * 3),
                            rng.standard_normal((2,) + (lat.n,) * 3)
                            + 1j * rng.standard_normal((2,) + (lat.n,) * 3))
        lhs = lin.pairing_out(lin.apply(x), y)
        rhs = tw.tangent_inner(x, lin.adjoint(y), lat)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))

    phi = (rng.standard_normal(cfg.psi.shape)
           + 1j * rng.standard_normal(cfg.psi.shape))
    adm = admissibility_bound(lin.case1, lin.case1_field(phi))
    pure_ok = adm.admissible and (adm.c0 or 0.0) <= lin.case1_witness_c0 * (1 + 1e-10)
    _verdict("9 (adjoint and structure)", {
        f"adjoint defect {worst:.1e} <= 1e-10": worst <= 1e-10,
        "case-1 pure-spinor block admissible with recorded C0": pure_ok,
    })
